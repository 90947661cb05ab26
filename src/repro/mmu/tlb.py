"""TLB structures: per-page-size L1 DTLB arrays and the shared STLB.

Haswell's first-level data TLB has separate arrays per page size; the
second-level (shared) TLB holds 4 KB and 2 MB translations but not 1 GB
ones — 1 GB STLB lookups always miss and go straight to the walker,
which is why Table 2 has ``stlb_hit_4k``/``stlb_hit_2m`` counters but no
``stlb_hit_1g``.
"""

from collections import OrderedDict

from repro.errors import ConfigurationError
from repro.mmu.config import PageSize


class TLBArray:
    """A set-associative TLB for one page size (LRU replacement)."""

    def __init__(self, entries, ways, name="tlb"):
        if entries <= 0 or ways <= 0 or entries % ways != 0:
            raise ConfigurationError(
                "TLB %s: %d entries not divisible into %d ways" % (name, entries, ways)
            )
        self.name = name
        self.ways = ways
        self.n_sets = entries // ways
        self._sets = [OrderedDict() for _ in range(self.n_sets)]

    # lookup and insert run for most µops, so each computes its set
    # index (vpn % n_sets) and tag (vpn // n_sets) inline.
    def lookup(self, vpn):
        """Probe for a virtual page number; hit refreshes LRU state."""
        n_sets = self.n_sets
        entries = self._sets[vpn % n_sets]
        tag = vpn // n_sets
        if tag in entries:
            entries.move_to_end(tag)
            return True
        return False

    def insert(self, vpn):
        n_sets = self.n_sets
        entries = self._sets[vpn % n_sets]
        tag = vpn // n_sets
        entries[tag] = None
        entries.move_to_end(tag)
        if len(entries) > self.ways:
            entries.popitem(last=False)

    def __repr__(self):
        return "TLBArray(%s: %d sets x %d ways)" % (self.name, self.n_sets, self.ways)


class L1DTLB:
    """First-level data TLB: separate arrays per page size."""

    def __init__(self, config):
        self.arrays = {
            PageSize.SIZE_4K: TLBArray(
                config.l1_tlb_entries_4k, config.l1_tlb_ways_4k, name="L1D-4K"
            ),
            PageSize.SIZE_2M: TLBArray(
                config.l1_tlb_entries_2m, config.l1_tlb_ways_2m, name="L1D-2M"
            ),
            PageSize.SIZE_1G: TLBArray(
                config.l1_tlb_entries_1g, config.l1_tlb_ways_1g, name="L1D-1G"
            ),
        }

    def lookup(self, vpn, page_size):
        return self.arrays[page_size].lookup(vpn)

    def insert(self, vpn, page_size):
        self.arrays[page_size].insert(vpn)


class STLB:
    """Second-level (shared) TLB: holds 4 KB and 2 MB translations.

    1 GB translations are not cached here; their lookups miss
    unconditionally (and do not increment ``stlb_hit``).
    """

    CACHEABLE = (PageSize.SIZE_4K, PageSize.SIZE_2M)

    def __init__(self, config):
        self.array = TLBArray(config.stlb_entries, config.stlb_ways, name="STLB")

    def lookup(self, vpn, page_size):
        if page_size not in self.CACHEABLE:
            return False
        # Tag the entry with its page size so 4K/2M entries cannot alias.
        return self.array.lookup(vpn * 2 + (0 if page_size == PageSize.SIZE_4K else 1))

    def insert(self, vpn, page_size):
        if page_size not in self.CACHEABLE:
            return
        self.array.insert(vpn * 2 + (0 if page_size == PageSize.SIZE_4K else 1))
