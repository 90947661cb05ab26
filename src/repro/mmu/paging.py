"""The four-level x86-64 page table and paging-structure caches.

The simulator does not store real page-table contents; it synthesises
deterministic physical addresses for the page-table entries a walk would
read, so that walker loads exercise the data-cache hierarchy exactly as
often (and with exactly the locality) a real radix table would. Accessed
bits are tracked per leaf entry — the state the TLB prefetcher's
abort-on-unset-accessed-bit behaviour depends on.

Paging-structure caches (PSCs) cache *non-leaf* entries:

* the PDE cache holds page-directory entries that point to page tables —
  a hit lets a 4 KB walk skip straight to the PTE read (1 load). Because
  only pointers-to-PT are cached, 2 MB and 1 GB translations (whose PDE /
  PDPTE is the leaf) always miss it — the subtlety behind Table 1's
  Constraint 2.
* the PDPTE cache holds page-directory-pointer entries (skip to the PDE
  read),
* the PML4E cache holds root entries (skip the root read) — the cache
  whose existence the paper establishes via 1 GB workloads.
"""

from collections import OrderedDict

from repro.errors import ConfigurationError
from repro.mmu.config import PageSize

# Bit positions of the level indices within a 48-bit virtual address.
PT_SHIFT = 12
PD_SHIFT = 21
PDPT_SHIFT = 30
PML4_SHIFT = 39

# Synthetic physical regions for each level's entries (disjoint).
_LEVEL_BASES = {
    "pml4": 1 << 40,
    "pdpt": 1 << 41,
    "pd": 1 << 42,
    "pt": 1 << 43,
}

ENTRY_BYTES = 8


class PageTable:
    """Synthetic 4-level page table with accessed-bit tracking."""

    def __init__(self, page_size):
        self.page_size = PageSize.validate(page_size)
        self.page_bytes = PageSize.BYTES[page_size]
        self._accessed = set()

    # -- address helpers ---------------------------------------------------
    def vpn(self, vaddr):
        """Virtual page number at this table's page size."""
        return vaddr // self.page_bytes

    def entry_address(self, level, vaddr):
        """Physical address of the page-table entry read at ``level``
        (``"pml4" | "pdpt" | "pd" | "pt"``) for ``vaddr``."""
        shift = {
            "pml4": PML4_SHIFT,
            "pdpt": PDPT_SHIFT,
            "pd": PD_SHIFT,
            "pt": PT_SHIFT,
        }[level]
        index = vaddr >> shift
        return _LEVEL_BASES[level] + index * ENTRY_BYTES

    def walk_levels(self, entry_level=None):
        """The levels a walk reads, outermost first.

        ``entry_level`` names the level *provided by* a PSC hit; the walk
        then reads strictly deeper levels. ``None`` means a full walk.
        """
        all_levels = {
            PageSize.SIZE_4K: ["pml4", "pdpt", "pd", "pt"],
            PageSize.SIZE_2M: ["pml4", "pdpt", "pd"],
            PageSize.SIZE_1G: ["pml4", "pdpt"],
        }[self.page_size]
        if entry_level is None:
            return list(all_levels)
        if entry_level not in all_levels[:-1]:
            raise ConfigurationError(
                "entry level %r invalid for %s walks" % (entry_level, self.page_size)
            )
        position = all_levels.index(entry_level)
        return all_levels[position + 1 :]

    # -- accessed bits ----------------------------------------------------
    def is_accessed(self, vpn):
        return vpn in self._accessed

    def set_accessed(self, vpn):
        self._accessed.add(vpn)


class PagingStructureCache:
    """A small fully-associative LRU cache of non-leaf entries.

    ``covers(page_size)`` says whether a hit is *useful* for walks of a
    page size: the cached entry must point strictly above the leaf.
    """

    def __init__(self, level, entries, enabled=True):
        if level not in ("pd", "pdpt", "pml4"):
            raise ConfigurationError("unknown PSC level %r" % (level,))
        if enabled and entries <= 0:
            raise ConfigurationError("enabled PSC needs a positive entry count")
        self.level = level
        self.entries = entries
        self.enabled = enabled
        self._cache = OrderedDict()

    # Index bits of the *covered region*: a PDE cache entry covers one
    # 2MB region (the page table it points to), etc.
    _REGION_SHIFT = {"pd": PD_SHIFT, "pdpt": PDPT_SHIFT, "pml4": PML4_SHIFT}

    # A cached entry at `level` is only a pointer (non-leaf) when the
    # translation's leaf lies strictly below it.
    _USEFUL_FOR = {
        "pd": (PageSize.SIZE_4K,),
        "pdpt": (PageSize.SIZE_4K, PageSize.SIZE_2M),
        "pml4": (PageSize.SIZE_4K, PageSize.SIZE_2M, PageSize.SIZE_1G),
    }

    def covers(self, page_size):
        return page_size in self._USEFUL_FOR[self.level]

    def _key(self, vaddr):
        return vaddr >> self._REGION_SHIFT[self.level]

    def lookup(self, vaddr, page_size):
        """Probe; a hit refreshes LRU. Misses for uncovered page sizes
        are unconditional (the leaf-entry subtlety above)."""
        if not self.enabled or not self.covers(page_size):
            return False
        key = self._key(vaddr)
        if key in self._cache:
            self._cache.move_to_end(key)
            return True
        return False

    def insert(self, vaddr):
        if not self.enabled:
            return
        key = self._key(vaddr)
        self._cache[key] = None
        self._cache.move_to_end(key)
        if len(self._cache) > self.entries:
            self._cache.popitem(last=False)

    def __repr__(self):
        return "PagingStructureCache(%s, %d entries, enabled=%r)" % (
            self.level,
            self.entries,
            self.enabled,
        )
