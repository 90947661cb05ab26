"""LRU set-associative caches and a three-level hierarchy."""

from collections import OrderedDict

from repro.errors import ConfigurationError

MEMORY_LEVEL = "mem"


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Addresses are byte addresses; lines are ``line_size`` bytes. The
    cache tracks tags only (no data), which is all the simulator needs.
    """

    def __init__(self, total_bytes, ways, line_size=64, name="cache"):
        if total_bytes <= 0 or ways <= 0 or line_size <= 0:
            raise ConfigurationError("cache geometry must be positive")
        lines = total_bytes // line_size
        if lines % ways != 0 or lines == 0:
            raise ConfigurationError(
                "cache of %d lines cannot be %d-way set associative" % (lines, ways)
            )
        self.name = name
        self.line_size = line_size
        self.ways = ways
        self.n_sets = lines // ways
        # set index -> OrderedDict of tag -> None (LRU order: oldest first)
        self._sets = [OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, address):
        line = address // self.line_size
        return line % self.n_sets, line // self.n_sets

    def lookup(self, address):
        """Probe without modifying replacement state or inserting."""
        index, tag = self._locate(address)
        return tag in self._sets[index]

    def access(self, address):
        """Access a byte address; returns True on hit. Misses insert the
        line, evicting LRU if needed."""
        # _locate, inlined: every page-walker load accesses up to three
        # levels.
        line = address // self.line_size
        n_sets = self.n_sets
        cache_set = self._sets[line % n_sets]
        tag = line // n_sets
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        cache_set[tag] = None
        if len(cache_set) > self.ways:
            cache_set.popitem(last=False)
        return False

    def invalidate(self, address):
        index, tag = self._locate(address)
        self._sets[index].pop(tag, None)

    def reset_stats(self):
        self.hits = 0
        self.misses = 0

    def __repr__(self):
        return "SetAssociativeCache(%s: %d sets x %d ways)" % (
            self.name,
            self.n_sets,
            self.ways,
        )


class CacheHierarchy:
    """An inclusive L1/L2/L3 hierarchy for page-walker loads.

    :meth:`access` returns ``"l1"``, ``"l2"``, ``"l3"`` or ``"mem"`` —
    the level that served the request — and fills all levels above the
    hit level (inclusive fill).
    """

    LEVELS = ("l1", "l2", "l3")
    # Every level that can serve an access, nearest first: the order of
    # the walk_ref counters and of the levels in a RefMix label.
    SERVING_LEVELS = LEVELS + (MEMORY_LEVEL,)

    def __init__(self, l1=None, l2=None, l3=None):
        self.l1 = l1 or SetAssociativeCache(32 * 1024, 8, name="L1D")
        self.l2 = l2 or SetAssociativeCache(256 * 1024, 8, name="L2")
        self.l3 = l3 or SetAssociativeCache(2 * 1024 * 1024, 16, name="L3")

    def access(self, address):
        """Access a byte address; returns the serving level name."""
        if self.l1.access(address):
            return "l1"
        # l1.access already filled L1 on miss; probe lower levels.
        if self.l2.access(address):
            return "l2"
        if self.l3.access(address):
            return "l3"
        return MEMORY_LEVEL

    def warm(self, addresses):
        """Pre-touch addresses (e.g. to model warmed page-table lines)."""
        for address in addresses:
            self.access(address)

    def __repr__(self):
        return "CacheHierarchy(L1=%r, L2=%r, L3=%r)" % (self.l1, self.l2, self.l3)
