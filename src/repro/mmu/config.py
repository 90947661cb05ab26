"""MMU configuration: geometry and feature toggles."""

from repro.errors import ConfigurationError


class PageSize:
    """Symbolic page sizes with their byte widths and walk depths."""

    SIZE_4K = "4k"
    SIZE_2M = "2m"
    SIZE_1G = "1g"

    BYTES = {SIZE_4K: 4 * 1024, SIZE_2M: 2 * 1024 * 1024, SIZE_1G: 1024 * 1024 * 1024}

    # Number of page-table levels a *full* walk reads for each size:
    # 4K: PML4E, PDPTE, PDE, PTE -> 4 loads; 2M stops at the PDE (3);
    # 1G stops at the PDPTE (2).
    FULL_WALK_REFS = {SIZE_4K: 4, SIZE_2M: 3, SIZE_1G: 2}

    @classmethod
    def validate(cls, page_size):
        if page_size not in cls.BYTES:
            raise ConfigurationError("unknown page size %r" % (page_size,))
        return page_size


PAGE_SIZES = (PageSize.SIZE_4K, PageSize.SIZE_2M, PageSize.SIZE_1G)

# The MMUConfig option that switches each Table 3 feature, in table order.
FEATURE_OPTIONS = {
    "TlbPf": "prefetcher",
    "EarlyPsc": "early_psc",
    "Merging": "merging",
    "Pml4eCache": "pml4e_cache",
    "WalkBypass": "walk_replay",
}


class MMUConfig:
    """Geometry and feature set of the simulated MMU.

    The default configuration is "full Haswell" — every feature the
    paper discovered is enabled. Feature toggles exist so ablation
    experiments can generate counterfactual hardware.

    Parameters (features)
    ---------------------
    prefetcher:
        LSQ-side TLB prefetcher (Section 7.1, "Address translation
        prefetchers").
    merging:
        MSHR-based page-table-walk merging ("Page table walk merging").
    early_psc:
        Paging-structure caches probed before MSHR allocation / walk
        start (the pipelining discovery). When disabled, merged requests
        skip the PDE cache and only walk-starting requests probe it.
    pml4e_cache:
        Root-level MMU cache ("Root-level MMU cache").
    walk_replay:
        Walk replays: a speculative walk that finds the leaf accessed
        bit unset is replayed non-speculatively at retirement, so it
        completes without visible ``walk_ref`` accesses ("Page table
        walk replays" / the m-series Walk Bypass feature, Appendix C.4).
    """

    def __init__(
        self,
        # geometry
        l1_tlb_entries_4k=64,
        l1_tlb_ways_4k=4,
        l1_tlb_entries_2m=32,
        l1_tlb_ways_2m=4,
        l1_tlb_entries_1g=4,
        l1_tlb_ways_1g=4,
        stlb_entries=1024,
        stlb_ways=8,
        pde_cache_entries=32,
        pdpte_cache_entries=16,
        pml4e_cache_entries=4,
        walk_latency_ops=12,
        mshr_entries=8,
        # features
        prefetcher=True,
        merging=True,
        early_psc=True,
        pml4e_cache=True,
        walk_replay=True,
        smt_enabled=False,
        seed=0,
    ):
        values = {
            "l1_tlb_entries_4k": l1_tlb_entries_4k,
            "stlb_entries": stlb_entries,
            "pde_cache_entries": pde_cache_entries,
            "pdpte_cache_entries": pdpte_cache_entries,
            "walk_latency_ops": walk_latency_ops,
            "mshr_entries": mshr_entries,
        }
        for name, value in values.items():
            if value <= 0:
                raise ConfigurationError("%s must be positive, got %r" % (name, value))
        if pml4e_cache and pml4e_cache_entries <= 0:
            raise ConfigurationError("pml4e_cache enabled with no entries")

        self.l1_tlb_entries_4k = l1_tlb_entries_4k
        self.l1_tlb_ways_4k = l1_tlb_ways_4k
        self.l1_tlb_entries_2m = l1_tlb_entries_2m
        self.l1_tlb_ways_2m = l1_tlb_ways_2m
        self.l1_tlb_entries_1g = l1_tlb_entries_1g
        self.l1_tlb_ways_1g = l1_tlb_ways_1g
        self.stlb_entries = stlb_entries
        self.stlb_ways = stlb_ways
        self.pde_cache_entries = pde_cache_entries
        self.pdpte_cache_entries = pdpte_cache_entries
        self.pml4e_cache_entries = pml4e_cache_entries
        self.walk_latency_ops = walk_latency_ops
        self.mshr_entries = mshr_entries

        self.prefetcher = prefetcher
        self.merging = merging
        self.early_psc = early_psc
        self.pml4e_cache = pml4e_cache
        self.walk_replay = walk_replay
        # SMT triggers the HSD29/HSM30 mem_uops_retired overcount errata
        # (see repro.counters.errata); the paper's setup disables it.
        self.smt_enabled = smt_enabled
        self.seed = seed

    @classmethod
    def full_haswell(cls, **overrides):
        """The ground-truth configuration used for dataset generation."""
        return cls(**overrides)

    @classmethod
    def textbook(cls, **overrides):
        """The conventional-wisdom MMU (model m0's feature set): no
        prefetcher, no merging, late PSC probe, no root cache, no
        replays."""
        options = dict(
            prefetcher=False,
            merging=False,
            early_psc=False,
            pml4e_cache=False,
            walk_replay=False,
        )
        options.update(overrides)
        return cls(**options)

    @classmethod
    def for_features(cls, features, **overrides):
        """The MMU with exactly the Table 3 ``features`` on — the
        hardware an m-series µDD of that feature set describes. Any
        other option comes from ``overrides``."""
        features = frozenset(features)
        unknown = features - FEATURE_OPTIONS.keys()
        if unknown:
            raise ConfigurationError(
                "unknown Table 3 features %s (known: %s)"
                % (", ".join(sorted(map(repr, unknown))), ", ".join(FEATURE_OPTIONS))
            )
        options = {option: feature in features for feature, option in FEATURE_OPTIONS.items()}
        options.update(overrides)
        return cls(**options)

    def feature_set(self):
        """The Table 3 feature vector of this configuration."""
        return {feature: getattr(self, option) for feature, option in FEATURE_OPTIONS.items()}

    def __repr__(self):
        flags = ", ".join(
            "%s=%s" % (key, "on" if value else "off")
            for key, value in self.feature_set().items()
        )
        return "MMUConfig(%s)" % flags
