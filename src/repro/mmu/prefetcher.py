"""The LSQ-side TLB prefetcher (Section 7.1 discovery).

The paper establishes that Haswell's MMU watches virtual page numbers in
the load/store queue — *before* any TLB lookup — and triggers a
translation prefetch when consecutive **load** accesses are predicted to
cross a page boundary:

* ascending addresses: consecutive accesses to cache lines 51 then 52 of
  the final 4 KB frame of a page trigger a prefetch for the next page;
* descending addresses: lines 8 then 7 of the first frame trigger a
  prefetch for the previous page;
* no other line pairs trigger.

The prefetch is resolved by the page-table walker (injecting real walker
loads) and aborts when the target PTE's accessed bit is unset.
:class:`PrefetchTrigger` detects trigger conditions; the walker-side
consequences live in :mod:`repro.mmu.core`.
"""

LINE_BYTES = 64
FRAME_BYTES = 4096
LINES_PER_FRAME = FRAME_BYTES // LINE_BYTES

ASCENDING_TRIGGER = (51, 52)
DESCENDING_TRIGGER = (8, 7)


class PrefetchTrigger:
    """Detects the load/store-queue trigger condition.

    ``observe(vaddr, page_bytes)`` is called for every *load* in program
    order and returns the virtual page number to prefetch (at the
    workload's page size), or ``None``.
    """

    def __init__(self):
        self._last_frame = None
        self._last_line = None
        self._last_triggered_target = None

    def observe(self, vaddr, page_bytes):
        frame = vaddr // FRAME_BYTES
        line = (vaddr % FRAME_BYTES) // LINE_BYTES
        previous_frame, previous_line = self._last_frame, self._last_line
        self._last_frame, self._last_line = frame, line

        if previous_frame != frame or previous_line is None:
            return None

        page = vaddr // page_bytes
        frames_per_page = page_bytes // FRAME_BYTES

        if (previous_line, line) == ASCENDING_TRIGGER:
            # Only the *last* frame of the page predicts a page crossing.
            if frame % frames_per_page != frames_per_page - 1:
                return None
            target = page + 1
        elif (previous_line, line) == DESCENDING_TRIGGER:
            if frame % frames_per_page != 0:
                return None
            target = page - 1
            if target < 0:
                return None
        else:
            return None

        if target == self._last_triggered_target:
            return None  # one prefetch per crossing prediction
        self._last_triggered_target = target
        return target
