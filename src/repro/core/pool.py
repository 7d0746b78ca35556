"""The machine's processor pool as the scheduler sees it, and the
reservation ledger the wake path keeps over it."""

from __future__ import annotations

from bisect import insort
from typing import Optional


class ProcessorPool:
    """Tracks which machine processors are free versus assigned to jobs.

    The pool hands out the lowest-numbered free processors (the paper's
    cluster is homogeneous, so identity only matters for node mapping),
    and supports partial release for shrink operations.
    """

    def __init__(self, total: int):
        if total < 1:
            raise ValueError("pool must have at least one processor")
        self.total = total
        self._free: list[int] = list(range(total))  # kept sorted
        self._owner: dict[int, int] = {}  # processor -> job_id
        self._held: dict[int, set[int]] = {}  # job_id -> processors

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def busy_count(self) -> int:
        return self.total - len(self._free)

    def free_processors(self) -> list[int]:
        return list(self._free)

    def owner_of(self, processor: int) -> Optional[int]:
        return self._owner.get(processor)

    def processors_of(self, job_id: int) -> list[int]:
        return sorted(self._held.get(job_id, ()))

    def allocate(self, count: int, job_id: int) -> list[int]:
        """Take ``count`` free processors for ``job_id``."""
        if count < 0:
            raise ValueError("negative allocation")
        if count > len(self._free):
            raise RuntimeError(f"allocation of {count} processors with "
                               f"only {len(self._free)} free")
        chosen = self._free[:count]
        del self._free[:count]
        self._owner.update(dict.fromkeys(chosen, job_id))
        self._held.setdefault(job_id, set()).update(chosen)
        return chosen

    def release(self, processors: list[int], job_id: int) -> None:
        """Return specific processors held by ``job_id`` to the pool."""
        for p in processors:
            if self._owner.get(p) != job_id:
                raise RuntimeError(f"processor {p} not held by job "
                                   f"{job_id}")
            del self._owner[p]
            self._held[job_id].remove(p)
            insort(self._free, p)

    def release_all(self, job_id: int) -> list[int]:
        """Return everything ``job_id`` holds; returns what was freed."""
        held = sorted(self._held.pop(job_id, ()))
        for p in held:
            del self._owner[p]
        self._free += held
        self._free.sort()
        return held


class ReservationLedger:
    """Reservation-style bookkeeping for the scheduler's wake path.

    When the queue head cannot start, the ledger records its claim on
    the idle processors: how many of the free processors the head will
    take (``reserved``) and how many more must come free before it can
    start (``shortfall``).  Two consumers:

    * The framework's wake filter — a resource release or arrival that
      cannot possibly start anything (fewer free processors than the
      smallest queued request, and short of the head's claim) skips the
      scheduler pass entirely instead of probing the queue.
    * The expansion path — processors under the head's claim are not
      "idle" for expansion purposes (:meth:`available_for_expansion`).
      This never changes a decision — the paper only expands when the
      queue is empty, and an empty queue holds no reservation — but it
      keeps the invariant explicit instead of coincidental.

    The ledger is bookkeeping only: every decision still comes from the
    queue and pool state, so scan and indexed schedulers stay
    bit-identical (``tests/test_scheduler_indexed.py``).
    """

    def __init__(self, pool: ProcessorPool):
        self.pool = pool
        #: job_id of the blocked queue head, or None.
        self.holder: Optional[int] = None
        #: Free processors the blocked head has claimed.
        self.reserved = 0
        #: Additional processors the head needs before it can start.
        self.shortfall = 0
        #: Wake-filter statistics (reported by the engine benchmark).
        self.wakes_taken = 0
        self.wakes_skipped = 0

    def refresh(self, queue, free: int) -> int:
        """Re-derive the head's claim from current state; returns the
        shortfall (0 when the head fits or the queue is empty)."""
        head = queue.head()
        if head is None:
            self.clear()
            return 0
        need = head.requested_size
        self.holder = head.job_id
        self.reserved = min(free, need)
        self.shortfall = max(0, need - free)
        return self.shortfall

    def clear(self) -> None:
        self.holder = None
        self.reserved = 0
        self.shortfall = 0

    def available_for_expansion(self, free: int) -> int:
        """Idle processors not spoken for by the blocked head's claim."""
        if self.holder is None:
            return free
        return max(0, free - self.reserved)
