"""Event-queue kernels: the reference binary heap and a calendar queue.

The simulation kernel totally orders scheduled events by the key
``(time, priority, seq)`` — ``seq`` is a monotone tie counter issued by
the :class:`~repro.simulate.engine.Environment`, so the key is unique
and *any* correct priority queue yields the identical pop sequence.
That is the determinism contract: swapping the queue implementation can
never reorder a simulation (guarded by ``tests/test_calendar_queue.py``).

Two implementations share one small interface (``push`` / ``pop`` /
``pop_due`` / ``peek_when`` / ``__len__``):

:class:`HeapEventQueue`
    The seed kernel's ``heapq`` — O(log n) per operation.  Kept as the
    reference for equivalence tests and the heap-vs-calendar ablation
    in ``benchmarks/test_perf_engine.py``.

:class:`CalendarEventQueue`
    A slotted calendar queue (Brown 1988, hash-mapped variant): events
    hash into buckets of ``width`` simulated seconds keyed by their
    absolute slot number, giving O(1) amortized enqueue and dequeue.
    Instead of the classic linear year scan, a small heap of active
    slot numbers finds the next non-empty bucket (cheap integer
    comparisons; empty-bucket scans never happen).  Buckets are plain
    lists kept unsorted until their slot becomes current, then sorted
    once (C timsort) and consumed from the tail.  The bucket width
    re-derives itself from the live event population whenever the mean
    occupancy drifts out of band, so the structure tracks whatever
    time-scale the simulation currently runs at.

    Small populations stay on a plain heap (``_SPILL``/``_COLLAPSE``
    hysteresis): the C heap is unbeatable below a few thousand pending
    events, and the calendar's constant factor only pays for itself
    once the heap's O(log n) comparisons dominate.  See
    ``docs/engine.md`` for the design and the resize policy.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Optional

_INF = float("inf")

#: Population at which the calendar's heap mode spills into buckets, the
#: level at which it collapses back (hysteresis), and the push-counter
#: mask between occupancy checks (power of two - 1).  Module constants
#: so the hot paths read them as fast globals; the class re-exports them.
_SPILL = 4096
_COLLAPSE = 1024
_CHECK_MASK = 4095

#: Entry tuples are packed records ``(when, priority, seq, handler_id,
#: arg)``, compared left-to-right.  ``seq`` is unique (the Environment's
#: monotone tie counter), so comparisons never reach the handler id or
#: the argument — the queue stores them opaquely and pop order is fully
#: determined by the ``(when, priority, seq)`` key, exactly as it was
#: for the seed kernel's ``(when, priority, seq, event)`` entries.
Entry = tuple  # (float, int, int, int, Any)


class HeapEventQueue:
    """The seed kernel's binary heap, behind the queue interface."""

    __slots__ = ("_heap",)

    kind = "heap"

    def __init__(self) -> None:
        self._heap: list[Entry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: float, priority: int, seq: int,
             handler_id: int, arg: Any) -> None:
        heappush(self._heap, (when, priority, seq, handler_id, arg))

    def pop(self) -> Entry:
        return heappop(self._heap)

    def pop_due(self, deadline: float) -> Optional[Entry]:
        """Pop the next entry if its time is <= ``deadline``, else None."""
        heap = self._heap
        if heap and heap[0][0] <= deadline:
            return heappop(heap)
        return None

    def peek_when(self) -> float:
        heap = self._heap
        return heap[0][0] if heap else _INF


class CalendarEventQueue:
    """Slotted calendar queue with heap fallback for small populations.

    Events land in the bucket ``int(when / width)`` (the *absolute*
    slot — buckets live in a dict, so there is no modulo wrap and no
    collision between years).  A heap of active slot numbers yields the
    next non-empty bucket; within a bucket the full ``(when, priority,
    seq)`` key orders entries, so pops are bit-identical to the
    reference heap's.

    Buckets stay append-only until their slot becomes the current one;
    the first pop from a slot sorts the bucket descending and further
    pops take O(1) from the tail of the cached current bucket, without
    touching the slot heap or the dict.  A push *into* the current slot
    (a zero-delay cascade), or into a new slot ahead of it, just
    invalidates that cache — timsort re-sorts the nearly-sorted bucket
    in close to linear time.

    Buckets are wide (~64 events): at large populations every bucket,
    dict entry and slot-heap key is a cache miss, so fewer, fuller
    buckets beat narrow ones even though each sort compares more.
    """

    __slots__ = ("_heap", "_slots", "_slot_heap", "_inv", "_cur", "_curb",
                 "_size", "_pushes", "_calendar", "resizes", "spills")

    kind = "calendar"

    _SPILL = _SPILL
    _COLLAPSE = _COLLAPSE
    _CHECK_MASK = _CHECK_MASK
    #: Events per bucket the resize aims for, and the occupancy band
    #: outside which a resize triggers.  The 8x upper band lets a
    #: growing population re-bucket only every 8x growth.
    _TARGET = 64.0
    _MIN_OCC = 16.0
    _MAX_OCC = 512.0

    def __init__(self) -> None:
        self._heap: list[Entry] = []          # heap mode storage
        self._slots: dict[int, list[Entry]] = {}
        self._slot_heap: list[int] = []       # active slot numbers
        self._inv = 1.0                       # 1 / bucket width
        self._cur: Optional[int] = None       # slot whose bucket is sorted
        self._curb: Optional[list] = None     # that bucket, if _cur is set
        self._size = 0
        self._pushes = 0
        self._calendar = False
        #: Diagnostics for the benchmark/doc: width recomputations and
        #: heap<->calendar transitions taken.
        self.resizes = 0
        self.spills = 0

    def __len__(self) -> int:
        return self._size

    # -- scheduling --------------------------------------------------------
    def push(self, when: float, priority: int, seq: int,
             handler_id: int, arg: Any) -> None:
        self._size += 1
        if not self._calendar:
            heappush(self._heap, (when, priority, seq, handler_id, arg))
            if self._size > _SPILL:
                self._spill()
            return
        slot = int(when * self._inv) if when < _INF else _INF
        bucket = self._slots.get(slot)
        if bucket is None:
            self._slots[slot] = [(when, priority, seq, handler_id, arg)]
            heappush(self._slot_heap, slot)
            cur = self._cur
            if cur is not None and slot < cur:
                self._cur = None
        else:
            bucket.append((when, priority, seq, handler_id, arg))
            if slot == self._cur:
                self._cur = None
        self._pushes += 1
        if not (self._pushes & _CHECK_MASK):
            self._maybe_resize()

    # -- dequeueing --------------------------------------------------------
    def pop(self) -> Entry:
        if not self._calendar:
            entry = heappop(self._heap)
            self._size -= 1
            return entry
        if self._cur is None:
            self._sort_head()
        bucket = self._curb
        entry = bucket.pop()
        if not bucket:
            self._retire_head()
        self._size -= 1
        if self._size < _COLLAPSE:
            self._collapse()
        return entry

    def pop_due(self, deadline: float) -> Optional[Entry]:
        """Pop the next entry if its time is <= ``deadline``, else None."""
        if not self._calendar:
            heap = self._heap
            if heap and heap[0][0] <= deadline:
                self._size -= 1
                return heappop(heap)
            return None
        if self._cur is None:
            slot = self._slot_heap[0]
            if slot is not _INF and slot > 0 and slot > deadline * self._inv:
                # Every entry in a positive slot s has time >= s * width,
                # so s > deadline/width means nothing there is due yet.
                return None
            self._sort_head()
        bucket = self._curb
        if bucket[-1][0] > deadline:
            return None
        entry = bucket.pop()
        if not bucket:
            self._retire_head()
        self._size -= 1
        if self._size < _COLLAPSE:
            self._collapse()
        return entry

    def _sort_head(self) -> None:
        """Make the earliest active slot current: sort its bucket
        descending so pops take O(1) from the tail."""
        slot = self._slot_heap[0]
        self._curb = bucket = self._slots[slot]
        bucket.sort()
        bucket.reverse()
        self._cur = slot

    def _retire_head(self) -> None:
        """Drop the current slot once its bucket has drained."""
        del self._slots[self._cur]
        heappop(self._slot_heap)
        self._cur = None
        self._curb = None

    def peek_when(self) -> float:
        if not self._calendar:
            heap = self._heap
            return heap[0][0] if heap else _INF
        if self._cur is None:
            self._sort_head()
        return self._curb[-1][0]

    # -- mode transitions --------------------------------------------------
    def _spill(self) -> None:
        """Heap -> calendar: bucket the population at a derived width."""
        entries = self._heap
        self._heap = []
        self._calendar = True
        self.spills += 1
        self._rebuild(entries)

    def _collapse(self) -> None:
        """Calendar -> heap: small populations run faster on the C heap."""
        entries = [e for b in self._slots.values() for e in b]
        self._slots.clear()
        self._slot_heap.clear()
        self._cur = None
        self._curb = None
        self._calendar = False
        self.spills += 1
        heapify(entries)
        self._heap = entries

    # -- self-resizing bucket width ---------------------------------------
    def _maybe_resize(self) -> None:
        nslots = len(self._slots)
        occupancy = self._size / nslots if nslots else self._TARGET
        if self._MIN_OCC <= occupancy <= self._MAX_OCC:
            return
        entries = [e for b in self._slots.values() for e in b]
        self._slots.clear()
        self._slot_heap.clear()
        self._rebuild(entries)

    def _rebuild(self, entries: list[Entry]) -> None:
        """Re-bucket ``entries`` at a width targeting ``_TARGET`` events
        per bucket over the population's current time span."""
        whens = [entry[0] for entry in entries]
        finite_lo = min(whens, default=_INF)
        top = max(whens, default=-_INF)
        finite_hi = top if top < _INF else \
            max((w for w in whens if w < _INF), default=-_INF)
        span = finite_hi - finite_lo
        if span > 0:
            width = span / max(1.0, len(entries) / self._TARGET)
            extreme = max(abs(finite_lo), abs(finite_hi))
            if width > 0 and extreme / width < 2.0 ** 53:
                # Slots must stay exactly representable; an extreme
                # span/width ratio keeps the previous width instead.
                self._inv = 1.0 / width
        self.resizes += 1
        inv = self._inv
        if top < _INF:
            keys = [int(w * inv) for w in whens]
        else:
            keys = [int(w * inv) if w < _INF else _INF for w in whens]
        slots = self._slots
        get = slots.get
        for slot, entry in zip(keys, entries):
            bucket = get(slot)
            if bucket is None:
                slots[slot] = [entry]
            else:
                bucket.append(entry)
        slot_heap = list(slots)
        heapify(slot_heap)
        self._slot_heap = slot_heap
        self._cur = None
        self._curb = None


def make_event_queue(kernel: str):
    """Factory: ``"calendar"`` (default kernel) or ``"heap"`` (reference)."""
    if kernel == "calendar":
        return CalendarEventQueue()
    if kernel == "heap":
        return HeapEventQueue()
    raise ValueError(f"unknown event-queue kernel {kernel!r}")
