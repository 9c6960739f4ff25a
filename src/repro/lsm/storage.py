"""Simulated block storage device.

Stands in for the paper's Intel Optane SSD (see DESIGN.md section 2).
Runs are stored as lists of immutable blocks; every block read or write
is counted by a :class:`StorageIOCounter`, and the cost model prices the
counts into modelled latency. Contents live in RAM, but nothing outside
this module may touch them without paying a counted I/O.

The device carries an optional fault hook (``faults``, installed by the
fault-injection harness — see :mod:`repro.faults`). When present, every
I/O first consults the hook, absorbing :class:`TransientIOError` with
bounded retry-with-backoff, and ``write_run`` may persist only a prefix
of its blocks before an injected crash (a torn multi-block run write).
With no hook installed the extra cost is one ``is None`` check per
operation and counted I/Os are bit-identical to an uninstrumented
device.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.common.counters import StorageIOCounter
from repro.common.errors import InjectedCrash, TransientIOError
from repro.lsm.entry import Entry

#: A storage block: an immutable, key-sorted tuple of entries.
Block = tuple[Entry, ...]

#: Attempts per I/O before a transient fault escalates to the caller.
MAX_IO_ATTEMPTS = 4


class StorageDevice:
    """Block store with read/write accounting.

    Run IDs are allocated by the device and never reused, so stale cache
    entries can never alias a new run.
    """

    def __init__(self, counter: StorageIOCounter | None = None) -> None:
        self._runs: dict[int, list[Block]] = {}
        self._next_id = 1
        self.counter = counter if counter is not None else StorageIOCounter()
        #: Optional fault hook (a :class:`repro.faults.FaultInjector`).
        self.faults = None
        #: Transient I/O errors absorbed by retry since construction.
        self.io_retries = 0

    def _guarded(self, op: str) -> None:
        """Consult the fault hook, retrying transient errors.

        Bounded retry-with-backoff: up to :data:`MAX_IO_ATTEMPTS` tries,
        the hook's ``on_backoff`` charging the (modelled) wait between
        them. A fault that persists past the budget escapes as
        :class:`TransientIOError`; an injected crash propagates.
        """
        faults = self.faults
        if faults is None:
            return
        last: TransientIOError | None = None
        for attempt in range(MAX_IO_ATTEMPTS):
            try:
                faults.on_io(op, attempt)
                return
            except TransientIOError as exc:
                last = exc
                self.io_retries += 1
                faults.on_backoff(op, attempt)
        raise TransientIOError(
            f"{op}: fault persisted past {MAX_IO_ATTEMPTS} attempts ({last})"
        )

    def write_run(self, blocks: list[Block]) -> int:
        """Persist a new run; counts one write I/O per block. Returns the
        run id."""
        run_id = self._next_id
        self._next_id += 1
        if self.faults is not None:
            self._guarded("write_run")
            keep = self.faults.partial_write(run_id, len(blocks))
            if keep is not None and keep < len(blocks):
                # Crash mid-run-write: a prefix of the blocks reached
                # the device; no manifest will ever reference this run.
                self._runs[run_id] = list(blocks[:keep])
                self.counter.write(keep)
                raise InjectedCrash(
                    f"partial run write: {keep}/{len(blocks)} blocks of "
                    f"run {run_id}"
                )
        self._runs[run_id] = list(blocks)
        self.counter.write(len(blocks))
        return run_id

    def read_block(self, run_id: int, index: int) -> Block:
        """Fetch one block; counts one read I/O."""
        blocks = self._runs.get(run_id)
        if blocks is None:
            raise KeyError(f"run {run_id} does not exist")
        if not 0 <= index < len(blocks):
            raise IndexError(f"block {index} out of range for run {run_id}")
        if self.faults is not None:
            self._guarded("read_block")
        self.counter.reads += 1
        return blocks[index]

    def read_run(self, run_id: int) -> list[Block]:
        """Fetch an entire run (used by compaction); counts one read I/O
        per block."""
        blocks = self._runs.get(run_id)
        if blocks is None:
            raise KeyError(f"run {run_id} does not exist")
        if self.faults is not None:
            self._guarded("read_run")
        self.counter.read(len(blocks))
        return list(blocks)

    def delete_run(self, run_id: int) -> None:
        """Reclaim a run's space (free, like an SSD trim)."""
        self._runs.pop(run_id, None)

    def has_run(self, run_id: int) -> bool:
        """Whether the device still holds ``run_id`` (invariant checks)."""
        return run_id in self._runs

    def run_ids(self) -> list[int]:
        """Every run currently on the device (orphan detection/GC)."""
        return list(self._runs)

    def num_blocks(self, run_id: int) -> int:
        return len(self._runs[run_id])

    @contextmanager
    def counting_suspended(self):
        """Temporarily stop counting I/Os.

        Used for reads the paper's design gets for free — e.g. the filter
        rebuild that piggybacks on a major compaction (section 4.5,
        Sizing & Resizing), whose data the compaction already has in
        flight. See DESIGN.md section 2.
        """
        saved = self.counter
        self.counter = StorageIOCounter()
        try:
            yield
        finally:
            self.counter = saved

    @property
    def total_blocks(self) -> int:
        return sum(len(b) for b in self._runs.values())
