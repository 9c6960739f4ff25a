"""Spans around the calls into each layer, recorded from the outside.

The recorder replaces public methods of the layers' classes with timing
wrappers (class attributes, so stores built or recovered later are
covered too) and puts them back on request. A span is
``(name, start_ns, end_ns, parent, op_id)``; totals are kept per phase
and per name as ``[count, total_ns, self_ns]`` where self time is the
span minus the part its child spans cover (a boundary that is only
counted has zero times). Aggregates cover every span;
the raw list written to ``out/trace-<workload>.json`` keeps the first
``RAW_CAP`` of them.

Two boundaries get cheaper treatment because they are crossed several
times per operation from inside an already timed span: filter
``insert``/``update_lid``/``remove`` are counted, not timed, and bucket
codec and hashing calls are not wrapped at all (``replays.py`` times
those in isolation on inputs taken from the run).
"""

from __future__ import annotations

from array import array
from collections import defaultdict

from harness import now

RAW_CAP = 50_000


def _targets():
    """(class, method, span name, observer) for every timed boundary and
    (class, method, name) for every counted one. An observer is the name
    of a recorder method called with the call's arguments and result."""
    from repro.chucky.filter import ChuckyFilter
    from repro.chucky.policy import ChuckyPolicy
    from repro.engine.kvstore import KVStore
    from repro.lsm.block_cache import BlockCache
    from repro.lsm.memtable import Memtable
    from repro.lsm.run import Run
    from repro.lsm.storage import StorageDevice
    from repro.lsm.tree import LSMTree
    from repro.lsm.wal import WriteAheadLog

    timed = [
        (KVStore, "get", "engine.kvstore.get", None),
        (KVStore, "get_batch", "engine.kvstore.get_batch", None),
        (KVStore, "put", "engine.kvstore.put", None),
        (KVStore, "delete", "engine.kvstore.delete", None),
        (KVStore, "put_batch", "engine.kvstore.put_batch", None),
        (KVStore, "flush", "engine.kvstore.flush", None),
        (Memtable, "get", "lsm.memtable.get", None),
        (Memtable, "put", "lsm.memtable.put", None),
        (LSMTree, "occupied_runs", "lsm.tree.occupied_runs", None),
        (LSMTree, "flush", "lsm.tree.flush", None),
        (Run, "get", "lsm.run.get", "_on_run_get"),
        (BlockCache, "get", "lsm.block_cache.get", None),
        (StorageDevice, "read_block", "lsm.storage.read_block", None),
        (StorageDevice, "write_run", "lsm.storage.write_run", None),
        (WriteAheadLog, "append_put", "lsm.wal.append", None),
        (WriteAheadLog, "append_delete", "lsm.wal.append", None),
        (WriteAheadLog, "append_batch", "lsm.wal.append", None),
        # ``policy.candidates`` is a generator, so a wrapper around it
        # would time its creation only; the probe itself is the filter's
        # ``query`` / ``query_many``.
        (ChuckyFilter, "query", "chucky.filter.query", None),
        (ChuckyFilter, "query_many", "chucky.filter.query_many", "_on_query_many"),
        # The policy's entry in ``tree.listeners``, and the rebuild that
        # follows a write that grew the tree.
        (ChuckyPolicy, "handle_event", "chucky.policy.handle_event", "_on_event"),
        (ChuckyPolicy, "after_write", "chucky.policy.after_write", None),
    ]
    counted = [
        (ChuckyFilter, "insert", "chucky.filter.insert"),
        (ChuckyFilter, "update_lid", "chucky.filter.update_lid"),
        (ChuckyFilter, "remove", "chucky.filter.remove"),
        (ChuckyPolicy, "rebuild_from_tree", "chucky.policy.rebuild_from_tree"),
    ]
    return timed, counted


#: Span-name prefix -> layer, for the wall budget.
LAYERS = ("chucky", "lsm", "engine")


class SpanRecorder:
    def __init__(self) -> None:
        self.tracing = False
        self.op_id = 0
        #: phase -> name -> [count, total_ns, self_ns]
        self.stats: dict[str, dict[str, list[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0, 0])
        )
        self._current = self.stats["setup"]
        self.durations: dict[str, array] = defaultdict(lambda: array("q"))
        self.raw: list[tuple] = []
        self.spans_total = 0
        self._stack: list[list[int]] = []
        self._patches: list[tuple[type, str, object, object]] = []
        self._build_patches()

    # -- switching -------------------------------------------------------

    def begin_phase(self, phase: str) -> None:
        self._current = self.stats[phase]

    def set_tracing(self, on: bool) -> None:
        """Install or remove every wrapper. A policy subscribed while the
        wrappers were installed keeps its wrapped listener, so wrappers
        also check the flag themselves."""
        if on == self.tracing:
            return
        self.tracing = on
        for cls, attr, original, wrapper in self._patches:
            setattr(cls, attr, wrapper if on else original)

    # -- wrappers --------------------------------------------------------

    def _build_patches(self) -> None:
        timed, counted = _targets()
        for cls, attr, name, observer in timed:
            observe = getattr(self, observer) if observer else None
            self._patch(cls, attr, lambda fn, n=name, o=observe: self._span(n, fn, o))
        for cls, attr, name in counted:
            self._patch(cls, attr, lambda fn, n=name: self._count(n, fn))

    def _patch(self, cls, attr, make_wrapper) -> None:
        # Patch the class that defines the method (the filter's public
        # methods live on its base class).
        owner = next(k for k in cls.__mro__ if attr in k.__dict__)
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original, make_wrapper(original)))

    def _span(self, name, fn, observe=None):
        rec = self
        stack = self._stack
        durations = self.durations[name]
        raw = self.raw

        def wrapper(*args, **kwargs):
            if not rec.tracing:
                return fn(*args, **kwargs)
            seq = rec.spans_total
            rec.spans_total = seq + 1
            if stack:
                parent = stack[-1][1]
            else:
                parent = -1
                rec.op_id += 1  # a root span is one operation
            frame = [0, seq]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spent = t1 - t0
                if stack:
                    stack[-1][0] += spent
                entry = rec._current[name]
                entry[0] += 1
                entry[1] += spent
                entry[2] += spent - frame[0]
                durations.append(spent)
                if seq < RAW_CAP:
                    raw.append((name, t0, t1, parent, rec.op_id, seq))
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count(self, name, fn):
        rec = self

        def wrapper(*args, **kwargs):
            if rec.tracing:
                rec._current[name][0] += 1
            return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _on_run_get(self, _args, result) -> None:
        if result is not None:
            self._current["lsm.run.get.found"][0] += 1

    def _on_query_many(self, _args, result) -> None:
        self._current["chucky.filter.query_many.keys"][0] += len(result)

    def _on_event(self, args, _result) -> None:
        survivors = getattr(args[1], "survivors", None)
        if survivors is not None:
            self._current["lsm.tree.merges"][0] += 1
            self._current["lsm.tree.entries_rewritten"][0] += len(survivors)

    # -- reading ---------------------------------------------------------

    def scope(self, name: str) -> tuple[str, ...]:
        """The phases a metric about ``name`` is read from: the timed
        phase when the boundary was crossed there, else every phase (a
        lookup workload writes only while setting up; ingest reads only
        in its post-recovery re-read)."""
        if self.stats["timed"].get(name, (0,))[0]:
            return ("timed",)
        return tuple(self.stats)

    def count(self, name: str, phases=None) -> int:
        return self._sum(name, 0, phases)

    def total_ns(self, name: str, phases=None) -> int:
        return self._sum(name, 1, phases)

    def self_ns(self, name: str, phases=None) -> int:
        return self._sum(name, 2, phases)

    def _sum(self, name: str, field: int, phases) -> int:
        phases = tuple(self.stats) if phases is None else phases
        return sum(
            self.stats[p][name][field] for p in phases if name in self.stats[p]
        )

    def mean_us(self, name: str, phases=None) -> float:
        """Mean span duration in µs; 0.0 for a boundary never crossed."""
        count = self.count(name, phases)
        return self.total_ns(name, phases) / count / 1e3 if count else 0.0

    def self_mean_us(self, name: str, phases=None) -> float:
        count = self.count(name, phases)
        return self.self_ns(name, phases) / count / 1e3 if count else 0.0

    def layer_self_ns(self, phase: str) -> dict[str, int]:
        """Self time per layer over one phase."""
        out = {layer: 0 for layer in LAYERS}
        for name, (_count, _total, self_ns) in self.stats[phase].items():
            out[name.split(".", 1)[0]] += self_ns
        return out

    def as_dict(self) -> dict:
        return {
            "spans_total": self.spans_total,
            "spans_written": len(self.raw),
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id", "id"],
            "phases": {
                phase: {
                    name: {"count": c, "total_ns": t, "self_ns": s}
                    for name, (c, t, s) in sorted(names.items())
                }
                for phase, names in self.stats.items()
            },
            "spans": self.raw,
        }
