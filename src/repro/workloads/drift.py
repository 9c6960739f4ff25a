"""Drift scenarios: workloads whose best configuration changes mid-run.

These are the test beds for the adaptive-tuning loop
(:mod:`repro.tuning`). Each scenario is a deterministic list of
:class:`DriftPhase`\\ s — plain op tuples, so tests and the CLI can
snapshot counted I/Os at phase boundaries and compare adaptive against
static configurations run over the *same* ops.

* :func:`grow_n_scenario` — the paper's own motivation (Eq 2 vs Eq 16):
  data grows level by level, so uniform Bloom filters degrade linearly
  in L while Chucky's FPR stays put; the best static choice flips at
  the crossover (~L=3 at 10 bits/entry, T=3).
* :func:`phase_shift_scenario` — the read/write mix flips between
  phases (exercises memtable resizing and merge-policy planning).
* :func:`skew_shift_scenario` — access skew jumps from uniform to
  Zipfian (exercises the sensor's cache statistics).
* :func:`delete_churn_scenario` — sustained delete/re-insert churn over
  a bounded key set with reads landing on both live and deleted keys
  (deletes count in the sensed write mix; reads of deleted keys are
  negatives).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.generators import zipf_over

#: Negative lookups draw from far above any inserted key.
NEGATIVE_BASE = 1 << 40

#: One operation: ("put", key, value) | ("get", key) | ("delete", key)
#: | ("scan", lo, hi).
Op = tuple


@dataclass(frozen=True)
class DriftPhase:
    """One named phase of a drift scenario."""

    name: str
    ops: tuple[Op, ...]


def apply_ops(store, ops: tuple[Op, ...], poll=None) -> dict[str, int]:
    """Replay a phase's ops against a store; returns op counts. ``poll``
    (e.g. :meth:`repro.tuning.TuningController.poll`) is called after
    every op."""
    counts = {"put": 0, "get": 0, "delete": 0, "scan": 0}
    for op in ops:
        kind = op[0]
        if kind == "put":
            store.put(op[1], op[2])
        elif kind == "get":
            store.get(op[1])
        elif kind == "delete":
            store.delete(op[1])
        elif kind == "scan":
            for _ in store.scan(op[1], op[2]):
                pass
        else:
            raise ValueError(f"unknown drift op {kind!r}")
        counts[kind] += 1
        if poll is not None:
            poll()
    return counts


def scenario(name: str, **kwargs) -> list[DriftPhase]:
    """Build a named scenario (CLI entry point)."""
    factories = {
        "grow-n": grow_n_scenario,
        "phase-shift": phase_shift_scenario,
        "skew-shift": skew_shift_scenario,
        "delete-churn": delete_churn_scenario,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(
            f"unknown drift scenario {name!r}; want "
            f"{'|'.join(sorted(factories))}"
        ) from None
    return factory(**kwargs)


def grow_n_scenario(
    load_phases: int = 5,
    keys_per_phase: int = 400,
    reads_per_phase: int = 1500,
    negative_fraction: float = 1.0,
    seed: int = 0,
) -> list[DriftPhase]:
    """Alternating load and negative-read phases over a growing dataset.

    Each load phase inserts ``keys_per_phase`` fresh sequential *even*
    keys (the tree gains levels as N grows); each read phase issues
    point lookups, ``negative_fraction`` of them to odd keys inside the
    inserted range — never written, but inside every run's fence-pointer
    range, so a filter false positive costs a real storage read. This is
    the regime where the filter's FPR *is* the read cost.
    """
    rng = random.Random(seed)
    phases: list[DriftPhase] = []
    inserted = 0
    for index in range(load_phases):
        load = tuple(
            ("put", 2 * key, f"v{2 * key}")
            for key in range(inserted, inserted + keys_per_phase)
        )
        inserted += keys_per_phase
        phases.append(DriftPhase(name=f"load{index}", ops=load))
        reads: list[Op] = []
        for _ in range(reads_per_phase):
            if rng.random() < negative_fraction:
                reads.append(("get", 2 * rng.randrange(inserted) + 1))
            else:
                reads.append(("get", 2 * rng.randrange(inserted)))
        phases.append(DriftPhase(name=f"read{index}", ops=tuple(reads)))
    return phases


def phase_shift_scenario(
    population: int = 600,
    phase_ops: int = 1200,
    seed: int = 0,
) -> list[DriftPhase]:
    """Preload, then flip the read/write mix: read-heavy → write-heavy
    → read-heavy, uniform keys throughout."""
    rng = random.Random(seed ^ 0x7E5)
    preload = tuple(("put", key, f"v{key}") for key in range(population))
    phases = [DriftPhase(name="preload", ops=preload)]
    for index, read_fraction in enumerate((0.9, 0.1, 0.9)):
        ops: list[Op] = []
        for _ in range(phase_ops):
            key = rng.randrange(population)
            if rng.random() < read_fraction:
                ops.append(("get", key))
            else:
                ops.append(("put", key, f"u{key}"))
        kind = "read" if read_fraction >= 0.5 else "write"
        phases.append(DriftPhase(name=f"{kind}{index}", ops=tuple(ops)))
    return phases


def skew_shift_scenario(
    population: int = 600,
    phase_ops: int = 1200,
    theta: float = 0.99,
    seed: int = 0,
) -> list[DriftPhase]:
    """Preload, then shift read skew: uniform → Zipfian(theta)."""
    rng = random.Random(seed ^ 0x5EE)
    preload = tuple(("put", key, f"v{key}") for key in range(population))
    uniform = tuple(
        ("get", rng.randrange(population)) for _ in range(phase_ops)
    )
    stream = zipf_over(list(range(population)), theta=theta, seed=seed)
    skewed = tuple(("get", next(stream)) for _ in range(phase_ops))
    return [
        DriftPhase(name="preload", ops=preload),
        DriftPhase(name="uniform", ops=uniform),
        DriftPhase(name="skewed", ops=skewed),
    ]


def delete_churn_scenario(
    population: int = 600,
    phase_ops: int = 1200,
    cycles: int = 3,
    read_fraction: float = 0.3,
    seed: int = 0,
) -> list[DriftPhase]:
    """Preload, then sustained delete/re-insert churn over a bounded set.

    Each churn phase mixes reads with roughly equal deletes and
    re-inserts, keeping the live set bounded while every key cycles
    through dead and alive states. Half the reads deliberately target
    currently-deleted keys — true negatives a filter must answer, the
    regime where stale fingerprints (a filter that missed its deletes)
    turn directly into wasted storage reads. Deletes enter the sensed
    mix as writes (tombstone appends).
    """
    rng = random.Random(seed ^ 0xD317)
    preload = tuple(("put", key, f"v{key}") for key in range(population))
    phases = [DriftPhase(name="preload", ops=preload)]
    live = list(range(population))
    dead: list[int] = []
    for index in range(cycles):
        ops: list[Op] = []
        for _ in range(phase_ops):
            roll = rng.random()
            if roll < read_fraction and (live or dead):
                if dead and (not live or rng.random() < 0.5):
                    ops.append(("get", dead[rng.randrange(len(dead))]))
                else:
                    ops.append(("get", live[rng.randrange(len(live))]))
            elif live and (not dead or rng.random() < 0.5):
                pick = rng.randrange(len(live))
                live[pick], live[-1] = live[-1], live[pick]
                key = live.pop()
                dead.append(key)
                ops.append(("delete", key))
            elif dead:
                pick = rng.randrange(len(dead))
                dead[pick], dead[-1] = dead[-1], dead[pick]
                key = dead.pop()
                live.append(key)
                ops.append(("put", key, f"r{key}"))
            else:  # pragma: no cover - both pools can't be empty
                ops.append(("get", rng.randrange(population)))
        phases.append(DriftPhase(name=f"churn{index}", ops=tuple(ops)))
    return phases


def total_ops(phases: list[DriftPhase]) -> int:
    return sum(len(phase.ops) for phase in phases)

