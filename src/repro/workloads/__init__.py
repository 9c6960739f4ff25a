"""Workload generation: key spaces, uniform and Zipfian access patterns,
the YCSB-B mix of the paper's throughput experiment, bulk loaders that
drive a store (or bare tree) into a target state, the unified request
stream the serving layer's load generator replays, drift scenarios for
the adaptive-tuning loop, and the canonical ``repro bench`` suite.
:mod:`repro.workloads.ops` holds the op vocabulary, applier and key
model they all share."""

from repro.workloads.bench import (
    BenchCase,
    default_cases,
    run_bench,
    run_case,
    write_artifact,
)
from repro.workloads.drift import (
    DriftPhase,
    delete_churn_scenario,
    grow_n_scenario,
    phase_shift_scenario,
    scenario,
    skew_shift_scenario,
    total_ops,
)
from repro.workloads.generators import (
    WORKLOAD_KINDS,
    UniformGenerator,
    ZipfianGenerator,
    churn_stream,
    denylist_stream,
    request_stream,
    ycsb,
    ycsb_b,
)
from repro.workloads.generators import zipf_over
from repro.workloads.loaders import (
    fill_tree_to_levels,
    negative_keys,
    populate_store,
    sublevel_sample_keys,
)

__all__ = [
    "BenchCase",
    "DriftPhase",
    "UniformGenerator",
    "WORKLOAD_KINDS",
    "ZipfianGenerator",
    "churn_stream",
    "denylist_stream",
    "default_cases",
    "delete_churn_scenario",
    "fill_tree_to_levels",
    "grow_n_scenario",
    "negative_keys",
    "phase_shift_scenario",
    "populate_store",
    "request_stream",
    "run_bench",
    "run_case",
    "scenario",
    "skew_shift_scenario",
    "sublevel_sample_keys",
    "total_ops",
    "write_artifact",
    "ycsb",
    "ycsb_b",
    "zipf_over",
]
