"""One filter lifecycle, every policy.

Every registered policy — and the partitioned Chucky deployment, which
has no registry name — is driven through each way a filter comes to
agree with a tree: opportunistic maintenance with a growth-triggered
rebuild, crash -> recover from the persisted blob, recover without one,
live migration from and back to the policy, and a merge-policy switch.
After each step the structural invariants hold (``check_structure``
includes the filter/tree agreement and ``check_filter_exactness``),
every stored key's sub-level is among its ``candidates``, and the step
counts exactly the storage reads and memory I/Os in ``PARENT`` —
recorded at the commit before the lifecycle moved into
:class:`~repro.filters.policy.FilterPolicy` (PR 13's tree), so the
inherited defaults are pinned to what the hand-rolled paths cost.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.policy import ChuckyPolicy
from repro.engine.config import EngineConfig, build_store, recover_store
from repro.faults.invariants import InvariantChecker
from repro.filters import policy as policy_registry
from repro.filters.policy import available_policies, register_policy
from repro.lsm.entry import KEY
from repro.tuning.actuator import migrate_filter, switch_merge_policy

PARTITIONED = "test-chucky-partitioned"
BITS = 10.0

#: policy -> step -> (storage reads, memory I/Os) at the parent commit.
PARENT: dict[str, dict[str, tuple[int, int]]] = {
    "bloom": {
        "grow": (297, 1718), "migrate_from": (0, 386),
        "migrate_to": (0, 260), "recover_blob": (66, 260),
        "recover_no_blob": (66, 260), "switch_merge": (66, 250),
    },
    "bloom-standard": {
        "grow": (297, 10292), "migrate_from": (0, 260),
        "migrate_to": (0, 1820), "recover_blob": (66, 1820),
        "recover_no_blob": (66, 1820), "switch_merge": (66, 1750),
    },
    "chucky": {
        "grow": (297, 1264), "migrate_from": (0, 260),
        "migrate_to": (0, 386), "recover_blob": (0, 83),
        "recover_no_blob": (66, 386), "switch_merge": (66, 329),
    },
    "chucky-uncompressed": {
        "grow": (297, 1285), "migrate_from": (0, 260),
        "migrate_to": (0, 378), "recover_blob": (66, 378),
        "recover_no_blob": (66, 378), "switch_merge": (66, 338),
    },
    "none": {
        "grow": (297, 289), "migrate_from": (0, 260),
        "migrate_to": (0, 0), "recover_blob": (66, 0),
        "recover_no_blob": (66, 0), "switch_merge": (66, 0),
    },
    PARTITIONED: {
        "grow": (297, 1219), "migrate_from": (0, 260),
        "migrate_to": (0, 367), "recover_blob": (66, 367),
        "recover_no_blob": (66, 367), "switch_merge": (66, 343),
    },
    "xor": {
        "grow": (297, 8863), "migrate_from": (0, 260),
        "migrate_to": (0, 1560), "recover_blob": (66, 1560),
        "recover_no_blob": (66, 1560), "switch_merge": (66, 1500),
    },
}


@pytest.fixture(autouse=True, scope="module")
def _partitioned_policy():
    register_policy(
        PARTITIONED,
        lambda m: ChuckyPolicy(bits_per_entry=m, partition_capacity=64),
        replace=True,
    )
    yield
    policy_registry._POLICY_REGISTRY.pop(PARTITIONED, None)


def _config(policy: str) -> EngineConfig:
    return EngineConfig(
        size_ratio=3, buffer_entries=8, block_entries=4,
        policy=policy, bits_per_entry=BITS, durable=True,
    )


def _cost(store, since=None) -> tuple[int, int]:
    snap = store.snapshot()
    reads, memory = snap.storage_reads, sum(snap.memory.values())
    if since is not None:
        reads, memory = reads - since[0], memory - since[1]
    return reads, memory


def _assert_consistent(store) -> None:
    violations = InvariantChecker().check_structure(store)
    assert not violations, [str(v) for v in violations]
    for entry, sublevel in store.tree.iter_entries_with_sublevels():
        assert sublevel in list(store.policy.candidates(entry[KEY])), entry[KEY]


def _loaded_store(policy: str):
    """Overwrites, deletes and enough fresh keys to grow the tree from
    one level to three — every growth defers a wholesale rebuild to
    ``after_write`` for the policies that need one."""
    store = build_store(_config(policy))
    for key in range(260):
        store.put(key * 7 % 400, f"v{key}")
        if key % 9 == 0:
            store.delete(key * 5 % 400)
    store.flush()
    assert store.tree.num_levels >= 3
    return store


def lifecycle_costs(policy: str) -> dict[str, tuple[int, int]]:
    """Run the whole lifecycle, checking consistency after every step;
    return what each step counted."""
    config = _config(policy)
    other = "bloom" if policy != "bloom" else "chucky"
    costs = {}

    store = _loaded_store(policy)
    costs["grow"] = _cost(store)
    _assert_consistent(store)

    for step, target in (("migrate_from", other), ("migrate_to", policy)):
        before = _cost(store)
        migrate_filter(store, target, BITS)
        costs[step] = _cost(store, before)
        _assert_consistent(store)

    # Recovery adopts the crashed store's storage device (and its
    # counter), so from here on only the recovered store is driven.
    state = store.crash()
    for step, crashed in (
        ("recover_blob", state),
        ("recover_no_blob", replace(state, filter_blob=None)),
    ):
        recovered = recover_store(crashed, config)
        costs[step] = _cost(recovered)
        _assert_consistent(recovered)
        assert recovered.get(7) == store.get(7)

    before = _cost(recovered)
    switch_merge_policy(
        recovered, replace(config, runs_per_level=2, runs_at_last_level=2)
    )
    costs["switch_merge"] = _cost(recovered, before)
    _assert_consistent(recovered)
    assert type(recovered.policy) is type(store.policy)
    return costs


@pytest.mark.parametrize("policy", [*available_policies(), PARTITIONED])
def test_every_step_is_consistent_and_costs_what_the_parent_did(policy):
    assert lifecycle_costs(policy) == PARENT[policy]


def test_chucky_persists_only_the_compressed_monolithic_filter():
    for policy, persists in (
        ("chucky", True), ("chucky-uncompressed", False),
        (PARTITIONED, False), ("bloom", False), ("none", False),
    ):
        blob = _loaded_store(policy).crash().filter_blob
        assert (blob is not None) == persists, policy


def test_recovery_and_merge_switch_build_the_codebook_once(monkeypatch):
    """``attach`` builds the empty filter's codebook; recovery (with or
    without a blob) and a merge-policy switch then replace that filter
    for the same geometry and reuse it — they used to build a second
    one. The bytes that come back are the parent's: the persisted blob
    itself, and (digest taken at the parent) the rebuilt filter."""
    built = []
    init = ChuckyCodebook.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChuckyCodebook, "__init__", counting_init)
    config = _config("chucky")
    state = _loaded_store("chucky").crash()

    del built[:]
    recovered = recover_store(state, config)
    assert len(built) == 1
    assert recovered.policy.persist() == state.filter_blob

    del built[:]
    recovered = recover_store(replace(state, filter_blob=None), config)
    assert len(built) == 1
    assert hashlib.sha256(recovered.policy.persist()).hexdigest() == (
        "fa6ddd4e0c63ed234d797fca7a22c70673ecba90a2d16351a92c8d14259524cd"
    )

    del built[:]
    switch_merge_policy(recovered, replace(config, runs_per_level=2))
    assert len(built) == 1
