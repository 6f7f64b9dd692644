"""Alignment partition, feasibility verdicts, and the two rate constructions.

The verdicts, edges included, are checked against the all-pairs loops of
``tests/reference_alignment.py``.
"""

import random
import tracemalloc
from collections import Counter

import pytest

from icx.alignment import (
    build_rate_half_vector_scheme,
    build_scalar_scheme,
    check_feasibility,
    edges,
    partition,
)
from icx.bounds import chain_bounds
from icx.errors import BadParams, Infeasible, NotNormalized
from icx.galois import PrimeField
from icx.model import Destination, Instance, gen_neighboring_antidotes, gen_neighboring_interference, normalize
from icx.scheme import simulate_exhaustive, verify
from icx.symmetric import builtin_example

from conftest import make_instance
import reference_alignment as ref


# ----------------------------------------------------------------------
# partition
# ----------------------------------------------------------------------


def test_partition_feasible_m4k3(feasible_m4k3):
    subsets = partition(feasible_m4k3)
    assert edges(feasible_m4k3) == frozenset({(3, 4, 1)})
    assert [sorted(s) for s in subsets] == [[1], [2], [3, 4]]


def test_partition_complete_side_information():
    inst = make_instance(
        3, [({k}, {1, 2, 3} - {k}) for k in (1, 2, 3)]
    )
    assert edges(inst) == frozenset()
    assert partition(inst) == (frozenset({1}), frozenset({2}), frozenset({3}))


def test_partition_chain_edges(chain_m5k5):
    assert (3, 4, 1) in edges(chain_m5k5)
    assert (4, 5, 2) in edges(chain_m5k5)
    assert any({3, 4, 5} <= sub for sub in partition(chain_m5k5))


def test_edge_cap_counts_from_set_sizes(monkeypatch):
    """Antidotes K=8 U=0 D=1 has 8 * C(8 - 1 - 1, 2) = 120 edges, counted from
    |wants| and |has| alone: past the cap, no interferer set is built, and the
    chain search reads the cap from the instance without building a partition."""
    inst = gen_neighboring_antidotes(8, 0, 1)

    def built(*args):
        raise AssertionError("an interferer set or a partition was built")

    monkeypatch.setattr(Instance, "interferers", built)
    monkeypatch.setattr("icx.alignment.partition", built)
    monkeypatch.setattr("icx.alignment.MAX_ALIGNMENT_EDGES", 119)
    for refused in (lambda: edges(inst), lambda: chain_bounds(inst, 1)):
        with pytest.raises(BadParams, match="^the alignment relation has 120 edges, more than the limit of 119$"):
            refused()


def test_partition_requires_uniform_demands(groupcast_m2k3):
    with pytest.raises(NotNormalized):
        partition(groupcast_m2k3)


def test_partition_invariant_under_destination_reordering(chain_m5k5):
    inst = chain_m5k5
    shuffled = Instance(
        inst.num_messages,
        tuple(
            Destination(i + 1, d.wants, d.has)
            for i, d in enumerate(reversed(inst.destinations))
        ),
    )
    assert partition(inst) == partition(shuffled)
    # the edges name destination ids, which the reordering changed
    assert edges(inst) != edges(shuffled)


def test_partition_commutes_with_message_relabeling(chain_m5k5):
    inst = chain_m5k5
    relabel = {1: 4, 2: 1, 3: 5, 4: 2, 5: 3}
    relabeled = Instance(
        inst.num_messages,
        tuple(
            Destination(
                d.id,
                frozenset(relabel[m] for m in d.wants),
                frozenset(relabel[m] for m in d.has),
            )
            for d in inst.destinations
        ),
    )
    before = {frozenset(relabel[m] for m in sub) for sub in partition(inst)}
    after = set(partition(relabeled))
    assert before == after


# ----------------------------------------------------------------------
# feasibility
# ----------------------------------------------------------------------


def test_feasible_m4k3_verdict(feasible_m4k3):
    verdict = check_feasibility(feasible_m4k3, 2)
    assert verdict.feasible and verdict.witness is None


def test_infeasible_m4k3_witness(infeasible_m4k3):
    verdict = check_feasibility(infeasible_m4k3, 2)
    assert not verdict.feasible
    assert verdict.witness == (1, 4, 3)


def test_single_message_feasible():
    inst = make_instance(1, [({1}, set())])
    assert check_feasibility(inst, 1).feasible


def test_chain_instance_infeasible(chain_m5k5):
    verdict = check_feasibility(chain_m5k5, 2)
    assert not verdict.feasible
    i, j, k = verdict.witness
    assert any({i, j} <= sub for sub in verdict.subsets)


def test_adding_antidote_preserves_feasibility():
    rnd = random.Random(5)
    checked = 0
    for _ in range(200):
        M = rnd.randrange(2, 6)
        K = rnd.randrange(1, 5)
        dests = []
        for k in range(1, K + 1):
            wants = {rnd.randrange(1, M + 1)}
            rest = [m for m in range(1, M + 1) if m not in wants]
            has = {m for m in rest if rnd.random() < 0.35}
            dests.append((wants, has))
        inst = make_instance(M, dests)
        if not check_feasibility(inst, 1).feasible:
            continue
        checked += 1
        # grow one destination's antidote set by one message
        grown = []
        done = False
        for wants, has in dests:
            if not done:
                extra = [m for m in range(1, M + 1) if m not in wants and m not in has]
                if extra:
                    has = has | {rnd.choice(extra)}
                    done = True
            grown.append((wants, has))
        assert check_feasibility(make_instance(M, grown), 1).feasible
    assert checked > 30


def _random_instance(rnd, L):
    """At most 9 messages and 9 destinations, each desiring L or L+1 messages."""
    M = rnd.randint(L + 1, 9)
    dests = []
    for _ in range(rnd.randint(1, 9)):
        wants = set(rnd.sample(range(1, M + 1), rnd.choice([L, L, L + 1])))
        has = {m for m in range(1, M + 1) if m not in wants and rnd.random() < 0.4}
        dests.append((wants, has))
    return make_instance(M, dests)


def test_verdicts_agree_with_the_all_pairs_reference():
    """Random small instances, then neighboring interference K=12..24 with
    U <= 1 and D <= 2, where every destination lacks at most three messages."""
    rnd = random.Random(12)
    verdicts = Counter()
    for _ in range(600):
        L = rnd.randint(1, 3)
        inst = _random_instance(rnd, L)
        got = check_feasibility(inst, L).to_json()
        assert got == ref.check_feasibility_json(inst, L)
        verdicts[got["feasible"]] += 1
    assert min(verdicts.values()) > 100, verdicts
    zs = Counter()
    for K in range(12, 25):
        for U, D in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2)):
            if K % (D + 1) == 0:
                inst = gen_neighboring_interference(K, U, D)
                got = check_feasibility(inst, 1).to_json()
                assert got == ref.check_feasibility_json(inst, 1)
                zs[min(got["partition"]["Z"], 3)] += 1
    assert sorted(zs) == [1, 2, 3] and min(zs.values()) >= 4, zs


def test_feasibility_lists_no_pairs():
    """Antidotes K=150 U=0 D=1 has 1.6 million edges; none is built for the verdict."""
    inst = gen_neighboring_antidotes(150, 0, 1)
    tracemalloc.start()
    try:
        verdict = check_feasibility(inst, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.witness == (1, 2, 2)
    assert peak < 10 * 2**20, peak


# ----------------------------------------------------------------------
# scalar scheme
# ----------------------------------------------------------------------


def test_scalar_scheme_feasible_m4k3(feasible_m4k3):
    scheme = build_scalar_scheme(feasible_m4k3, 2)
    assert scheme.n == 3
    assert scheme.field == PrimeField(3)
    assert verify(feasible_m4k3, scheme).valid
    res = simulate_exhaustive(feasible_m4k3, scheme)
    assert res.ok and res.tuples_checked == 3**4


def test_scalar_scheme_three_cycle():
    inst = builtin_example(1).instance
    scheme = build_scalar_scheme(inst, 1)
    assert scheme.n == 2
    verdict = check_feasibility(inst, 1)
    assert verdict.L == 1
    assert [sorted(s) for s in verdict.subsets] == [[1], [2, 3]]
    assert verify(inst, scheme).valid
    assert simulate_exhaustive(inst, scheme).ok


def test_scalar_scheme_single_subset():
    # every destination holds every other message except one shared interferer
    inst = make_instance(
        3,
        [({1}, {2, 3}), ({2}, {1, 3}), ({3}, {1, 2})],
    )
    # no interference at all: Z = 3 singletons; still works
    scheme = build_scalar_scheme(inst, 1)
    assert verify(inst, scheme).valid


def test_scalar_scheme_on_infeasible_raises(infeasible_m4k3):
    with pytest.raises(Infeasible) as exc:
        build_scalar_scheme(infeasible_m4k3, 2)
    assert exc.value.witness == (1, 4, 3)


# ----------------------------------------------------------------------
# rate-half vector scheme
# ----------------------------------------------------------------------


def test_vector_scheme_z3_uses_n2():
    # three subsets: three one-dimensional subspaces of GF(2)^2
    inst = make_instance(
        3,
        [({1}, {2, 3}), ({2}, {1, 3}), ({3}, {1, 2})],
    )
    scheme = build_rate_half_vector_scheme(inst)
    assert scheme.n == 2
    assert verify(inst, scheme).valid


def test_vector_scheme_z5_uses_n4():
    # five isolated destinations, no side information between groups:
    # each message is its own subset except none align; force Z = 5 via
    # pairwise-complete antidotes
    inst = make_instance(
        5,
        [({k}, set(range(1, 6)) - {k}) for k in range(1, 6)],
    )
    scheme = build_rate_half_vector_scheme(inst)
    assert scheme.n == 4  # 2^2 + 1 = 5 >= Z
    assert all(v.cols == 2 for v in scheme.V.values())
    assert verify(inst, scheme).valid


def test_vector_scheme_example1_equivalent():
    inst = builtin_example(1).instance
    scheme = build_rate_half_vector_scheme(inst)
    assert scheme.n == 2
    rep = verify(inst, scheme)
    assert rep.valid
    assert all(r == 1 / 2 for r in rep.rates.values())
    assert simulate_exhaustive(inst, scheme).ok


def test_vector_scheme_infeasible():
    # three messages, no side information: all messages join one alignment
    # subset and every demand collides with it
    inst = make_instance(3, [({1}, set()), ({2}, set()), ({3}, set())])
    with pytest.raises(Infeasible):
        build_rate_half_vector_scheme(inst)


# ----------------------------------------------------------------------
# joint behaviour on random instances
# ----------------------------------------------------------------------


def test_feasible_instances_build_verifying_schemes():
    rnd = random.Random(9)
    built = 0
    for _ in range(250):
        M = rnd.randrange(2, 6)
        K = rnd.randrange(1, 5)
        L = rnd.choice([1, 1, 2])
        dests = []
        for k in range(1, K + 1):
            if M < L:
                break
            wants = set(rnd.sample(range(1, M + 1), L))
            rest = [m for m in range(1, M + 1) if m not in wants]
            has = {m for m in rest if rnd.random() < 0.45}
            dests.append((wants, has))
        if not dests:
            continue
        inst = make_instance(M, dests)
        verdict = check_feasibility(inst, L)
        if not verdict.feasible:
            continue
        scheme = build_scalar_scheme(inst, L)
        norm = normalize(inst, L)
        assert verify(norm, scheme).valid
        assert verify(inst, scheme).valid  # demands already uniform here
        built += 1
        if built <= 25 and scheme.field.order ** inst.num_messages <= 2**13:
            assert simulate_exhaustive(inst, scheme).ok
    assert built > 50
