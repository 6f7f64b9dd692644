"""Brute-force oracle results and witness re-verification.

The pruned searches of ``icx.oracle`` must return exactly what the
exhaustive loops of ``tests/reference_oracle.py`` return: the same value,
witness and search-space size.
"""

import random
from fractions import Fraction

import pytest

import reference_oracle as ref
from icx.bounds import simple_bounds
from icx.errors import BadParams, BudgetExceeded
from icx.galois import Matrix, PrimeField
from icx.model import Instance, gen_neighboring_antidotes
from icx.oracle import best_scalar_scheme, minrank_gf2
from icx.scheme import LinearScheme, simulate_exhaustive, verify
from icx.symmetric import builtin_example

from conftest import make_instance


def test_pentagon_minrank_three():
    inst = gen_neighboring_antidotes(5, 1, 1)
    res = minrank_gf2(inst)
    assert res.value == 3
    assert res.search_space_size == 2**10
    # witness re-verifies through the independent verifier and the simulator
    assert verify(inst, res.witness_scheme).valid
    assert simulate_exhaustive(inst, res.witness_scheme).ok
    assert res.witness_scheme.n == 3
    # best scalar GF(2) rate 1/3 < 2/5 achieved by the vector scheme
    assert Fraction(1, res.value) < builtin_example(2).claimed_rate


def test_minrank_fitting_matrix_structure():
    inst = gen_neighboring_antidotes(5, 1, 1)
    res = minrank_gf2(inst)
    m = res.witness_matrix
    by_id = {d.id: d for d in inst.destinations}
    for i in range(5):
        assert m.row(i)[i] == 1
        d = by_id[i + 1]
        for j in range(5):
            if j + 1 != i + 1 and (j + 1) not in d.has:
                assert m.row(i)[j] == 0


def test_minrank_complete_antidotes():
    inst = make_instance(4, [({k}, {1, 2, 3, 4} - {k}) for k in range(1, 5)])
    assert minrank_gf2(inst).value == 1  # all-ones matrix fits


def test_minrank_no_antidotes():
    inst = make_instance(4, [({k}, set()) for k in range(1, 5)])
    assert minrank_gf2(inst).value == 4


def test_minrank_rejects_groupcast(groupcast_m2k3):
    with pytest.raises(BadParams):
        minrank_gf2(groupcast_m2k3)


def test_minrank_budget():
    inst = make_instance(6, [({k}, {1, 2, 3, 4, 5, 6} - {k}) for k in range(1, 7)])
    with pytest.raises(BudgetExceeded):
        minrank_gf2(inst, budget=2**10)  # 30 free entries


def test_minrank_lower_bound_from_simple_bounds():
    # a scalar scheme of length minrank has rate 1/minrank per message, so
    # minrank >= the largest simple-bound term count
    for inst in (
        gen_neighboring_antidotes(5, 1, 1),
        make_instance(4, [({k}, set()) for k in range(1, 5)]),
    ):
        mr = minrank_gf2(inst).value
        biggest = max(len(c.terms) for c in simple_bounds(inst))
        assert mr >= biggest


def test_best_scalar_example1():
    inst = builtin_example(1).instance
    res = best_scalar_scheme(inst, 2, 2)
    assert res.value == 2
    scheme = res.witness_scheme
    assert verify(inst, scheme).valid
    # the witness aligns messages 2 and 3 on one beam
    assert scheme.V[2].entries == scheme.V[3].entries


def test_best_scalar_feasible_m4k3(feasible_m4k3):
    res = best_scalar_scheme(feasible_m4k3, 3, 3)
    assert res.value == 3  # no n=2 scalar scheme exists; rate 1/3 is best
    assert verify(feasible_m4k3, res.witness_scheme).valid


def test_best_scalar_not_found():
    inst = make_instance(3, [({k}, set()) for k in (1, 2, 3)])
    res = best_scalar_scheme(inst, 2, 2)
    assert res.value is None
    assert res.witness_scheme is None


def test_best_scalar_monotone_padding():
    inst = builtin_example(1).instance
    res = best_scalar_scheme(inst, 2, 2)
    scheme = res.witness_scheme
    f = scheme.field
    padded = LinearScheme(
        f,
        scheme.n + 1,
        {m: Matrix(f, scheme.n + 1, 1, v.entries + (0,)) for m, v in scheme.V.items()},
    )
    assert verify(inst, padded).valid


def test_best_scalar_budget_limits():
    # the budget counts beams tried, message 1's beam e_1 included.  Up to a
    # change of basis that is 1 at n = 1 (e_1 for message 1; destination 2
    # then holds all of span(e_1), so message 2 has no candidate) and 2 at
    # n = 2 (e_1, then e_2 for message 2), where no scheme exists either
    big = make_instance(7, [({k}, set()) for k in range(1, 8)])
    assert best_scalar_scheme(big, 2, 2, budget=3).value is None
    with pytest.raises(BudgetExceeded, match=r"exceeded 2 nodes \(at n = 2; no scheme is shorter\)"):
        best_scalar_scheme(big, 2, 2, budget=2)


@pytest.mark.parametrize("params, value, nodes", [((8, 1, 2), 4, 31_328), ((12, 1, 1), 6, 53_456)])
def test_minrank_node_budget_boundary(params, value, nodes):
    """The budget counts candidate rows tried, pruned ones included, whatever
    the number of messages; these searches need exactly `nodes` of them."""
    inst = gen_neighboring_antidotes(*params)
    res = minrank_gf2(inst, budget=nodes)
    assert (res.value, res.search_space_size) == (value, 2**24)
    assert verify(inst, res.witness_scheme).valid
    with pytest.raises(BudgetExceeded, match=rf"exceeded {nodes - 1} nodes \(best rank so far {value}\)"):
        minrank_gf2(inst, budget=nodes - 1)


# Witness fitting matrices as computed before minrank_gf2 used galois'
# elimination kernel.  The search keeps the first matrix of least rank in
# numeric order of the free entries, so these must not drift.
MINRANK_WITNESSES = [
    ((5, 1, 1), 3, [[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]]),
    ((5, 1, 2), 2, [[1, 1, 0, 0, 1], [1, 1, 1, 1, 0], [0, 0, 1, 1, 1], [0, 0, 1, 1, 1], [1, 1, 0, 0, 1]]),
    ((4, 1, 1), 2, [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]),
]


@pytest.mark.parametrize("params, value, witness", MINRANK_WITNESSES, ids=["K5-U1-D1", "K5-U1-D2", "K4-U1-D1"])
def test_minrank_witness_pinned(params, value, witness):
    res = minrank_gf2(gen_neighboring_antidotes(*params))
    assert res.value == value
    assert res.witness_matrix.row_list() == witness


def test_minrank_witness_is_first_of_several_minimal():
    # antidotes K=4 U=1 D=1: several fitting matrices reach rank 2, and the
    # witness is the first of them with free entry idx as bit idx
    inst = gen_neighboring_antidotes(4, 1, 1)
    by_id = {d.id: d for d in inst.destinations}
    free = [(m, mp) for m in range(1, 5) for mp in sorted(by_id[m].has)]
    minimal = []
    for bits in range(2 ** len(free)):
        rows = Matrix.identity(PrimeField(2), 4).row_list()
        for idx, (m, mp) in enumerate(free):
            rows[m - 1][mp - 1] = bits >> idx & 1
        if Matrix.from_rows(PrimeField(2), rows).rank() == 2:
            minimal.append(rows)
    assert len(minimal) > 1
    assert minrank_gf2(inst).witness_matrix.row_list() == minimal[0]


# The scalar search keeps the first valid assignment in message order when
# message m takes, in order, the projective representatives supported on the
# first r coordinates (r the dimension the earlier beams span), then e_{r+1};
# these witnesses are the exhaustive loop's and must not drift.
SCALAR_WITNESSES = [
    (gen_neighboring_antidotes(5, 1, 1), 2, 3, 3, 2483, ((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1))),
    (builtin_example(1).instance, 2, 2, 2, 10, ((1, 0), (0, 1), (0, 1))),
]


@pytest.mark.parametrize("inst, q, n_max, value, size, beams", SCALAR_WITNESSES, ids=["K5-U1-D1", "example-1"])
def test_scalar_witness_pinned(inst, q, n_max, value, size, beams):
    res = best_scalar_scheme(inst, q, n_max)
    assert (res.value, res.search_space_size) == (value, size)
    scheme = res.witness_scheme
    assert tuple(scheme.V[m].entries for m in sorted(scheme.V)) == beams
    assert scheme.U is None


def outcome(res):
    """Everything a search reports: value, size, query, witness matrix and
    the witness scheme's V and U."""
    matrix = None if res.witness_matrix is None else res.witness_matrix.row_list()
    scheme = res.witness_scheme
    if scheme is not None:
        U = None if scheme.U is None else {key: u.entries for key, u in scheme.U.items()}
        scheme = ({m: v.entries for m, v in scheme.V.items()}, U)
    return res.value, res.search_space_size, res.query, matrix, scheme


ANTIDOTES = [(K, U, D) for K in range(2, 7) for D in range(K) for U in range(D + 1) if U + D < K]

# Results of the exhaustive loops where rerunning them costs more than about
# 50 ms (up to 15 s).  Minrank: (value, size, witness rows as bit strings).
# At their default budget the loops refuse the six K=6 cases with more than
# 2^20 matrices.  Those with 2^24 took them minutes with the budget raised;
# those with 2^30 hold every off-diagonal entry free, so the all-ones matrix
# is the only one of rank 1.
MINRANK_SLOW = {
    (4, 1, 2): (1, 4096, "1111 1111 1111 1111"),
    (4, 0, 3): (1, 4096, "1111 1111 1111 1111"),
    (5, 1, 2): (2, 32768, "11001 11110 00111 00111 11001"),
    (5, 2, 2): (1, 1048576, "11111 11111 11111 11111 11111"),
    (5, 0, 3): (2, 32768, "11010 01111 10101 11010 10101"),
    (5, 1, 3): (1, 1048576, "11111 11111 11111 11111 11111"),
    (5, 0, 4): (1, 1048576, "11111 11111 11111 11111 11111"),
    (6, 1, 1): (3, 4096, "100001 011000 011000 000110 000110 100001"),
    (6, 0, 2): (4, 4096, "101000 010100 001010 000101 100010 010001"),
    (6, 1, 2): (3, 262144, "100001 011000 011000 000110 000110 100001"),
    (6, 2, 2): (2, 16777216, "110001 110001 001110 001110 001110 110001"),
    (6, 0, 3): (3, 262144, "100100 010010 001001 100100 010010 001001"),
    (6, 1, 3): (2, 16777216, "111001 110110 001111 001111 110110 111001"),
    (6, 2, 3): (1, 1073741824, "111111 111111 111111 111111 111111 111111"),
    (6, 0, 4): (2, 16777216, "101010 010101 101010 010101 101010 010101"),
    (6, 1, 4): (1, 1073741824, "111111 111111 111111 111111 111111 111111"),
    (6, 0, 5): (1, 1073741824, "111111 111111 111111 111111 111111 111111"),
}
# Scalar search with n <= 3: (K, U, D, q) -> (value, size, beams of messages 1..K).
SCALAR_SLOW = {
    (4, 0, 0, 3): (None, 2262, None),
    (5, 0, 0, 2): (None, 2483, None),
    (5, 0, 0, 3): (None, 28818, None),
    (5, 0, 1, 2): (None, 2483, None),
    (5, 0, 1, 3): (None, 28818, None),
    (6, 0, 0, 2): (None, 17051, None),
    (6, 0, 0, 3): (None, 372318, None),
    (6, 0, 1, 2): (None, 17051, None),
    (6, 0, 1, 3): (None, 372318, None),
    (6, 0, 2, 2): (None, 17051, None),
    (6, 0, 2, 3): (None, 372318, None),
    (6, 0, 3, 3): (3, 372318, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
}


@pytest.mark.parametrize("K, U, D", ANTIDOTES, ids=[f"K{K}-U{U}-D{D}" for K, U, D in ANTIDOTES])
def test_minrank_matches_reference_on_antidotes(K, U, D):
    inst = gen_neighboring_antidotes(K, U, D)
    if (K, U, D) in MINRANK_SLOW:
        res = minrank_gf2(inst)
        rows = [[int(b) for b in row] for row in MINRANK_SLOW[K, U, D][2].split()]
        assert (res.value, res.search_space_size, res.witness_matrix.row_list()) == MINRANK_SLOW[K, U, D][:2] + (rows,)
        return
    assert outcome(minrank_gf2(inst)) == outcome(ref.minrank_gf2(inst))


@pytest.mark.parametrize("K, U, D", ANTIDOTES, ids=[f"K{K}-U{U}-D{D}" for K, U, D in ANTIDOTES])
@pytest.mark.parametrize("q", [2, 3])
def test_scalar_search_matches_reference_on_antidotes(K, U, D, q):
    inst = gen_neighboring_antidotes(K, U, D)
    res = best_scalar_scheme(inst, q, 3)
    if (K, U, D, q) in SCALAR_SLOW:
        scheme = res.witness_scheme
        beams = None if scheme is None else tuple(scheme.V[m].entries for m in sorted(scheme.V))
        assert (res.value, res.search_space_size, beams) == SCALAR_SLOW[K, U, D, q]
        return
    assert outcome(res) == outcome(ref.best_scalar_scheme(inst, q, 3))


def random_minrank_instance(seed):
    """Unicast, K = 2..6, up to 10 antidotes placed at random."""
    rnd = random.Random(f"minrank {seed}")
    K = rnd.randint(2, 6)
    off = [(m, mp) for m in range(1, K + 1) for mp in range(1, K + 1) if m != mp]
    chosen = rnd.sample(off, min(len(off), rnd.randint(0, 10)))
    return make_instance(K, [({m}, {mp for r, mp in chosen if r == m}) for m in range(1, K + 1)])


def random_scalar_case(seed):
    """M..M+2 single-demand destinations, M = 2..5, each holding every other
    message with one probability; with q and n_max, short of the 5-message
    GF(3) n <= 3 space that takes the loop a second."""
    rnd = random.Random(f"scalar {seed}")
    M, q, n_max = rnd.randint(2, 5), rnd.choice([2, 3]), rnd.randint(1, 3)
    if (M, q, n_max) == (5, 3, 3):
        n_max = 2
    p = rnd.random()
    dests = []
    for _ in range(rnd.randint(M, M + 2)):
        w = rnd.randint(1, M)
        dests.append(({w}, {m for m in range(1, M + 1) if m != w and rnd.random() < p}))
    return make_instance(M, dests), q, n_max


def test_minrank_matches_reference_on_random_instances():
    for seed in range(100):
        inst = random_minrank_instance(seed)
        assert outcome(minrank_gf2(inst)) == outcome(ref.minrank_gf2(inst)), seed


def test_scalar_search_matches_reference_on_random_instances():
    values = set()
    for seed in range(100):
        inst, q, n_max = random_scalar_case(seed)
        res = best_scalar_scheme(inst, q, n_max)
        assert outcome(res) == outcome(ref.best_scalar_scheme(inst, q, n_max)), seed
        values.add(res.value)
    assert values == {None, 1, 2, 3}  # every outcome is exercised


def random_scalar_case_over_q(seed):
    """q in {2, 3, 5}, M = 2..5 messages and M..M+2 destinations, each
    wanting one or two messages and holding every other one with one
    probability; n_max up to 3, cut until the exhaustive loop meets at most
    2,000 assignments."""
    rnd = random.Random(f"scalar over q {seed}")
    q, M, n_max = rnd.choice([2, 3, 5]), rnd.randint(2, 5), rnd.randint(1, 3)
    while sum(((q**n - 1) // (q - 1)) ** (M - 1) for n in range(1, n_max + 1)) > 2000:
        n_max -= 1
    p = rnd.random()
    dests = []
    for _ in range(rnd.randint(M, M + 2)):
        wants = set(rnd.sample(range(1, M + 1), rnd.choice([1, 1, 2])))
        dests.append((wants, {m for m in range(1, M + 1) if m not in wants and rnd.random() < p}))
    return make_instance(M, dests), q, n_max


def test_scalar_search_matches_reference_over_three_fields():
    """The search up to a change of basis decides each length as the loop
    over every assignment does, and its witness is the one the loop ranks
    first."""
    seen = set()
    for seed in range(300):
        inst, q, n_max = random_scalar_case_over_q(seed)
        res = best_scalar_scheme(inst, q, n_max)
        assert outcome(res) == outcome(ref.best_scalar_scheme(inst, q, n_max, limits=False)), seed
        seen.add((q, res.value))
    assert seen >= {(q, value) for q in (2, 3, 5) for value in (None, 1, 2)} | {(2, 3), (3, 3)}


def test_scalar_search_over_gf2_equals_minrank():
    """With n_max >= K the shortest scalar scheme over GF(2) of a multiple
    unicast instance has length minrank."""
    for seed in range(100):
        inst = random_minrank_instance(seed)
        res = best_scalar_scheme(inst, 2, inst.num_messages)
        assert res.value == minrank_gf2(inst).value, seed
        assert verify(inst, res.witness_scheme).valid, seed


@pytest.mark.parametrize(
    "params, q, n_max, value",
    [
        ((7, 0, 1), 2, 6, 6), ((7, 0, 1), 3, 4, None), ((8, 0, 2), 2, 6, 6), ((12, 1, 2), 2, 6, 6),
        ((12, 1, 2), 3, 6, 6), ((20, 0, 0), 2, 20, 20),
    ],
    ids=["K7-U0-D1-q2", "K7-U0-D1-q3", "K8-U0-D2-q2", "K12-U1-D2-q2", "K12-U1-D2-q3", "K20-U0-D0-q2"],
)
def test_scalar_search_answers_at_the_default_budget(params, q, n_max, value):
    """Searches over every projective representative at every level exceed
    the default 2^20 nodes on these; up to a change of basis they answer.
    The last two also need a message whose destination already holds the
    whole span to be offered the next unit vector alone."""
    inst = gen_neighboring_antidotes(*params)
    res = best_scalar_scheme(inst, q, n_max)
    M = inst.num_messages
    size = sum(((q**n - 1) // (q - 1)) ** (M - 1) for n in range(1, (value or n_max) + 1))
    assert (res.value, res.search_space_size) == (value, size)
    if value is None:
        assert res.witness_scheme is None
    else:
        assert res.witness_scheme.n == value and verify(inst, res.witness_scheme).valid


def test_oracle_limits_match_reference():
    """The reference keeps the old size limits; the searches count nodes and
    answer past them."""
    unicast7 = make_instance(7, [({k}, set()) for k in range(1, 8)])
    dense6 = make_instance(6, [({k}, {1, 2, 3, 4, 5, 6} - {k}) for k in range(1, 7)])
    pentagon = gen_neighboring_antidotes(5, 1, 1)
    for inst, budget, value in [(unicast7, 2**20, 7), (dense6, 2**29, 1)]:
        with pytest.raises(BudgetExceeded):
            ref.minrank_gf2(inst, budget=budget)
        res = minrank_gf2(inst, budget=budget)
        assert res.value == value and verify(inst, res.witness_scheme).valid
    for search in (best_scalar_scheme, ref.best_scalar_scheme):
        for q, n_max in [(1, 2), (2, 0), (2, -2)]:
            with pytest.raises(BadParams):
                search(pentagon, q, n_max)
    for q, n_max, value in [(5, 2, None), (2, 4, 3)]:
        with pytest.raises(BudgetExceeded):
            ref.best_scalar_scheme(pentagon, q, n_max)
        assert best_scalar_scheme(pentagon, q, n_max).value == value
    with pytest.raises(BudgetExceeded):
        ref.best_scalar_scheme(pentagon, 3, 3, budget=100)  # 13^4 assignments at n = 3
    # 19 nodes: 2, 12 and 5 up to a change of basis at n = 1, 2 and 3, the
    # last of them the witness's
    assert best_scalar_scheme(pentagon, 3, 3, budget=19).value == 3
    with pytest.raises(BudgetExceeded):
        best_scalar_scheme(pentagon, 3, 3, budget=18)
    for search in (best_scalar_scheme, ref.best_scalar_scheme):
        assert search(pentagon, 3, 3, budget=13**4).value == 3
    for q in (4, 2**31 + 11):  # not a prime, and a prime past the field's range
        with pytest.raises(BadParams):
            best_scalar_scheme(pentagon, q, 2)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_scalar_search_lists_interferers_once_per_call(n_max, monkeypatch):
    """``best_scalar_scheme`` builds its role lists once per call and every
    length's search reads them: ``Instance.interferers`` runs once per
    destination, whatever n_max.  On antidotes K=5 U=0 D=1 over GF(2) no
    length below 4 works, so n_max lengths are searched, and the result is
    the reference's."""
    inst = gen_neighboring_antidotes(5, 0, 1)
    calls, interferers = [], Instance.interferers

    def spy(self, d):
        calls.append(d.id)
        return interferers(self, d)

    monkeypatch.setattr(Instance, "interferers", spy)
    res = best_scalar_scheme(inst, 2, n_max)
    assert sorted(calls) == [d.id for d in inst.destinations]
    assert res.value == (4 if n_max == 4 else None)
    monkeypatch.undo()
    assert outcome(res) == outcome(ref.best_scalar_scheme(inst, 2, n_max, limits=False))
