"""Brute-force oracle results and witness re-verification."""

from fractions import Fraction

import pytest

from icx.bounds import simple_bounds
from icx.errors import BadParams, BudgetExceeded
from icx.galois import Matrix, PrimeField
from icx.model import gen_neighboring_antidotes
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
    for i in range(5):
        assert m[i, i] == 1
        d = inst.destination(i + 1)
        for j in range(5):
            if j + 1 != i + 1 and (j + 1) not in d.has:
                assert m[i, j] == 0


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
    big = make_instance(7, [({k}, set()) for k in range(1, 8)])
    with pytest.raises(BudgetExceeded):
        best_scalar_scheme(big, 2, 2)


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
    free = [(m, mp) for m in range(1, 5) for mp in sorted(inst.destination(m).has)]
    minimal = []
    for bits in range(2 ** len(free)):
        rows = Matrix.identity(PrimeField(2), 4).row_list()
        for idx, (m, mp) in enumerate(free):
            rows[m - 1][mp - 1] = bits >> idx & 1
        if Matrix.from_rows(PrimeField(2), rows).rank() == 2:
            minimal.append(rows)
    assert len(minimal) > 1
    assert minrank_gf2(inst).witness_matrix.row_list() == minimal[0]
