"""Field arithmetic, linear algebra, and vector family tests.

Rank and intersection results are checked against independent brute-force
oracles (cofactor determinants, exhaustive span enumeration) on small cases.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icx import galois
from icx.errors import DimensionMismatch, DivisionByZero, FieldMismatch
from icx.galois import (
    BinaryField,
    Matrix,
    PrimeField,
    Subspace,
    default_reduction_poly,
    is_irreducible_gf2,
    mds_vector_family,
    smallest_prime_at_least,
    spread_family,
)

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), BinaryField(2), BinaryField(3), BinaryField(4)]


# ----------------------------------------------------------------------
# field arithmetic
# ----------------------------------------------------------------------


def test_prime_field_examples():
    gf5 = PrimeField(5)
    assert gf5.inv(3) == 2  # 3*2 = 6 = 1 mod 5
    assert PrimeField(7).neg(0) == 0


def test_gf8_reduction():
    gf8 = BinaryField(3)  # x^3 + x + 1
    assert gf8.poly == 0b1011
    assert gf8.mul(0b10, 0b100) == 0b011  # x * x^2 = x^3 = x + 1


def test_negative_integer_is_the_additive_inverse():
    """As -a mod p is -a in GF(p), -a is a's negation in GF(2^m): a itself.
    A negative entry once stayed negative and hung elimination."""
    for f in FIELDS:
        for a in range(2 * f.order):
            assert f.canonical(-a) == f.neg(f.canonical(a))
    gf8 = BinaryField(3)
    assert Matrix.from_rows(gf8, [[-1, -3], [1, 3]]).rank() == 1


@pytest.mark.parametrize(
    "call, expected",
    [("mul(1, -1)", 1), ("inv(-3)", 6), ("mul(-3, 2)", 6), ("mul(9, 1)", 2), ("add(-3, 2)", 1), ("neg(-3)", 3)],
)
def test_binary_field_operations_canonicalize_arguments(call, expected):
    """GF(8) operations on integers outside 0..7 read them as ``canonical``
    does: mul(1, -1) and inv(-3) once never returned, and mul(-3, 2) returned
    -6.  Run in a subprocess so a hang fails on the timeout."""
    script = f"from icx.galois import BinaryField\nprint(BinaryField(3).{call})\n"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(galois.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == expected
    gf8 = BinaryField(3)  # the same values from canonical arguments, in process
    assert [gf8.mul(1, 1), gf8.inv(3), gf8.mul(3, 2), gf8.mul(2, 1), gf8.add(3, 2), gf8.neg(3)] == [1, 6, 6, 2, 1, 3]


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        BinaryField(0)
    with pytest.raises(ValueError):
        BinaryField(3, poly=0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1), reducible


def test_inverse_of_zero():
    for f in FIELDS:
        with pytest.raises(DivisionByZero):
            f.inv(0)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_field_axioms_exhaustive_small(field):
    els = list(field.elements())
    if len(els) > 8:
        els = els[:8]
    for a, b, c in itertools.product(els, repeat=3):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    for a in els:
        assert field.add(a, field.neg(a)) == 0
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1


@settings(max_examples=200)
@given(
    st.sampled_from([PrimeField(101), PrimeField(65537), BinaryField(8), BinaryField(16)]),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
)
def test_field_axioms_random_large(field, a, b, c):
    a, b, c = field.canonical(a), field.canonical(b), field.canonical(c)
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    if a != 0:
        assert field.mul(a, field.inv(a)) == 1


def test_irreducibility_checker_against_factorization():
    # x^4 + x^3 + x^2 + x + 1 is irreducible? It equals (x^5-1)/(x-1); order of x is 5,
    # 5 | 2^4-1 = 15, so it is irreducible of degree 4.
    assert is_irreducible_gf2(0b11111)
    # x^4 + x^2 + 1 = (x^2+x+1)^2
    assert not is_irreducible_gf2(0b10101)
    # integers below 2 are no polynomial of degree >= 1; a negative one must not loop
    assert not any(map(is_irreducible_gf2, [-7, -1, 0, 1]))


def mobius(n: int) -> int:
    result, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return result


@pytest.mark.parametrize("m", range(1, 13))
def test_irreducible_count_matches_gauss(m):
    """Gauss: (1/m) * sum over d | m of mobius(d) * 2^(m/d) binary polynomials
    of degree m are irreducible."""
    gauss = sum(mobius(d) * 2 ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
    assert sum(map(is_irreducible_gf2, range(1 << m, 1 << (m + 1)))) == gauss


# default_reduction_poly(m) for m = 1..32: every GF(2^m) element and file
# written with the default depends on these.
DEFAULT_POLYS = [
    2, 7, 11, 19, 37, 67, 131, 283, 515, 1033, 2053, 4105, 8219, 16417, 32771, 65579,
    131081, 262153, 524327, 1048585, 2097157, 4194307, 8388641, 16777243, 33554441,
    67108891, 134217767, 268435459, 536870917, 1073741827, 2147483657, 4294967437,
]


def test_default_reduction_polys_are_pinned():
    assert [default_reduction_poly(m) for m in range(1, 33)] == DEFAULT_POLYS


def _clmul_mod(a: int, b: int, f: int) -> int:
    """a b mod f by a schoolbook carry-less product, then one reduction."""
    product = 0
    for j in range(b.bit_length()):
        if b >> j & 1:
            product ^= a << j
    return galois._poly_mod(product, f)


def test_binary_field_mul_matches_schoolbook_product():
    """The one GF(2^m) product, ``_lane_multiplier``'s one-lane ``times``,
    reduces each shift of a factor with one conditional xor: every pair under
    every irreducible polynomial of degree at most 4, then seeded random
    pairs at m = 8 and m = 32; ``BinaryField.mul`` agrees on each, and on
    arguments that need canonicalizing."""
    for m in range(1, 5):
        for f in filter(is_irreducible_gf2, range(1 << m, 1 << (m + 1))):
            field, times = BinaryField(m, f), galois._lane_multiplier(f, 1)[1]
            for a, b in itertools.product(range(1 << m), repeat=2):
                assert times(a, b) == field.mul(a, b) == _clmul_mod(a, b, f), (f, a, b)
    rnd = random.Random("poly mulmod")
    for m in (8, 32):
        field = BinaryField(m)
        times = galois._lane_multiplier(field.poly, 1)[1]
        for _ in range(2000):
            a, b = rnd.getrandbits(m), rnd.getrandbits(m)
            assert times(a, b) == field.mul(a, b) == _clmul_mod(a, b, field.poly)
            assert field.mul(-a, b | 1 << m) == _clmul_mod(a, galois._poly_mod(b | 1 << m, field.poly), field.poly)


def test_irreducibility_past_the_field_degrees():
    """Ben-Or's test answers above the degrees ``BinaryField`` takes: two
    primitive trinomials, and a degree-42 product of one of them with x + 1."""
    f = 1 << 41 | 1 << 3 | 1
    assert is_irreducible_gf2(f) and is_irreducible_gf2(1 << 63 | 1 << 1 | 1)
    assert not is_irreducible_gf2(f << 1 ^ f)  # (x + 1) f


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(1) == 2
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(13) == 13


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------


def _brute_force_det(m: Matrix) -> int:
    """Cofactor-expansion determinant, independent of the elimination code."""
    f = m.field
    if m.rows == 1:
        return m.row(0)[0]
    acc = 0
    for j in range(m.cols):
        if m.row(0)[j] == 0:
            continue
        minor = Matrix.from_rows(
            f,
            [[m.row(i)[c] for c in range(m.cols) if c != j] for i in range(1, m.rows)],
        )
        term = f.mul(m.row(0)[j], _brute_force_det(minor))
        acc = f.add(acc, term if j % 2 == 0 else f.neg(term))
    return acc


def _brute_force_rank(m: Matrix) -> int:
    """Largest k with a nonsingular k x k submatrix (cofactor determinants)."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in itertools.combinations(range(m.rows), k):
            for cs in itertools.combinations(range(m.cols), k):
                sub = Matrix.from_rows(m.field, [[m.row(r)[c] for c in cs] for r in rs])
                if _brute_force_det(sub) != 0:
                    return k
    return 0


def test_rank_and_nullspace_trivial():
    gf3 = PrimeField(3)
    m = Matrix.identity(gf3, 2)
    r, ns = m.rank(), m.nullspace()
    assert r == 2 and ns.cols == 0

    gf2 = PrimeField(2)
    m = Matrix.from_rows(gf2, [[1, 1], [1, 1]])
    r, ns = m.rank(), m.nullspace()
    assert r == 1
    assert ns.col_list() == [[1, 1]]


def test_rank_identity_columns_pair():
    # two distinct columns of a 5x5 identity have rank 2
    gf2 = PrimeField(2)
    m = Matrix.from_cols(gf2, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    assert m.rank() == 2


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([PrimeField(2), PrimeField(3), PrimeField(5), BinaryField(2)]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**30),
)
def test_rank_matches_brute_force_determinant(field, rows, cols, seed):
    rnd = random.Random(seed)
    m = Matrix(
        field,
        rows,
        cols,
        tuple(rnd.randrange(field.order) for _ in range(rows * cols)),
    )
    assert m.rank() == _brute_force_rank(m)
    # rank-nullity and A @ nullspace = 0
    ns = m.nullspace()
    assert m.rank() + ns.cols == m.cols
    if ns.cols:
        assert (m @ ns).is_zero()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([PrimeField(3), PrimeField(5), BinaryField(3)]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**30),
)
def test_inverse_roundtrip(field, n, seed):
    rnd = random.Random(seed)
    m = Matrix(field, n, n, tuple(rnd.randrange(field.order) for _ in range(n * n)))
    if m.rank() < n:
        with pytest.raises(DivisionByZero):
            m.inverse()
    else:
        assert (m @ m.inverse()).entries == Matrix.identity(field, n).entries


def test_mixed_field_matmul_rejected():
    a = Matrix.identity(PrimeField(3), 2)
    b = Matrix.identity(PrimeField(5), 2)
    with pytest.raises(FieldMismatch):
        a @ b


# each shape check with the message of its DimensionMismatch, or None for
# the one shape that is no refusal: an empty stack is the 0x0 matrix
SHAPE_CHECKS = {
    "from_cols-ragged": (lambda f: Matrix.from_cols(f, [[1, 0], [1]]), "ragged columns"),
    "matmul": (lambda f: Matrix.zeros(f, 2, 3) @ Matrix.zeros(f, 2, 3), "cannot multiply 2x3 by 2x3"),
    "add": (lambda f: Matrix.zeros(f, 2, 3).add(Matrix.zeros(f, 3, 2)), "shape mismatch in add"),
    "hstack": (lambda f: Matrix.zeros(f, 2, 1).hstack(Matrix.zeros(f, 3, 1)), "row count mismatch in hstack"),
    "inverse": (lambda f: Matrix.zeros(f, 2, 3).inverse(), "inverse of a non-square matrix"),
    "contains": (lambda f: Subspace.from_matrix(Matrix.identity(f, 2)).contains([1, 0, 0]), "vector length mismatch"),
    "mds-dim-0": (lambda f: mds_vector_family(3, 0), "dim must be >= 1"),
    "hstack_all-empty": (lambda f: Matrix.hstack_all(f, []), None),
}


@pytest.mark.parametrize("call, message", SHAPE_CHECKS.values(), ids=SHAPE_CHECKS)
def test_shape_checks(call, message):
    field = PrimeField(3)
    if message is None:
        assert call(field) == Matrix.zeros(field, 0, 0)
    else:
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            call(field)


# ----------------------------------------------------------------------
# subspaces
# ----------------------------------------------------------------------


def _enumerate_span(sub: Subspace) -> set:
    """All vectors of the subspace, by enumerating coefficient tuples."""
    f = sub.basis.field
    d = sub.dim
    vecs = set()
    for coeffs in itertools.product(f.elements(), repeat=d):
        v = [0] * sub.basis.rows
        for j, c in enumerate(coeffs):
            col = sub.basis.col(j)
            v = [f.add(x, f.mul(c, y)) for x, y in zip(v, col)]
        vecs.add(tuple(v))
    return vecs


def test_subspace_intersect_trivial():
    gf2 = PrimeField(2)
    e = Matrix.identity(gf2, 3)
    a = Subspace.from_matrix(e.take_cols([0, 1]))
    b = Subspace.from_matrix(e.take_cols([1, 2]))
    got = a.intersect(b)
    assert got.dim == 1
    assert got.basis.col_list() == [[0, 1, 0]]
    # idempotence on identical subspaces
    assert a.intersect(a) == a


def test_subspace_intersect_dimension_mismatch():
    gf2 = PrimeField(2)
    a = Subspace.from_matrix(Matrix.identity(gf2, 2))
    b = Subspace.from_matrix(Matrix.identity(gf2, 3))
    with pytest.raises(DimensionMismatch):
        a.intersect(b)


def test_a_subspace_is_its_basis():
    """A subspace stores its basis alone: its field and ambient dimension are
    the basis's, so no call can name others."""
    gf2, gf3 = PrimeField(2), PrimeField(3)
    a = Subspace(Matrix.identity(gf2, 2).take_cols([0]))
    assert Subspace._fields == ("basis",) and vars(a) == {"basis": a.basis}
    assert not hasattr(a, "field") and not hasattr(a, "ambient_dim")
    assert vars(a.intersect(Subspace.from_matrix(Matrix.identity(gf2, 2)))) == {"basis": a.basis}
    with pytest.raises(FieldMismatch):
        a.intersect(Subspace.from_matrix(Matrix.identity(gf3, 2)))


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5), BinaryField(3)], ids=str)
def test_equal_subspaces_intersect_without_elimination(monkeypatch, field):
    """The copies of a message share one span, so the unicast translation
    intersects equal subspaces; their canonical bases compare equal, and the
    intersection is the subspace itself, with no null space computed."""
    gen = Matrix(field, 4, 2, (1, 0, 2, 1, 0, 3, 1, 1))
    a = Subspace.from_matrix(gen)
    b = Subspace.from_matrix(gen @ Matrix(field, 2, 2, (1, 1, 0, 1)))  # other generators, same span
    assert b is not a and b == a

    def refuse(self):
        raise AssertionError("nullspace called")

    monkeypatch.setattr(Matrix, "nullspace", refuse)
    assert a.intersect(b) is a


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_random_3dim_intersections_in_gf5_4(seed):
    rnd = random.Random(seed)
    """3-dim + 3-dim subspaces of GF(5)^4 intersect in >= 2 dims; verified by
    brute-force enumeration of all 5^3 span vectors on each side."""
    gf5 = PrimeField(5)

    def random_subspace():
        while True:
            m = Matrix(gf5, 4, 3, tuple(rnd.randrange(5) for _ in range(12)))
            if m.rank() == 3:
                return Subspace.from_matrix(m)

    a, b = random_subspace(), random_subspace()
    got = a.intersect(b)
    assert got.dim >= 2
    common = _enumerate_span(a) & _enumerate_span(b)
    assert _enumerate_span(got) == common


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([PrimeField(2), PrimeField(3)]),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**30),
)
def test_three_matrix_dimension_bound(field, n, seed):
    """If colspan(C) meets the joint span of A and B only at zero, then
    dim(colspan(A) n colspan(B)) >= rank(A)+rank(B)+rank(C)-n.

    The joint-span hypothesis is the one the dimension argument needs (and
    the one scheme translations provide); see the test below for why the
    pairwise version is not enough.
    """
    rnd = random.Random(seed)

    def rand_mat():
        cols = rnd.randrange(1, n + 1)
        return Matrix(field, n, cols, tuple(rnd.randrange(field.order) for _ in range(n * cols)))

    a, b, c = rand_mat(), rand_mat(), rand_mat()
    sa, sb, sc = (Subspace.from_matrix(m) for m in (a, b, c))
    joint = Subspace.from_matrix(a.hstack(b))
    if joint.intersect(sc).dim != 0:
        return
    assert sa.intersect(sb).dim >= a.rank() + b.rank() + c.rank() - n


def test_three_matrix_bound_needs_joint_hypothesis():
    """Pairwise trivial intersections with C are not enough: spans e1, e2 and
    e1+e2 in GF(2)^2 satisfy them, yet dim(A n B) = 0 < 1+1+1-2."""
    gf2 = PrimeField(2)
    a = Matrix.from_cols(gf2, [[1, 0]])
    b = Matrix.from_cols(gf2, [[0, 1]])
    c = Matrix.from_cols(gf2, [[1, 1]])
    sa, sb, sc = (Subspace.from_matrix(m) for m in (a, b, c))
    assert sa.intersect(sc).dim == 0 and sb.intersect(sc).dim == 0
    assert sa.intersect(sb).dim == 0
    assert a.rank() + b.rank() + c.rank() - 2 == 1


# ----------------------------------------------------------------------
# vector families
# ----------------------------------------------------------------------


def test_mds_small_example():
    m = mds_vector_family(3, 2)
    assert m.field == PrimeField(3)
    assert m.col_list() == [[1, 0], [1, 1], [1, 2]]
    for a, b in itertools.combinations(range(3), 2):
        assert m.take_cols([a, b]).rank() == 2


def test_mds_every_7_of_8_over_gf11():
    m = mds_vector_family(8, 7)
    assert m.field == PrimeField(11)
    for sub in itertools.combinations(range(8), 7):
        assert m.take_cols(list(sub)).rank() == 7


def test_mds_random_subsets_full_rank():
    """For every count 1-12 and dim 1-6 the family is a dim x count matrix over
    the smallest prime field with at least count elements, and random sets of
    min(dim, count) of its columns are independent."""
    rnd = random.Random(49)
    for count in range(1, 13):
        for dim in range(1, 7):
            m = mds_vector_family(count, dim)
            assert m.field == PrimeField(smallest_prime_at_least(count))
            assert (m.rows, m.cols) == (dim, count)
            k = min(dim, count)
            for _ in range(5):
                sub = sorted(rnd.sample(range(count), k))
                assert m.take_cols(sub).rank() == k


def _spread_members(n: int) -> list:
    """spread_family(n) as its members: member t is its columns t*n/2 through (t+1)*n/2 - 1."""
    spread, half = spread_family(n), n // 2
    assert isinstance(spread, Matrix) and spread.field == PrimeField(2)
    assert spread.rows == n and spread.cols % half == 0
    return [spread.take_cols(range(t * half, (t + 1) * half)) for t in range(spread.cols // half)]


def test_spread_family_n2():
    members = _spread_members(2)
    assert len(members) == 3
    basis_cols = [tuple(b.col(0)) for b in members]
    assert sorted(basis_cols) == [(0, 1), (1, 0), (1, 1)]
    assert basis_cols == [(1, 0), (1, 1), (0, 1)]  # c = 0, c = 1, then the vertical axis


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_spread_family_counts_and_pairwise_trivial(n):
    members = _spread_members(n)
    half = n // 2
    assert len(members) == 2**half + 1
    for t, b in enumerate(members):
        assert b.cols == half
        assert b == b.column_echelon()  # kept as built, so already reduced
        # [I; M_c] for every c, then the vertical axis [0; I]
        top = Matrix.identity(PrimeField(2), half) if t < 2**half else Matrix.zeros(PrimeField(2), half, half)
        assert b.take_rows(range(half)) == top
    for a, b in itertools.combinations(members, 2):
        assert a.hstack(b).rank() == n


def test_spread_family_n4_intersections_brute_force():
    members = _spread_members(4)
    assert len(members) == 5
    spans = [_enumerate_span(Subspace(b)) for b in members]
    for sa, sb in itertools.combinations(spans, 2):
        assert sa & sb == {(0, 0, 0, 0)}


def test_spread_family_rejects_odd():
    for n in (3, 0, 34):
        with pytest.raises(DimensionMismatch, match=f"^n={n} is not an even length in \\[2, 32\\]$"):
            spread_family(n)
