"""The elimination kernel of galois against the naive reference.

``tests/reference_galois.py`` eliminates with the field's scalar methods on
plain lists.  Seeded random matrices over GF(2), GF(3), GF(37), GF(2^31-1)
and GF(2^3) cover empty shapes, rank-deficient ones, the shapes of the
benchmark's large schemes, and, over GF(3), GF(37) and GF(2^31-1), column
counts on both sides of a change of lane width in the packed GF(p) rows.
Results must agree exactly: ranks, the reduced row echelon form, the order
of null space basis vectors, inverses and the reduced column echelon form.
The lane reducer that takes every lane of a packed GF(p) row mod p at once
is checked against ``x % p`` at every lane width, for primes that it reduces
in two phases and ones that need three; GF(7) and GF(31), which need three,
also run through the packed basis and the packed products.
Over characteristic 2 the packed rows hold one element per lane, and
GF(2^1), GF(2^7), GF(2^8), GF(2^12) and GF(2^32) take the bit, 1-, 2-, 2- and
5-byte lanes through the packed basis, its restrictions and the packed
products; every row the kernel keeps or gives is one int, over every field.
The greedy walk ``EchelonBasis.grow`` and the row and column choices built on it
are checked against fresh ranks, and the packed products of
``_row_products``, whole and block by block, against ``Matrix.__matmul__``.
The packed basis is checked row by row against the reference at every lane
width, and ``left_nullspace`` against the transpose's null space, against
the reference and against the rows that a restriction of one reduced
[A | J] has with pivots in J.  A restricted basis's reads are counted: each
reduces a row only against the rows ``restrict`` added again, and its
packed unit-row test agrees with the entries of the row.  The complement
that ``scheme_to_unicast`` gives an auxiliary is the reference's greedy
walk over identity columns.
"""

import random

import pytest

import reference_galois as ref
from icx import galois
from icx.errors import DimensionMismatch, DivisionByZero
from icx.galois import BinaryField, EchelonBasis, Matrix, PrimeField, Subspace
from icx.model import gen_neighboring_antidotes
from icx.scheme import _independent_rows, verify
from icx.symmetric import build_antidote_scheme
from icx.unicast import _complement_columns

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(37), PrimeField(2**31 - 1), BinaryField(3)]
SHAPES = [
    (0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (7, 1), (3, 7), (7, 3), (6, 6),
    (8, 16), (8, 17), (11, 11), (12, 12), (9, 30), (30, 9),
]
# The benchmark's large schemes, over GF(p) only: GF(2^m) is eliminated in
# EchelonBasis, whose loops the small shapes already cover.
LARGE_SHAPES = [(30, 78), (30, 126), (75, 30)]
# Between resets below p, a packed GF(p) row of a basis that reaches at most
# b rows takes at most b lazy steps, so its lanes hold (b + 2) * p^2: over
# GF(3) 1 byte up to b = 26 and 2 from 27; over GF(37) 2 bytes up to 45 and 4
# from 46; over GF(2^31-1) 8 bytes up to 2 and 9 from 3.  A full reduced form
# sizes its basis by the fewer of the vectors it reduces and their length:
# min(rows, columns) for rref, nullspace and column_echelon, the side for
# inverse.  So shapes whose smaller side, and squares whose side, sit on both
# sides of each change of width are reduced next to ones whose larger side
# alone crosses it.
LANE_SHAPES = {
    PrimeField(3): [
        (12, 26), (12, 27), (30, 26), (30, 27), (26, 30), (27, 30), (13, 13), (14, 14), (26, 26), (27, 27),
    ],
    PrimeField(37): [
        (12, 45), (12, 46), (47, 45), (47, 46), (45, 47), (46, 47), (45, 12), (46, 12),
        (47, 47), (22, 22), (23, 23), (45, 45), (46, 46),
    ],
    PrimeField(2**31 - 1): [
        (1, 2), (1, 3), (2, 3), (12, 2), (12, 3), (2, 12), (3, 12), (2, 1), (3, 1),
        (1, 12), (12, 1), (13, 13), (2, 2), (3, 3),
    ],
}
KINDS = ("dense", "sparse", "deficient")
# Characteristic-2 fields at each width of their lanes: one element per lane,
# with a bit to spare above m (``_row_products``' nonzero test needs it), so
# 1 bit at m = 1, then 1 byte up to m = 7, 2 up to 15, 4 up to 31 and 5 at 32.
# GF(2^32) runs only at n <= 12, where the reference stays fast, and the
# packed basis runs them all at n <= 12, as GF(2^3) covers n = 30 there.
LANE_WIDTH_BITS = {PrimeField(2): 1, BinaryField(1): 1, BinaryField(3): 8, BinaryField(7): 8,
                   BinaryField(8): 16, BinaryField(12): 16, BinaryField(32): 40}
LANE_FIELDS = [BinaryField(1), BinaryField(7), BinaryField(8), BinaryField(12), BinaryField(32)]


def random_rows(field, r, c, kind, rnd):
    q = field.order
    if kind == "dense":
        return [[rnd.randrange(q) for _ in range(c)] for _ in range(r)]
    if kind == "sparse":
        return [[rnd.randrange(1, q) if rnd.random() < 0.2 else 0 for _ in range(c)] for _ in range(r)]
    k = min(r, c) // 2  # a product through k dimensions has rank at most k
    left = [[rnd.randrange(q) for _ in range(k)] for _ in range(r)]
    right = [[rnd.randrange(q) for _ in range(c)] for _ in range(k)]
    return ref.matmul(field, left, right, c)


def as_matrix(field, rows, r, c):
    return Matrix(field, r, c, tuple(e for row in rows for e in row))


def cases():
    for field in FIELDS:
        large = LARGE_SHAPES if isinstance(field, PrimeField) else []
        for r, c in SHAPES + large + LANE_SHAPES.get(field, []):
            yield pytest.param(field, r, c, id=f"{field!r}-{r}x{c}")


@pytest.mark.parametrize("field, r, c", cases())
def test_elimination_matches_reference(field, r, c):
    rnd = random.Random(f"{field!r} {r} {c}")
    for kind in KINDS:
        rows = random_rows(field, r, c, kind, rnd)
        m = as_matrix(field, rows, r, c)
        reduced, pivots = ref.rref(field, rows, c)

        assert m.rank() == len(pivots)
        red = m.rref()
        assert red.row_list() == reduced
        assert all(type(e) is int for e in red.entries)
        assert m.nullspace().col_list() == ref.nullspace(field, rows, c)
        assert m.left_nullspace().row_list() == ref.left_nullspace(field, rows, c)
        ce = m.column_echelon()
        assert (ce.rows, ce.col_list()) == (r, ref.column_echelon(field, rows, c))

        if r == c:
            expected = ref.inverse(field, rows)
            if expected is None:
                with pytest.raises(DivisionByZero):
                    m.inverse()
            else:
                assert m.inverse().row_list() == expected

        other = random_rows(field, c, 3, "dense", rnd)
        assert (m @ as_matrix(field, other, c, 3)).row_list() == ref.matmul(field, rows, other, 3)


@pytest.mark.parametrize("field, r, c", cases())
def test_incremental_basis_matches_fresh_rank(field, r, c):
    rnd = random.Random(f"basis {field!r} {r} {c}")
    for kind in KINDS:
        rows = random_rows(field, r, c, kind, rnd)
        m = as_matrix(field, rows, r, c)
        basis = EchelonBasis(field, r)
        before, grown = 0, []
        for j in range(c):
            grew = basis.add(m.col(j))
            fresh = m.take_cols(range(j + 1)).rank()
            assert grew == fresh - before
            assert basis.rank == fresh
            before = fresh
            grown += [j] * grew
        assert basis.echelon_rows()[0] == ref.column_echelon(field, rows, c)

        # grow makes the same walk in one call and names the columns that grew the rank
        walked = EchelonBasis(field, r)
        assert walked.grow(m.col_list()) == grown
        assert walked.echelon_rows() == basis.echelon_rows()
        assert walked.grow(m.col_list()) == []
        full = EchelonBasis(field, r)
        assert full.grow(Matrix.identity(field, r).col_list()) == list(range(r))
        assert full.grow(m.col_list()) == []

        # the greedy choices built on it: c rows of m forming an invertible
        # block, and identity columns completing colspan(m) to the whole space
        chosen = _independent_rows(m)
        if m.rank() < c:
            assert chosen is None
        else:
            assert len(chosen) == c and m.take_rows(chosen).rank() == c
        extra = _complement_columns(m)
        assert extra.cols == r - m.rank()
        assert m.hstack(extra).rank() == r

        if r:
            sub = Subspace.from_matrix(m)
            vec = [rnd.randrange(field.order) for _ in range(r)]
            spanned = ref.rank(field, ref.transpose(rows, c) + [vec], r) == sub.dim
            assert sub.contains(vec) == spanned
            if c:
                assert sub.contains(m.col(0))


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), BinaryField(3)], ids=repr)
def test_incremental_basis_copy_is_independent(field):
    rnd = random.Random(f"copy {field!r}")
    n = 5
    for _ in range(20):
        basis = EchelonBasis(field, n)
        for _ in range(rnd.randint(0, 4)):
            basis.add([rnd.randrange(field.order) for _ in range(n)])
        state = (basis.rank, basis.echelon_rows())
        twin = basis.copy()
        for _ in range(n):
            twin.add([rnd.randrange(field.order) for _ in range(n)])
        assert (basis.rank, basis.echelon_rows()) == state
        # a later add to the original leaves the twin alone as well
        twin_state = (twin.rank, twin.echelon_rows())
        basis.add([rnd.randrange(field.order) for _ in range(n)])
        assert (twin.rank, twin.echelon_rows()) == twin_state
    # a new pivot changes the reduced form of an existing row: the original keeps its own
    basis = EchelonBasis(field, 3)
    basis.add([1, 1, 0])
    twin = basis.copy()
    assert twin.add([0, 1, 0]) == 1
    assert twin.echelon_rows() == ([[1, 0, 0], [0, 1, 0]], [0, 1])
    assert (basis.rank, basis.echelon_rows()) == (1, ([[1, 1, 0]], [0]))
    with pytest.raises(DimensionMismatch):
        twin.add([1, 2])


# (field, n, bound) for the packed basis: every width at which its rows
# change lanes, as a row takes at most bound lazy steps (GF(37): 2 bytes up
# to 45, 4 from 46; GF(2^31-1): 8 bytes up to 2, 9 from 3; GF(7): 1 byte up
# to 3, 2 from 4), for a basis of the whole space (bound n) and for one
# promised fewer rows than n; n = 0, and small and large n over GF(2),
# GF(3), GF(2^3) and GF(31); each lane width of characteristic 2
# (``LANE_WIDTH_BITS``) up to n = 12, whatever the bound.  GF(7) and GF(31)
# reduce their lanes in three phases at these widths
# (``test_lane_reducer_matches_mod_p``), GF(3) and GF(37) below 4 bytes in
# two.
BASIS_WIDTHS = [
    *((field, n, n) for field in FIELDS for n in (0, 1, 5, 30)),
    (PrimeField(37), 45, 45), (PrimeField(37), 46, 46),
    (PrimeField(2**31 - 1), 2, 2), (PrimeField(2**31 - 1), 3, 3),
    (PrimeField(37), 96, 45), (PrimeField(37), 96, 46),
    (PrimeField(2**31 - 1), 12, 2), (PrimeField(2**31 - 1), 12, 3),
    (PrimeField(3), 40, 26), (PrimeField(3), 40, 27),
    (PrimeField(7), 3, 3), (PrimeField(7), 4, 4), (PrimeField(7), 30, 30), (PrimeField(7), 12, 3),
    (PrimeField(31), 30, 30), (PrimeField(31), 12, 4),
    (PrimeField(2), 30, 4), (BinaryField(3), 12, 4),
    *((field, n, n) for field in LANE_FIELDS for n in (0, 1, 5, 12)),
    (BinaryField(8), 12, 4), (BinaryField(32), 12, 4),
]


@pytest.mark.parametrize(
    "field, n, bound",
    [pytest.param(f, n, b, id=f"{f!r}-n{n}" + (f"-bound{b}" if b < n else "")) for f, n, b in BASIS_WIDTHS],
)
def test_packed_basis_matches_reference(field, n, bound):
    """Rows added one at a time: the rank after each, the indices ``grow``
    names, the reduced row echelon form that ``echelon_rows`` and
    ``back_substitute`` give, and copies that evolve apart, all as the
    reference eliminates them.  A basis promised fewer rows than n packs
    them in lanes for that many steps, and refuses a vector once it has
    them."""
    rnd = random.Random(f"packed {field!r} {n}" + (f" {bound}" if bound < n else ""))
    make = (lambda: EchelonBasis(field, n)) if bound == n else (lambda: EchelonBasis(field, n, bound))
    if isinstance(field, PrimeField) and field.p > 2:
        assert make()._codec[1] == 8 * galois._lane_bytes(field.p, bound)
    else:
        assert make()._codec[1] == LANE_WIDTH_BITS[field]
    for kind in KINDS:
        for r in (0, 1, n // 2, n, n + 3) if bound == n else (0, 1, bound // 2, bound):
            rows = random_rows(field, r, n, kind, rnd)
            reduced, pivots = ref.rref(field, rows, n)
            basis, grown = make(), []
            assert [basis.unpack(basis.pack(row)) for row in rows] == rows
            for i, row in enumerate(rows):
                grown += [i] * basis.add(row)
                assert basis.rank == ref.rank(field, rows[: i + 1], n)
            assert sorted(basis.pivots) == pivots
            assert basis.echelon_rows() == (reduced[: len(pivots)], pivots)
            walked = make()
            assert walked.grow(rows) == grown
            assert walked.echelon_rows() == basis.echelon_rows()
            walked.back_substitute()
            assert sorted(map(walked.unpack, walked.rows)) == sorted(reduced[: len(pivots)])
            assert walked.echelon_rows() == basis.echelon_rows()

            if basis.rank == bound < n:
                with pytest.raises(DimensionMismatch):
                    basis.add(rows[0])
                continue
            # a copy and its original, given different rows, stay each its own span
            twin = basis.copy()
            extra = random_rows(field, 2, n, "dense", rnd)
            extra = extra if bound == n else extra[: bound - basis.rank]
            twin.grow(extra)
            basis.grow(extra[:1])
            for b, added in ((basis, extra[:1]), (twin, extra)):
                assert b.echelon_rows()[0] == ref.rref(field, rows + added, n)[0][: b.rank]


LEFT_NULL_SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 9), (9, 3), (7, 7), (30, 75), (75, 30)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_left_nullspace_matches_transpose_route(field):
    """One basis over the rows of [B | J] gives the very matrix the
    transpose's null space does, on tall, wide, square, rank-deficient and
    empty shapes."""
    rnd = random.Random(f"left {field!r}")
    for r, c in LEFT_NULL_SHAPES:
        for kind in KINDS:
            m = as_matrix(field, random_rows(field, r, c, kind, rnd), r, c)
            left = m.left_nullspace()
            assert left == m.transpose().nullspace().transpose()
            assert (left.rows, left.cols) == (r - m.rank(), r)
            assert (left @ m).is_zero()


# (field, rows, cols) for reading left null spaces off one reduced [A | J].
# Its basis is sized for A's rows, so over odd p the lanes change width at
# 26/27 rows over GF(3), 45/46 over GF(37) and 2/3 over GF(2^31-1); over
# GF(2) rows past 64 columns take more than one machine word.  Each lane
# width of characteristic 2 is cut too, GF(2^32) at r + c = 12.
RESTRICT_SHAPES = [
    *((field, r, c) for field in FIELDS for r, c in ((0, 4), (4, 0), (1, 1), (3, 9), (7, 7), (9, 3))),
    *((field, r, c) for field in LANE_FIELDS[:-1] for r, c in ((3, 9), (7, 7), (9, 3))),
    (BinaryField(32), 3, 9), (BinaryField(32), 7, 5),
    (PrimeField(3), 26, 30), (PrimeField(3), 27, 30), (PrimeField(37), 45, 20), (PrimeField(37), 46, 20),
    (PrimeField(2**31 - 1), 2, 5), (PrimeField(2**31 - 1), 3, 5), (PrimeField(2), 30, 50), (PrimeField(2), 40, 96),
]


@pytest.mark.parametrize(
    "field, r, c", [pytest.param(*shape, id=f"{shape[0]!r}-{shape[1]}x{shape[2]}") for shape in RESTRICT_SHAPES]
)
def test_restricted_reduced_form_gives_left_null_spaces(field, r, c):
    """Reduce [A | J] once, J the reversed r x r identity, and restrict it
    to columns S of A and every column of J: its rows with a pivot in J,
    reduced (``reduced_row``) and by descending pivot, are [0 | y J] for
    the rows y of ``A_S.left_nullspace()``, in order, which are the
    reference's left null space of A_S."""
    rnd = random.Random(f"restricted left {field!r} {r} {c}")
    for kind in KINDS:
        a = as_matrix(field, random_rows(field, r, c, kind, rnd), r, c)
        basis = EchelonBasis(field, c + r, r)
        basis.grow(row + (0,) * (r - 1 - i) + (1,) + (0,) * i for i, row in enumerate(a._row_tuples()))
        basis.back_substitute()
        for cols in (0, (1 << c) - 1, *(rnd.getrandbits(c) for _ in range(4))):
            sub = basis.restrict(cols | ((1 << r) - 1) << c)
            in_j = sorted(((p, i) for i, p in enumerate(sub.pivots) if p >= c), reverse=True)
            ys = [sub.reduced_row(i) for _, i in in_j]
            kept = [j for j in range(c) if cols >> j & 1]
            left = a.take_cols(kept).left_nullspace().row_list()
            assert [y[:c] for y in ys] == [[0] * c] * len(ys)
            assert [y[c:][::-1] for y in ys] == left
            assert left == ref.left_nullspace(field, [[row[j] for j in kept] for row in a.row_list()], len(kept))


@pytest.mark.parametrize(
    "field, r, c", [pytest.param(*shape, id=f"{shape[0]!r}-{shape[1]}x{shape[2]}") for shape in RESTRICT_SHAPES]
)
def test_restrict_of_a_back_substituted_basis_is_the_cut_rows_reduced_form(field, r, c):
    """``restrict`` takes a back-substituted basis, so each row it adds back
    is reduced only against the rows added before it.  On the bases of
    [A | J] above, back-substituted and restricted to no column, every
    column and four random subsets, ``echelon_rows`` is the reference's
    reduced form of [A | J] with every other column set to 0."""
    rnd = random.Random(f"restrict precondition {field!r} {r} {c}")
    for kind in KINDS:
        rows = [[*row] + [0] * (r - 1 - i) + [1] + [0] * i for i, row in enumerate(random_rows(field, r, c, kind, rnd))]
        basis = EchelonBasis(field, c + r, r)
        basis.grow(rows)
        basis.back_substitute()
        for cols in (0, (1 << c + r) - 1, *(rnd.getrandbits(c + r) for _ in range(4))):
            cut = [[e if cols >> j & 1 else 0 for j, e in enumerate(row)] for row in rows]
            reduced, pivots = ref.rref(field, cut, c + r)
            assert basis.restrict(cols).echelon_rows() == (reduced[: len(pivots)], pivots)


def restricted_bases(field, r, c, rnd):
    """(basis, cols, its restriction to cols, the rows of [A | J] with every
    column outside cols set to 0) for a back-substituted basis of [A | J],
    cols no column, every column and four random subsets, A dense, sparse
    and rank-deficient in turn."""
    for kind in KINDS:
        rows = [[*row] + [0] * (r - 1 - i) + [1] + [0] * i for i, row in enumerate(random_rows(field, r, c, kind, rnd))]
        basis = EchelonBasis(field, c + r, r)
        basis.grow(rows)
        basis.back_substitute()
        for cols in (0, (1 << c + r) - 1, *(rnd.getrandbits(c + r) for _ in range(4))):
            cut = [[e if cols >> j & 1 else 0 for j, e in enumerate(row)] for row in rows]
            yield basis, cols, basis.restrict(cols), cut


@pytest.mark.parametrize(
    "field, r, c", [pytest.param(*shape, id=f"{shape[0]!r}-{shape[1]}x{shape[2]}") for shape in RESTRICT_SHAPES]
)
def test_restricted_reads_reduce_only_against_rows_added_again(field, r, c, monkeypatch):
    """A restricted basis records how many rows it kept (``kept``): they lead
    it and are 0 at one another's pivots.  ``reduced`` and ``reduced_row``
    of row i reduce it only against the rows after it and after the kept
    ones, so a kept row meets every row ``restrict`` added again and no kept
    row, and an added row the added rows after it: counted as the (pivot,
    row) pairs ``_reduce`` is given.  The reads, packed and unpacked, are
    the reference's rows of the reduced form of [A | J] with every other
    column set to 0, at every field and lane width."""
    steps, reduce = [], EchelonBasis._reduce

    def counting(self, v, pairs):
        pairs = list(pairs)
        steps.append(len(pairs))
        return reduce(self, v, pairs)

    monkeypatch.setattr(EchelonBasis, "_reduce", counting)
    for basis, cols, sub, cut in restricted_bases(field, r, c, random.Random(f"restricted reads {field!r} {r} {c}")):
        kept = [p for p in basis.pivots if cols >> p & 1]
        assert (sub.kept, sub.pivots[: sub.kept]) == (len(kept), kept)
        reduced, pivots = ref.rref(field, cut, c + r)
        expected = dict(zip(pivots, reduced))
        assert sorted(sub.pivots) == pivots
        for i, pivot in enumerate(sub.pivots):
            steps.clear()
            assert sub.unpack(sub.reduced(i)) == expected[pivot]
            assert sub.reduced_row(i) == expected[pivot]
            assert steps == [sub.rank - max(i + 1, sub.kept)] * 2


@pytest.mark.parametrize(
    "field, r, c", [pytest.param(*shape, id=f"{shape[0]!r}-{shape[1]}x{shape[2]}") for shape in RESTRICT_SHAPES]
)
def test_packed_unit_row_test_agrees_with_the_entries(field, r, c):
    """A desired stream decodes iff its row of the reduced form has its
    pivot as its only nonzero entry.  ``_rank_checks`` decides that on the
    packed row, ``reduced(i) == unit(pivots[i])``; on every read of the
    restricted bases above the two agree, over every field and lane width,
    and ``unit`` is the unit vector as ``pack`` packs it.  Both outcomes
    occur on every shape with more than one row and column of A."""
    seen = set()
    for _, _, sub, _ in restricted_bases(field, r, c, random.Random(f"unit rows {field!r} {r} {c}")):
        for i, pivot in enumerate(sub.pivots):
            row = sub.reduced_row(i)
            decodes = len(row) - row.count(0) == 1
            assert sub.unit(pivot) == sub.pack([int(j == pivot) for j in range(c + r)])
            assert (sub.reduced(i) == sub.unit(pivot)) == decodes
            seen.add(decodes)
    if min(r, c) > 1:
        assert seen == {True, False}


# (rows, columns) of V for the auxiliaries' complements: no column, one,
# fewer columns than rows, a square and more columns than rows.
COMPLEMENT_SHAPES = [(0, 0), (4, 0), (1, 1), (5, 2), (10, 4), (6, 6), (3, 7), (12, 5)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_complement_and_left_null_space_match_reference(field):
    """``scheme_to_unicast`` gives each auxiliary ``_complement_columns``
    of V_i, which eliminates V_i's columns once, coordinates reversed, and
    takes the identity columns off the pivots: exactly the reference's
    greedy walk, which appends each identity column that grows the rank.
    Its combiner is ``left_nullspace`` of V_i, the reference's left null
    space.  V is empty of columns, rank-deficient or of full rank."""
    rnd = random.Random(f"complement {field!r}")
    for n, L in COMPLEMENT_SHAPES:
        for kind in (*KINDS, "full"):
            rows = random_rows(field, n, L, "dense" if kind == "full" else kind, rnd)
            while kind == "full" and ref.rank(field, rows, L) < min(n, L):
                rows = random_rows(field, n, L, "dense", rnd)
            v = as_matrix(field, rows, n, L)
            chosen = ref.complement_columns(field, rows, L)
            extra = _complement_columns(v)
            assert (extra.rows, extra.col_list()) == (n, [[int(i == j) for i in range(n)] for j in chosen]), (n, L, kind)
            assert len(chosen) == n - ref.rank(field, rows, L)
            assert v.left_nullspace().row_list() == ref.left_nullspace(field, rows, L), (n, L, kind)


@pytest.mark.parametrize(
    "field, r, c", [pytest.param(*shape, id=f"{shape[0]!r}-{shape[1]}x{shape[2]}") for shape in RESTRICT_SHAPES]
)
def test_left_nullspace_sizes_its_basis_for_its_rows(field, r, c, monkeypatch):
    """``left_nullspace`` of an r x c matrix is the transpose's null space:
    it eliminates A's c columns, so its one basis, of r-vectors, is promised
    c rows (no more than r, its length) and, over GF(p), has lanes sized for
    that many lazy steps; its rows are still the reference's."""
    made = []

    class Recording(EchelonBasis):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self.n, self.bound))

    monkeypatch.setattr(galois, "EchelonBasis", Recording)
    rnd = random.Random(f"left bound {field!r} {r} {c}")
    for kind in KINDS:
        rows = random_rows(field, r, c, kind, rnd)
        made.clear()
        assert as_matrix(field, rows, r, c).left_nullspace().row_list() == ref.left_nullspace(field, rows, c)
        assert made == [(r, min(r, c))]


def test_crossover_routes_by_size(monkeypatch):
    """Every full reduced form takes one route, whatever the field and the
    size: ``rref``, ``nullspace``, ``inverse`` and ``column_echelon`` each
    grow one ``EchelonBasis`` over the column count of what they reduce,
    promised no more rows than the vectors they reduce, and back-substitute
    it once (``echelon_rows``), empty shapes included.  A rank grows a basis
    of the whole space and reads its size: it takes neither ``_rref`` nor
    ``echelon_rows``.  Lane widths grow with the lazy steps a row can take."""
    calls = []
    init, echelon_rows, rref = EchelonBasis.__init__, EchelonBasis.echelon_rows, galois._rref

    def spy_init(self, field, n, *bound):
        init(self, field, n, *bound)
        calls.append(("basis", n, self.bound))

    def spy_echelon_rows(self):
        calls.append("echelon_rows")
        return echelon_rows(self)

    def spy_rref(*args):
        calls.append("_rref")
        return rref(*args)

    monkeypatch.setattr(EchelonBasis, "__init__", spy_init)
    monkeypatch.setattr(EchelonBasis, "echelon_rows", spy_echelon_rows)
    monkeypatch.setattr(galois, "_rref", spy_rref)
    rnd = random.Random(0)
    shapes = [
        (PrimeField(2), 30, 30), (PrimeField(2), 7, 12),
        (PrimeField(37), 8, 16), (PrimeField(37), 8, 8),
        (BinaryField(3), 12, 12), (BinaryField(3), 5, 3),
        (PrimeField(2), 0, 0), (PrimeField(37), 0, 5), (PrimeField(37), 5, 0), (BinaryField(3), 0, 0),
    ]
    for field, r, c in shapes:
        m = as_matrix(field, random_rows(field, r, c, "dense", rnd), r, c)
        calls.clear()
        assert m.rank() == ref.rank(field, m.row_list(), c)
        assert calls == [("basis", c, c)]
        ops = [(Matrix.rref, c, r), (Matrix.nullspace, c, r), (Matrix.column_echelon, r, c)]
        if r == c:
            ops.append((Matrix.inverse, 2 * c, c))
        for op, n, vectors in ops:
            calls.clear()
            try:
                op(m)
            except DivisionByZero:  # a singular inverse, found after the reduction
                assert op is Matrix.inverse
            assert calls == ["_rref", ("basis", n, min(n, vectors)), "echelon_rows"], (field, r, c, op.__name__)
    assert [galois._lane_bytes(3, n) for n in (1, 26, 27)] == [1, 1, 2]
    assert [galois._lane_bytes(37, n) for n in (1, 45, 46)] == [2, 2, 4]
    assert [galois._lane_bytes(2**31 - 1, n) for n in (1, 2, 3)] == [8, 8, 9]


def test_rank_only_callers_never_back_substitute(monkeypatch):
    """``Matrix.rank`` reads the size of a packed basis: it runs no full
    reduced form (``_rref``) and back-substitutes nothing.  Rank-mode
    ``verify`` reduces V once per call (one ``back_substitute``) and no
    matrix per destination: on a valid scheme each destination restricts
    that one form once (``restrict``) and reads the packed row of each
    desired stream once (``reduced``), and nothing runs ``_rref``,
    ``echelon_rows`` or ``reduced_row``: no row is unpacked."""
    calls = []

    def spying(owner, name):
        real = getattr(owner, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, spy)

    spying(galois, "_rref")
    for name in ("echelon_rows", "reduced_row", "reduced", "back_substitute", "restrict"):
        spying(EchelonBasis, name)
    rnd = random.Random("rank only")
    for field in FIELDS:
        for r, c in ((0, 3), (3, 0), (7, 12), (30, 9)):
            m = as_matrix(field, random_rows(field, r, c, "deficient", rnd), r, c)
            assert m.rank() == ref.rank(field, m.row_list(), c)
    assert calls == []
    inst = gen_neighboring_antidotes(32, 2, 4)
    scheme = build_antidote_scheme(32, 2, 4)
    report = verify(inst, scheme, mode="rank")
    assert report.valid and report.mode == "rank"
    streams = [sum(map(scheme.stream_count, d.wants)) for d in inst.destinations]
    assert calls == ["back_substitute"] + [name for s in streams for name in ["restrict"] + ["reduced"] * s]


# (field, rows, cols, lane bytes) for _row_products.  Over odd p a product
# sums rows terms below p^2, in lanes of _lane_bytes(p, rows) bytes, so the
# row count sets the width; GF(2) rows are bits and GF(2^m) rows take the
# lanes of ``LANE_WIDTH_BITS``, one element each, whatever the row count.
# The last rows read 40 to 780 columns in lanes of 1, 2 and 9 bytes.
PRODUCT_SHAPES = [
    (PrimeField(2), 0, 0, None), (PrimeField(2), 0, 5, None), (PrimeField(2), 5, 0, None),
    (PrimeField(2), 1, 1, None), (PrimeField(2), 10, 780, None), (PrimeField(2), 30, 126, None),
    (BinaryField(3), 0, 4, None), (BinaryField(3), 4, 0, None), (BinaryField(3), 9, 30, None),
    (PrimeField(3), 0, 4, 1), (PrimeField(3), 4, 0, 1), (PrimeField(3), 26, 9, 1), (PrimeField(3), 27, 9, 2),
    (PrimeField(37), 45, 5, 2), (PrimeField(37), 46, 5, 4), (PrimeField(37), 30, 126, 2),
    (PrimeField(2**31 - 1), 1, 6, 8), (PrimeField(2**31 - 1), 2, 6, 8), (PrimeField(2**31 - 1), 3, 6, 9),
    (PrimeField(2**31 - 1), 7, 0, 9),
    (PrimeField(7), 3, 9, 1), (PrimeField(7), 4, 9, 2), (PrimeField(7), 30, 126, 2),
    (PrimeField(31), 66, 5, 2), (PrimeField(31), 67, 5, 4), (PrimeField(31), 30, 126, 2),
    (PrimeField(3), 10, 780, 1), (PrimeField(37), 10, 780, 2), (PrimeField(2**31 - 1), 5, 40, 9),
    *((field, 9, 12 if field.m == 32 else 30, None) for field in LANE_FIELDS),
    (BinaryField(8), 0, 4, None), (BinaryField(8), 4, 0, None), (BinaryField(8), 10, 300, None),
]


@pytest.mark.parametrize(
    "field, r, c, width", [pytest.param(*shape, id=f"{shape[0]!r}-{shape[1]}x{shape[2]}") for shape in PRODUCT_SHAPES]
)
def test_row_products_match_matmul(field, r, c, width):
    """One packed product per coefficient row gives the entries of c @ M,
    as ``Matrix.__matmul__`` does, and the bitmask of its nonzero columns.
    Read block by block, as a message's own columns are, the product gives
    that block's slice of the entries, and the mask that slice's mask: a
    block at column 0, one ending at the last column, one inside, single
    columns at both ends and the empty block."""
    if width is not None:
        assert galois._lane_bytes(field.p, r) == width
    rnd = random.Random(f"products {field!r} {r} {c}")
    q = field.order
    blocks = [range(0, c), range(0, 0)]
    if c:
        a, b = sorted(rnd.sample(range(c + 1), 2)) if c > 1 else (0, 1)
        blocks += [range(0, 1), range(c - 1, c), range(0, max(1, c // 3)), range(c - max(1, c // 4), c), range(a, b)]
    for kind in ("dense", "sparse"):
        mat = as_matrix(field, random_rows(field, r, c, kind, rnd), r, c)
        product, read = galois._row_products(mat)
        for coefs in ([0] * r, [q - 1] * r, *([rnd.randrange(q) for _ in range(r)] for _ in range(8))):
            expected = (Matrix(field, 1, r, tuple(coefs)) @ mat).entries
            row, mask = product(coefs)
            assert mask == sum(1 << j for j, e in enumerate(expected) if e)
            for block in blocks:
                entries = read(row, block)
                assert tuple(entries) == expected[block.start : block.stop], block
                assert all(type(e) is int for e in entries)
                own = mask >> block.start & (1 << len(block)) - 1
                assert own == sum(1 << j for j, e in enumerate(entries) if e), block


@pytest.mark.parametrize("field", FIELDS + LANE_FIELDS, ids=repr)
def test_every_row_is_one_int(field):
    """One row form over every field: each row a basis keeps, as added,
    back-substituted or restricted, each ``reduced(i)``, each ``unit(c)``
    and each ``_row_products`` product, of no column too, is one int."""
    rnd = random.Random(f"row form {field!r}")
    r, n = 6, 12
    for kind in KINDS:
        rows = random_rows(field, r, n, kind, rnd)
        basis = EchelonBasis(field, n)
        basis.grow(rows)
        reduced = basis.copy().back_substitute()
        for b in (basis, reduced, reduced.restrict(rnd.getrandbits(n))):
            assert {type(row) for row in b.rows} <= {int}
            assert {type(b.reduced(i)) for i in range(b.rank)} <= {int}
            assert {type(b.unit(c)) for c in range(n)} == {int}
        for c in (n, 0):
            product, _ = galois._row_products(as_matrix(field, [row[:c] for row in rows], r, c))
            assert [type(x) for x in product([rnd.randrange(field.order) for _ in range(r)])] == [int, int]


# Primes whose lanes _lane_reducer takes mod p in two phases and ones that
# need three, at the lane widths of packed rows (1, 2, 4, 8 and 9 bytes):
# GF(31) needs three at every width, GF(7) below 9 bytes, GF(37) at 4 bytes,
# GF(251) at 8, GF(65521) and GF(2^31-1) at 8 and 9; the rest take two.
LANE_PRIMES = [3, 5, 7, 31, 37, 251, 65521, 2**31 - 1]
LANE_WIDTHS = [8, 16, 32, 64, 72]


@pytest.mark.parametrize(
    "p, width",
    [pytest.param(p, w, id=f"p{p}-w{w}") for p in LANE_PRIMES for w in LANE_WIDTHS if p < 1 << w],
)
def test_lane_reducer_matches_mod_p(p, width):
    """Every lane of a packed row at once, as x % p lane by lane: every value
    of an 8-bit lane, and at wider lanes 0, p - 1, p, p^2, 2^width - 1 and
    Barrett's worst case, the largest lane value that is p - 1 mod p, among
    random values, in rows whose phases hold no lane, one or many."""
    rnd = random.Random(f"reducer {p} {width}")
    top = 1 << width
    special = [x for x in (0, p - 1, p, p * p, top - 1, top - 1 - (top - p) % p) if x < top]
    packed = lambda lanes: sum(x << width * j for j, x in enumerate(lanes))
    for ncols in (1, 2, 3, 4, 7, 30):
        reduce = galois._lane_reducer(p, width, ncols)
        if width == 8:
            every = list(range(top))
            rnd.shuffle(every)
            rows = [every[i : i + ncols] for i in range(0, top - ncols + 1, ncols)] + [every[-ncols:]]
        else:
            rows = [[rnd.choice(special) for _ in range(ncols)] for _ in range(40)]
            rows += [[rnd.choice(special) if rnd.random() < 0.3 else rnd.randrange(top) for _ in range(ncols)]
                     for _ in range(80)]
        for lanes in rows:
            assert reduce(packed(lanes)) == packed([x % p for x in lanes]), lanes


def test_public_constructors_still_validate():
    gf5 = PrimeField(5)
    assert Matrix(gf5, 1, 3, (7, -1, 5)).entries == (2, 4, 0)
    with pytest.raises(DimensionMismatch):
        Matrix(gf5, 2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        Subspace(Matrix.from_cols(gf5, [[2, 0]]))  # not reduced: leading entry 2
    assert Subspace.from_matrix(Matrix.from_cols(gf5, [[2, 0]])).basis.col_list() == [[1, 0]]
