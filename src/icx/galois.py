"""Exact arithmetic over GF(p) and GF(2^m), plus dense linear algebra.

Elements of GF(p) are canonical residues 0..p-1.  Elements of GF(2^m) are
integers whose bits are the coefficients of a polynomial over GF(2), reduced
modulo an irreducible polynomial of degree m.  The default reduction
polynomial for each degree is the lexicographically smallest irreducible one
(smallest integer encoding), tabulated on first use, so results are
bit-exact across runs.

Matrices are immutable, dense, row-major.  Subspaces carry a reduced
column echelon basis, which makes subspace equality a plain entry
comparison.

Every elimination, over every field, grows one ``EchelonBasis``: ranks,
full reduced forms (``rref``, ``nullspace``, ``left_nullspace``,
``inverse``, ``column_echelon``, through ``_rref``), subspace membership,
greedy choices of rows or columns and the oracles' searches.
Over every field its rows are packed into one Python int each: over GF(2)
a column is a bit, otherwise a lane of bits.  Over odd p ``_lane_reducer``
takes every lane of a row mod p at once, in a few big-integer operations: to
find a new row's pivot, to scale it and to read it.  Over GF(2^m) rows add
by xor, and ``_lane_multiplier`` multiplies every lane of a row by one
element at once, with shifts and xors; its one-lane product is
``BinaryField.mul``.  One method of the basis, ``reduced``, states a
row of the reduced form: a full reduced form unpacks it for every row, and
the basis back-substitutes with it only the rows a caller asks for, or
every row once, and then reads the reduced form R of any column subset
off the back-substituted basis (``restrict``).  A restriction costs only
the rows whose pivots the subset drops and the rows it reads.  Those rows
are cut to the subset and eliminated again.  The rows it keeps are 0 at
one another's pivots, and the rows eliminated again at theirs, so ``read``
cuts a kept row only when it is read, after reducing it against the rows
eliminated again alone.  That is the walk rank-mode ``verify`` and V-only
simulation share, which compares each desired stream's packed row with the
unit row at its pivot, and decoder synthesis's left null spaces.
``Matrix.left_nullspace`` eliminates the matrix's columns: the transpose's
null space.  ``_row_products`` packs a matrix's rows once for many products
and reads any block of columns of a packed product without unpacking the
rest.
"""

from __future__ import annotations

import operator
import struct
from functools import lru_cache, reduce
from itertools import chain, compress
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    FieldTooSmall,
    OddDimension,
    Record,
    is_int,
    read_record,
)

# ----------------------------------------------------------------------
# Polynomial helpers over GF(2) (ints as coefficient bit vectors)
# ----------------------------------------------------------------------


def _poly_degree(f: int) -> int:
    return f.bit_length() - 1


def _poly_mod(a: int, f: int) -> int:
    df = _poly_degree(f)
    while a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def is_irreducible_gf2(f: int) -> bool:
    """Ben-Or's test: f of degree m >= 1 is irreducible over GF(2) iff
    gcd(f, x^(2^k) - x) = 1 for every k <= m/2.  Integers below 2 are not
    polynomials of degree >= 1, negative ones included.
    """
    if f < 2:
        return False
    t = 0b10  # x^(2^k) mod f, squared once per k
    for _ in range(_poly_degree(f) // 2):
        t = _poly_mod(int(f"{t:b}", 4), f)  # over GF(2), t^2 is t's bits spread out
        a, b = f, t ^ 0b10
        while b:  # Euclid: a ends as gcd(f, x^(2^k) - x)
            a, b = b, _poly_mod(a, b)
        if a != 1:
            return False
    return True


@lru_cache(maxsize=None)
def default_reduction_poly(m: int) -> int:
    """Smallest-integer irreducible polynomial of degree m over GF(2)."""
    for c in range(1 << m, 1 << (m + 1)):
        if is_irreducible_gf2(c):
            return c
    raise AssertionError(f"no irreducible polynomial of degree {m}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def smallest_prime_at_least(n: int) -> int:
    p = max(2, n)
    while not _is_prime(p):
        p += 1
    return p


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------


class PrimeField(Record):
    """GF(p) for a prime p < 2^31."""

    def __init__(self, p: int):
        if not (2 <= p < 2**31) or not _is_prime(p):
            raise ValueError(f"p={p} is not a prime in [2, 2^31)")
        super().__init__(p)

    @property
    def order(self) -> int:
        return self.p

    def canonical(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def elements(self) -> range:
        return range(self.p)

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"


class BinaryField(Record):
    """GF(2^m), 1 <= m <= 32, with an irreducible reduction polynomial."""

    def __init__(self, m: int, poly: int = 0):  # poly 0 means "use the default table"
        if not 1 <= m <= 32:
            raise ValueError(f"extension degree m={m} out of range [1, 32]")
        if poly == 0:
            poly = default_reduction_poly(m)
        if _poly_degree(poly) != m or not is_irreducible_gf2(poly):
            raise ValueError(f"reduction polynomial {bin(poly)} is not irreducible of degree {m}")
        super().__init__(m, poly)

    @property
    def order(self) -> int:
        return 1 << self.m

    def canonical(self, a: int) -> int:
        # -a is the additive inverse of a's element, which in characteristic 2 is itself
        a = abs(a)
        return _poly_mod(a, self.poly) if a >= self.order else a

    # Each operation canonicalizes its arguments, as GF(p)'s do by reducing
    # mod p: the bit loops below never end on a negative integer.

    def add(self, a: int, b: int) -> int:
        return self.canonical(a) ^ self.canonical(b)

    def neg(self, a: int) -> int:
        return self.canonical(a)

    def mul(self, a: int, b: int) -> int:
        return _lane_multiplier(self.poly, 1)[1](self.canonical(a), self.canonical(b))

    def inv(self, a: int) -> int:
        a = self.canonical(a)
        if a == 0:
            raise DivisionByZero("inverse of zero in GF(2^%d)" % self.m)
        # extended Euclid over GF(2)[x]
        r0, r1 = self.poly, a
        s0, s1 = 0, 1
        while r1 != 1:
            d = _poly_degree(r0) - _poly_degree(r1)
            if d < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            r0 ^= r1 << d
            s0 ^= s1 << d
            if r0 == 0:  # pragma: no cover - cannot happen for irreducible poly
                raise DivisionByZero("element not invertible")
        return _poly_mod(s1, self.poly)

    def elements(self) -> range:
        return range(self.order)

    def to_json(self) -> dict:
        return {"kind": "gf2m", "m": self.m, "poly": self.poly}

    def __repr__(self):
        return f"GF(2^{self.m})"


Field = PrimeField | BinaryField


def field_from_json(obj) -> Field:
    """The field of a JSON spec: ``kind`` "prime" and ``p``, or ``kind``
    "gf2m", ``m`` and an optional ``poly``, and no other key.  ParseError for
    a spec that breaks the keys rule, ValueError for anything else malformed."""

    def integer(key, value):
        if not is_int(value):
            raise ValueError(f"'{key}' must be an integer, got {value!r}")
        return value

    kind = read_record(obj, "field spec", ("kind",), ("p", "m", "poly"))[0]
    if kind == "prime":
        _, p = read_record(obj, "prime spec", ("kind", "p"))
        return PrimeField(integer("p", p))
    if kind == "gf2m":
        _, m, poly = read_record(obj, "gf2m spec", ("kind", "m"), ("poly",))
        # BinaryField reads poly 0 as "the default": only an absent poly may mean that
        if "poly" in obj and integer("poly", poly) < 1:
            raise ValueError(f"'poly' must be a positive integer, got {poly}")
        return BinaryField(integer("m", m), poly or 0)
    raise ValueError(f"unknown field kind {kind!r}")


def _same_field(a: Field, b: Field):
    if a != b:
        raise FieldMismatch(f"mixed fields {a} and {b}")


# ----------------------------------------------------------------------
# Elimination kernel
# ----------------------------------------------------------------------

# Packed rows for EchelonBasis and _row_products: the little-endian struct codes of
# lanes of 1, 2, 4 and 8 bytes, the digit tables of rows of bits, and the digit
# table of the top bytes of lanes, 0x80 where a lane is nonzero (_row_products).
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")
_TOP_DIGITS = bytes.maketrans(b"\0\x80", b"01")


class EchelonBasis:
    """Semi-echelon basis of the span of vectors added one at a time.

    ``add`` reduces a vector against the rows in insertion order and appends
    what is left, if nonzero, scaled to a 1 in its first nonzero column, its
    pivot.  ``add`` rewrites no row, so each is 0 in the pivots of the rows
    before it, an add costs a step per row and ``copy`` copies two lists.
    The pivots are those of the reduced row echelon form.  ``reduced``
    back-substitutes one row to its row of that form, packed; it is the one
    statement of such a row, which ``echelon_rows`` unpacks for every row,
    sorted by pivot, and ``back_substitute`` keeps for every row in place.
    ``restrict`` makes, from a back-substituted basis, one of the rows it
    eliminates again for a column subset, and ``read`` reads the subset's
    reduced form off the two.  ``add`` returns the rank growth, 0 or 1;
    ``grow`` adds many and says which grew it.

    Vectors are sequences of n canonical elements.  A row is one int, column
    j the lane of W bits from bit W j, so a step is a few big-integer
    operations.  In characteristic 2 a step xors t times a row into the
    row being reduced, t its entry in the row's pivot: over GF(2) W = 1, t
    is 1 and a step is one xor; over GF(2^m) W is the width
    ``_lane_multiplier`` gives.  Over odd p a step adds (p - t) times a
    canonical row, which makes the lane being cleared a multiple of p and
    adds less than p^2 to each lane, and a row is reduced mod p, all its
    lanes at once, after the steps that reduce it, if any.  A basis promised at
    most ``bound`` rows (n by default) refuses any vector once it holds
    bound < n rows, so a row takes at most bound - 1 steps when added and
    as many when back-substituted, W is the width ``_lane_bytes(p, bound)``
    gives and no lane carries into the next.  A kept row is scaled to its
    pivot when its entry there is not 1.
    """

    __slots__ = ("field", "n", "bound", "pivots", "rows", "_source", "_codec")

    def __init__(self, field: Field, n: int, bound: Optional[int] = None):
        self.field = field
        self.n = n
        self.bound = n if bound is None else min(bound, n)
        self.pivots: list = []  # pivot column of each row, in insertion order
        self.rows: list = []
        self._source = None  # (rows, pivot -> row, cols) of the basis restricted, for read
        if isinstance(field, PrimeField):
            p, times = field.p, None
            W = 8 * _lane_bytes(p, self.bound) if p > 2 else 1
        else:
            p, (W, times) = 2, _lane_multiplier(field.poly, n)
        modp = _lane_reducer(p, W, n) if p > 2 and n else None
        # (p, W, pack, unpack, modp, times); no row is kept at n = 0
        self._codec = (p, W, *(_lane_codec(W, n) if n else (list, list)), modp, times)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, v, pairs):
        """v less the multiple of each (pivot, row) in pairs that clears v
        there, canonical as v and the rows are: over odd p taken mod p if
        a step added to it, else v itself."""
        p, W, _, _, modp, times = self._codec
        mask = (1 << W) - 1
        if p == 2:
            for c, b in pairs:
                if t := v >> W * c & mask:
                    v ^= b if t == 1 else times(t, b)
            return v
        out = v
        for c, b in pairs:
            if t := (out >> W * c & mask) % p:
                out += (p - t) * b
        return v if out is v else modp(out)

    def unpack(self, row) -> list:
        """The entries of a canonical row: one of this basis, one ``pack``
        made or one ``reduced`` gave."""
        return list(self._codec[3](row))

    def unit(self, c: int):
        """The unit vector at column c as a row of this basis."""
        return 1 << self._codec[1] * c

    def pack(self, vec: Sequence[int]):
        """vec as a row for ``add_row`` to any basis of this field and n."""
        if len(vec) != self.n:
            raise DimensionMismatch(f"vector of length {len(vec)} for a basis of {self.n}-vectors")
        return self._codec[2](vec)

    def add(self, vec: Sequence[int]) -> int:
        """Reduce vec against the basis and keep what is left, if nonzero."""
        return self.add_row(self.pack(vec))

    def add_row(self, v) -> int:
        """``add`` for a vector that ``pack`` made into a row."""
        pivots = self.pivots
        if len(pivots) == self.bound:
            if self.bound < self.n:
                raise DimensionMismatch(f"a basis promised at most {self.bound} rows was given one more vector")
            return 0
        _, W, _, _, modp, times = self._codec
        if not (v := self._reduce(v, zip(pivots, self.rows))):
            return 0
        c = ((v & -v).bit_length() - 1) // W  # with every lane canonical, the lowest set bit is in the pivot's lane
        if W > 1 and (t := v >> W * c & (1 << W) - 1) != 1:  # over GF(2) and GF(2^1) t is 1
            t = self.field.inv(t)
            v = modp(v * t) if modp else times(t, v)
        pivots.append(c)
        self.rows.append(v)
        return 1

    def grow(self, vectors: Iterable[Sequence[int]]) -> list:
        """Add vectors in turn; the indices of those that grew the rank.

        Stops once the basis is full, as nothing after that can grow it.
        """
        grown = []
        for i, vec in enumerate(vectors):
            if len(self.pivots) == self.n:
                break
            if self.add(vec):
                grown.append(i)
        return grown

    def copy(self) -> "EchelonBasis":
        """A basis of the same span that adds to either leave the other alone.

        Shallow copies of pivots and rows suffice: ``add`` only appends.
        """
        other = EchelonBasis.__new__(EchelonBasis)
        other.field, other.n, other.bound, other._codec = self.field, self.n, self.bound, self._codec
        other.pivots, other.rows, other._source = self.pivots[:], self.rows[:], self._source
        return other

    def reduced(self, i: int):
        """The row of the reduced row echelon form with pivot ``pivots[i]``,
        canonical and packed as the basis packs its rows: row i reduced
        against the rows inserted after it, in insertion order, is cleared
        in their pivots, as each is 0 in the pivots of the rows before it."""
        return self._reduce(self.rows[i], zip(self.pivots[i + 1 :], self.rows[i + 1 :]))

    def echelon_rows(self) -> tuple:
        """(rows of the reduced row echelon form as lists, sorted by pivot;
        their pivots)."""
        order = sorted(range(len(self.pivots)), key=self.pivots.__getitem__)
        return [self.unpack(self.reduced(i)) for i in order], [self.pivots[i] for i in order]

    def back_substitute(self) -> "EchelonBasis":
        """Make every row, in place, its canonical row of the reduced row
        echelon form, 0 at every other row's pivot.  Each is reduced against
        the later rows as they stand, before any of them is replaced."""
        self.rows[:] = [self.reduced(i) for i in range(len(self.rows))]
        return self

    def restrict(self, cols: int, row_of: dict, held: Iterable[int]) -> "EchelonBasis":
        """For a back-substituted basis of A's rows, the rows that A_cols's
        reduced form R needs eliminated again, for ``read``: cols a mask of
        all ones in the lanes of some columns (``unit(b) - unit(a)`` for
        columns a to b - 1, or a sum of such), row_of this basis's pivot ->
        row index and held the rows whose pivot is not in cols.  Each of
        those is cut (``row & cols``) and added.  It is 0 at every other
        pivot of this basis, so it is reduced only against the rows added
        before it, and stays 0 at the pivots in cols.  No other row is
        touched until it is read."""
        out = EchelonBasis.__new__(EchelonBasis)
        out.field, out.n, out.bound, out._codec = self.field, self.n, self.bound, self._codec
        out.pivots, out.rows, out._source = [], [], (self.rows, row_of, cols)
        for i in held:
            out.add_row(self.rows[i] & cols)
        return out

    def read(self, c: int):
        """For a basis ``restrict`` made, R's row with pivot c, canonical
        and packed, or None if c, one of cols, is no pivot of R.  A row
        of the basis restricted whose pivot c is in cols is reduced against
        every row added, then cut; an added row only against those added
        after it.  Both are then 0 at every other pivot of R."""
        rows, row_of, cols = self._source
        if (i := row_of.get(c)) is None:
            return self.reduced(self.pivots.index(c)) if c in self.pivots else None
        return self._reduce(rows[i], zip(self.pivots, self.rows)) & cols


def _rref(field: Field, rows: Sequence[Sequence[int]], ncols: int) -> tuple:
    """(nonzero rows of the reduced row echelon form of rows, pivot columns).

    Every full reduced form in icx ends here, over every field: the rows
    grow one ``EchelonBasis``, sized for at most len(rows) of them, and
    ``echelon_rows`` back-substitutes it.  Entries must be canonical.
    """
    basis = EchelonBasis(field, ncols, len(rows))
    basis.grow(rows)
    return basis.echelon_rows()


def _null_vectors(field: Field, rows: Sequence[Sequence[int]], ncols: int) -> list:
    """A basis of {x : rows @ x = 0} as lists, one per free column of the
    reduced form, in column order: 1 there, 0 at the other free columns and
    minus the entry there of each row at its pivot."""
    reduced, pivots = _rref(field, rows, ncols)
    is_pivot = set(pivots)
    xs = []
    for fc in (c for c in range(ncols) if c not in is_pivot):
        x = [0] * ncols
        x[fc] = 1
        for row, pc in zip(reduced, pivots):
            x[pc] = field.neg(row[fc])
        xs.append(x)
    return xs


@lru_cache
def _lane_codec(width: int, ncols: int) -> tuple:
    """(pack, unpack) between ncols lane values and one int, lane j at bits
    width * j and up: single bits through digit strings, lanes of 1, 2, 4
    or 8 bytes through struct, other whole bytes one by one.  ncols >= 1,
    and every value must fit its lane."""
    if width == 1:
        digits = f"0{ncols}b"
        pack = lambda lanes: int(bytes(lanes)[::-1].translate(_TO_DIGITS), 2)
        unpack = lambda v: list(format(v, digits)[::-1].encode().translate(_FROM_DIGITS))
    elif width // 8 in _LANE_CODES:
        row_format = struct.Struct(f"<{ncols}{_LANE_CODES[width // 8]}")
        pack = lambda lanes: int.from_bytes(row_format.pack(*lanes), "little")
        unpack = lambda v: row_format.unpack(v.to_bytes(row_format.size, "little"))
    else:
        mask = (1 << width) - 1
        pack = lambda lanes: int.from_bytes(b"".join(x.to_bytes(width // 8, "little") for x in lanes), "little")
        unpack = lambda v: [v >> s & mask for s in range(0, width * ncols, width)]
    return pack, unpack


@lru_cache
def _lane_reducer(p: int, width: int, ncols: int):
    """x -> x with each of its ncols lanes of width bits taken mod p, odd p
    below 2^width, in a fixed number of big-integer operations.

    Lanes i, i + k, i + 2k, ... are masked into slots of k * width bits and
    multiplied by m = ceil(2^s / p); each slot then reads floor(x m / 2^s)
    from its bit s up, and x less p times those quotients is x mod p.  The
    quotient is floor(x / p) exactly (Barrett): with e = m p - 2^s, in
    [0, p), and x = q p + r, x m / 2^s = q + (r + x e / 2^s) / p, which
    floors to q whenever x e < 2^s, so for every lane value x < 2^width if
    (2^width - 1) e < 2^s.  With b = p.bit_length(), k = 2 and s = width +
    b - 1 hold x m below 2^(2 width) and each quotient in the slot's bits
    from s; they are taken when that bound holds.  Otherwise k = 3 and s =
    width + b, which are always exact, as x e < 2^width p <= 2^s, and hold
    x m below 2^(2 width + 1).
    """
    k, s = 2, width + p.bit_length() - 1
    if ((1 << width) - 1) * (-(1 << s) % p) >= 1 << s:
        k, s = 3, s + 1
    m, slot = -(-(1 << s) // p), k * width
    lane, quotient = (1 << width) - 1, (1 << slot - s) - 1
    # a 1 at the foot of each of lanes i, i + k, ... below ncols
    ones = [((1 << slot * len(range(i, ncols, k))) - 1) // ((1 << slot) - 1) << width * i for i in range(k)]
    (x0, q0), (x1, q1), *third = [(lane * one, quotient * one) for one in ones]
    if not third:
        return lambda x: x - p * ((x & x0) * m >> s & q0 | (x & x1) * m >> s & q1)
    ((x2, q2),) = third
    return lambda x: x - p * ((x & x0) * m >> s & q0 | (x & x1) * m >> s & q1 | (x & x2) * m >> s & q2)


@lru_cache
def _lane_multiplier(poly: int, ncols: int) -> tuple:
    """(width, times) for rows of ncols elements of GF(2^m), poly the
    reduction polynomial, of degree m; at ncols = 1, the field's product.

    A lane is 1 bit at m = 1, else the fewest of 1, 2, 4 or 5 bytes with a
    bit to spare above m, which ``_row_products``' nonzero test needs.
    times(t, row) is the element t times every lane of row at once: the xor
    of x^j row over the set bits j of t (the region multiplication of Plank,
    Greenan and Miller), x^(j+1) row being x^j row with every lane shifted
    up one bit and low, poly less x^m, added to each lane whose bit m - 1
    was shifted out.
    """
    m = poly.bit_length() - 1
    width = 8 * next(s for s in (1, 2, 4, 5) if 8 * s > m) if m > 1 else 1
    ones = ((1 << width * ncols) - 1) // ((1 << width) - 1)  # a 1 at the foot of every lane
    elements, low = ((1 << m) - 1) * ones, poly ^ 1 << m

    def times(t, row):
        out = row if t & 1 else 0
        while t := t >> 1:
            row = (row << 1 & elements) ^ (row >> m - 1 & ones) * low
            if t & 1:
                out ^= row
        return out

    return width, times


def _lane_bytes(p: int, steps: int) -> int:
    """Bytes per lane of a GF(p) row that takes at most steps lazy steps:
    the smallest of 1, 2, 4 and 8, or failing that the fewest, that hold
    (steps + 2) * p^2."""
    bits = ((steps + 2) * p * p).bit_length()
    return next((s for s in _LANE_CODES if 8 * s >= bits), (bits + 7) // 8)


def _row_products(mat: "Matrix") -> tuple:
    """Pack mat's rows once for many products c @ mat, c a row vector:
    (product, read).

    product takes c, a sequence of mat.rows canonical elements, and gives
    (c @ mat as a row, a bitmask with bit j set iff entry j is nonzero);
    read(row, block) gives the canonical entries of a product's row at the
    columns of the range block, unpacking those alone.  Over GF(2) and
    GF(2^1) the row is an xor of packed rows, which is its own mask.
    Otherwise a column is a lane of W bits: over GF(2^m) the row is an xor
    of rows times elements, in ``_lane_multiplier``'s lanes; over odd p a
    sum of lanes wide enough for mat.rows terms below p^2, reduced mod p.
    Either way each lane is below 2^(W-1), and the nonzero lanes are those
    that adding 2^(W-1) - 1 carries into their top bit.
    """
    f, ncols = mat.field, mat.cols
    if not ncols:
        return (lambda c: (0, 0)), (lambda row, block: ())
    if isinstance(f, PrimeField):
        W, times = 1 if f.p == 2 else 8 * _lane_bytes(f.p, mat.rows), None
    else:
        W, times = _lane_multiplier(f.poly, ncols)
    packed = list(map(_lane_codec(W, ncols)[0], mat._row_tuples()))
    if W == 1:
        product = lambda c: (v := reduce(operator.xor, compress(packed, c), 0), v)
    else:
        B, ones = W // 8, ((1 << W * ncols) - 1) // ((1 << W) - 1)  # ones: a 1 at the foot of every lane
        fill, tops = ((1 << W - 1) - 1) * ones, (1 << W - 1) * ones
        # a lane below 2^(W-1) plus 2^(W-1) - 1 reaches its top bit iff it is
        # nonzero, and carries no further; the top bit is in the lane's last byte
        top_bytes = lambda v: (v + fill & tops).to_bytes(B * ncols, "little")[B - 1 :: B]
        nonzero = lambda v: int(top_bytes(v)[::-1].translate(_TOP_DIGITS), 2)
        if times:
            product = lambda c: (v := reduce(operator.xor, map(times, c, packed), 0), nonzero(v))
        else:
            modp = _lane_reducer(f.p, W, ncols)
            product = lambda c: (v := modp(sum(map(operator.mul, c, packed))), nonzero(v))

    def read(row, block):
        return _lane_codec(W, len(block))[1](row >> W * block.start & (1 << W * len(block)) - 1) if block else ()

    return product, read


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------


class Matrix(Record):
    """Immutable dense matrix over a finite field, row-major entries."""

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple = ()):
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        super().__init__(field, rows, cols, tuple(field.canonical(e) for e in entries))

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, field: Field, rows: int, cols: int, entries: tuple) -> "Matrix":
        """A matrix of canonical entries computed in this module, not re-checked."""
        m = object.__new__(cls)
        vars(m).update(field=field, rows=rows, cols=cols, entries=entries)
        return m

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix._trusted(field, rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        units = ((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
        return Matrix._trusted(field, n, n, tuple(chain.from_iterable(units)))

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        return Matrix(field, r, c, tuple(e for row in rows for e in row))

    @staticmethod
    def from_cols(field: Field, cols: Sequence[Sequence[int]]) -> "Matrix":
        c = len(cols)
        r = len(cols[0]) if c else 0
        if any(len(col) != r for col in cols):
            raise DimensionMismatch("ragged columns")
        return Matrix(field, r, c, tuple(cols[j][i] for i in range(r) for j in range(c)))

    # -- access ---------------------------------------------------------

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols] if self.cols else ()

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def col_list(self) -> list:
        return [list(self.col(j)) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def _row_tuples(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    # -- arithmetic -----------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        bcols = [other.col(j) for j in range(other.cols)]
        if isinstance(f, PrimeField):
            # Python ints do not overflow: one reduction per dot product.
            p = f.p
            out = [sum(map(operator.mul, arow, bcol)) % p for arow in self._row_tuples() for bcol in bcols]
        else:
            out = [reduce(operator.xor, map(f.mul, arow, bcol), 0) for arow in self._row_tuples() for bcol in bcols]
        return Matrix._trusted(f, self.rows, other.cols, tuple(out))

    def add(self, other: "Matrix") -> "Matrix":
        _same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        f = self.field
        return Matrix._trusted(
            f,
            self.rows,
            self.cols,
            tuple(f.add(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def neg(self) -> "Matrix":
        f = self.field
        return Matrix._trusted(f, self.rows, self.cols, tuple(f.neg(a) for a in self.entries))

    def scale(self, c: int) -> "Matrix":
        f = self.field
        c = f.canonical(c)
        return Matrix._trusted(f, self.rows, self.cols, tuple(f.mul(c, a) for a in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix._trusted(
            self.field,
            self.cols,
            self.rows,
            tuple(e for j in range(self.cols) for e in self.col(j)),
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        _same_field(self.field, other.field)
        if self.rows != other.rows:
            raise DimensionMismatch("row count mismatch in hstack")
        return Matrix.hstack_all(self.field, [self, other])

    @staticmethod
    def hstack_all(field: Field, mats: Iterable["Matrix"]) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, 0, 0)
        # the stack's rows are the rows of its columns, each a strided slice
        cols = [m.entries[j :: m.cols] for m in mats for j in range(m.cols)]
        return Matrix._trusted(field, mats[0].rows, len(cols), tuple(chain.from_iterable(zip(*cols))))

    def take_cols(self, js: Sequence[int]) -> "Matrix":
        cols = [self.entries[j :: self.cols] for j in js]  # as in hstack_all
        return Matrix._trusted(self.field, self.rows, len(cols), tuple(chain.from_iterable(zip(*cols))))

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        out = []
        for i in idx:
            out.extend(self.row(i))
        return Matrix._trusted(self.field, len(idx), self.cols, tuple(out))

    # -- elimination ----------------------------------------------------

    def rref(self) -> "Matrix":
        rows, _ = _rref(self.field, self._row_tuples(), self.cols)
        entries = [e for row in rows for e in row]
        entries += [0] * (self.rows * self.cols - len(entries))
        return Matrix._trusted(self.field, self.rows, self.cols, tuple(entries))

    def rank(self) -> int:
        basis = EchelonBasis(self.field, self.cols)
        basis.grow(self._row_tuples())
        return basis.rank

    def nullspace(self) -> "Matrix":
        """Columns form a basis of {x : self @ x = 0}."""
        xs = _null_vectors(self.field, self._row_tuples(), self.cols)
        return Matrix._trusted(self.field, self.cols, len(xs), tuple(chain.from_iterable(zip(*xs))))

    def left_nullspace(self) -> "Matrix":
        """Rows form a basis of {y : y @ self = 0}: the transpose's null
        space, one y per row i of self that depends on the rows before it,
        with y_i = 1 and y 0 at the other such rows.  It eliminates self's
        columns as vectors of length self.rows."""
        ys = _null_vectors(self.field, [self.col(j) for j in range(self.cols)], self.rows)
        return Matrix._trusted(self.field, len(ys), self.rows, tuple(chain.from_iterable(ys)))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = [self.row(i) + (0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
        rows, pivots = _rref(self.field, aug, 2 * n)
        if pivots != list(range(n)):
            raise DivisionByZero("matrix is singular")
        return Matrix._trusted(self.field, n, n, tuple(e for row in rows for e in row[n:]))

    def column_echelon(self) -> "Matrix":
        """Reduced column echelon form with zero columns dropped."""
        cols, _ = _rref(self.field, [self.col(j) for j in range(self.cols)], self.rows)
        return Matrix._trusted(
            self.field, self.rows, len(cols), tuple(col[i] for i in range(self.rows) for col in cols)
        )


# ----------------------------------------------------------------------
# Subspaces
# ----------------------------------------------------------------------


class Subspace(Record):
    """The span of a reduced-column-echelon basis: a subspace of field^n for its field and n rows.

    The canonical basis makes equality of subspaces decidable by entry
    comparison.
    """

    def __init__(self, basis: Matrix):
        if basis.entries != basis.column_echelon().entries:
            raise ValueError("subspace basis must be in reduced column echelon form")
        super().__init__(basis)

    @staticmethod
    def _trusted(basis: Matrix) -> "Subspace":
        """The span of a basis this module put in reduced column echelon form."""
        s = object.__new__(Subspace)
        vars(s).update(basis=basis)
        return s

    @staticmethod
    def from_matrix(mat: Matrix) -> "Subspace":
        return Subspace._trusted(mat.column_echelon())

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.basis.rows:
            raise DimensionMismatch("vector length mismatch")
        basis = EchelonBasis(self.basis.field, self.basis.rows)
        basis.grow(self.basis.col_list())
        return basis.add([self.basis.field.canonical(x) for x in vec]) == 0

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel method: nullspace of [A | -B] projected through A."""
        a, b = self.basis, other.basis
        _same_field(a.field, b.field)
        if a.rows != b.rows:
            raise DimensionMismatch("ambient dimension mismatch")
        if other == self:  # canonical bases: equal subspaces compare equal entry by entry
            return self
        ns = a.hstack(b.neg()).nullspace() if a.cols and b.cols else None
        if ns is None or ns.cols == 0:
            return Subspace._trusted(Matrix.zeros(a.field, a.rows, 0))
        return Subspace.from_matrix(a @ ns.take_rows(range(a.cols)))


# ----------------------------------------------------------------------
# Special vector families
# ----------------------------------------------------------------------


def mds_vector_family(count: int, dim: int, field: Field) -> Matrix:
    """dim x count matrix whose every min(dim, count) columns are independent.

    Column t is the moment vector (1, t, t^2, ..., t^(dim-1)) of the t-th
    field element, t = 0..count-1; any square submatrix built from distinct
    evaluation points is Vandermonde, hence invertible.
    """
    if dim < 1:
        raise DimensionMismatch("dim must be >= 1")
    if field.order < count:
        raise FieldTooSmall(
            f"{field} has {field.order} elements, need at least {count} evaluation points"
        )
    cols = []
    for t in range(count):
        x = field.canonical(t)
        v = [1]
        for _ in range(dim - 1):
            v.append(field.mul(v[-1], x))
        cols.append(v)
    return Matrix.from_cols(field, cols) if cols else Matrix.zeros(field, dim, 0)


def spread_family(n: int) -> list[Subspace]:
    """All 2^(n/2)+1 pairwise-trivially-intersecting (n/2)-dim subspaces of GF(2)^n.

    Views GF(2)^n as GF(2^(n/2))^2 and takes the one-dimensional subspaces
    over the large field: the vertical axis {(0, y)} plus one subspace
    {(x, c*x)} per element c.  Their bases, [I; M_c] and [0; I], are
    already in reduced column echelon form.
    """
    if n % 2 != 0:
        raise OddDimension(f"n={n} is odd")
    if not 2 <= n <= 32:
        raise DimensionMismatch("n out of supported range [2, 32]")
    m = n // 2
    big = BinaryField(m)
    gf2 = PrimeField(2)

    def bits(x: int) -> list[int]:
        return [(x >> i) & 1 for i in range(m)]

    bases = [[bits(1 << i) + bits(big.mul(c, 1 << i)) for i in range(m)] for c in range(big.order)]
    bases.append([[0] * m + bits(1 << i) for i in range(m)])
    return [Subspace._trusted(Matrix.from_cols(gf2, cols)) for cols in bases]
