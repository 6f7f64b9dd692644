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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    FieldTooSmall,
    OddDimension,
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


def _poly_mulmod(a: int, b: int, f: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a.bit_length() > _poly_degree(f):
            a = _poly_mod(a, f)
    return r


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _x_to_2k_mod(f: int, k: int) -> int:
    """x^(2^k) mod f, by k squarings of x."""
    t = _poly_mod(0b10, f)
    for _ in range(k):
        t = _poly_mulmod(t, t, f)
    return t


def is_irreducible_gf2(f: int) -> bool:
    """Exhaustive irreducibility check for a binary polynomial.

    Uses the standard criterion: x^(2^m) == x mod f, and for every prime
    divisor q of m, gcd(x^(2^(m/q)) - x, f) == 1.
    """
    m = _poly_degree(f)
    if m <= 0:
        return False
    if m == 1:
        return True
    if _x_to_2k_mod(f, m) != _poly_mod(0b10, f):
        return False
    q = 2
    mm = m
    prime_divs = []
    while q * q <= mm:
        if mm % q == 0:
            prime_divs.append(q)
            while mm % q == 0:
                mm //= q
        q += 1
    if mm > 1:
        prime_divs.append(mm)
    for q in prime_divs:
        t = _x_to_2k_mod(f, m // q) ^ _poly_mod(0b10, f)
        if _poly_gcd(f, t) != 1:
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


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p < 2^31."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2**31) or not _is_prime(self.p):
            raise ValueError(f"p={self.p} is not a prime in [2, 2^31)")

    kind = "prime"

    @property
    def order(self) -> int:
        return self.p

    def canonical(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> range:
        return range(self.p)

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"


@dataclass(frozen=True)
class BinaryField:
    """GF(2^m), 1 <= m <= 32, with an irreducible reduction polynomial."""

    m: int
    poly: int = 0  # 0 means "use the default table"

    def __post_init__(self):
        if not 1 <= self.m <= 32:
            raise ValueError(f"extension degree m={self.m} out of range [1, 32]")
        if self.poly == 0:
            object.__setattr__(self, "poly", default_reduction_poly(self.m))
        if _poly_degree(self.poly) != self.m or not is_irreducible_gf2(self.poly):
            raise ValueError(
                f"reduction polynomial {bin(self.poly)} is not irreducible of degree {self.m}"
            )

    kind = "binary-extension"

    @property
    def order(self) -> int:
        return 1 << self.m

    def canonical(self, a: int) -> int:
        return _poly_mod(a, self.poly) if a >= self.order or a < 0 else a

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        return a ^ b

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        return _poly_mulmod(a, b, self.poly)

    def inv(self, a: int) -> int:
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

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> range:
        return range(self.order)

    def to_json(self) -> dict:
        return {"kind": "gf2m", "m": self.m, "poly": self.poly}

    def __repr__(self):
        return f"GF(2^{self.m})"


Field = PrimeField | BinaryField


def field_from_json(obj: dict) -> Field:
    kind = obj.get("kind")
    if kind == "prime":
        return PrimeField(obj["p"])
    if kind == "gf2m":
        return BinaryField(obj["m"], obj.get("poly", 0))
    raise ValueError(f"unknown field kind {kind!r}")


def _same_field(a: Field, b: Field):
    if a != b:
        raise FieldMismatch(f"mixed fields {a} and {b}")


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over a finite field, row-major entries."""

    field: Field
    rows: int
    cols: int
    entries: tuple = dc_field(default=())

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )
        object.__setattr__(
            self, "entries", tuple(self.field.canonical(e) for e in self.entries)
        )

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(
            field, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        )

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

    def __getitem__(self, rc) -> int:
        r, c = rc
        return self.entries[r * self.cols + c]

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

    # -- arithmetic -----------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        out = []
        ocols = other.cols
        for i in range(self.rows):
            arow = self.row(i)
            for j in range(ocols):
                acc = 0
                for k in range(self.cols):
                    a = arow[k]
                    if a:
                        b = other.entries[k * ocols + j]
                        if b:
                            acc = f.add(acc, f.mul(a, b))
                out.append(acc)
        return Matrix(f, self.rows, ocols, tuple(out))

    def add(self, other: "Matrix") -> "Matrix":
        _same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        f = self.field
        return Matrix(
            f,
            self.rows,
            self.cols,
            tuple(f.add(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def neg(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, tuple(f.neg(a) for a in self.entries))

    def scale(self, c: int) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, tuple(f.mul(c, a) for a in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            tuple(self.entries[j * self.cols + i] for i in range(self.cols) for j in range(self.rows)),
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        _same_field(self.field, other.field)
        if self.rows != other.rows:
            raise DimensionMismatch("row count mismatch in hstack")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return Matrix(self.field, self.rows, self.cols + other.cols, tuple(out))

    @staticmethod
    def hstack_all(field: Field, mats: Iterable["Matrix"]) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, 0, 0)
        rows = mats[0].rows
        out = []
        for i in range(rows):
            for m in mats:
                out.extend(m.row(i))
        return Matrix(field, rows, sum(m.cols for m in mats), tuple(out))

    def take_cols(self, js: Sequence[int]) -> "Matrix":
        out = []
        for i in range(self.rows):
            row = self.row(i)
            out.extend(row[j] for j in js)
        return Matrix(self.field, self.rows, len(js), tuple(out))

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        out = []
        for i in idx:
            out.extend(self.row(i))
        return Matrix(self.field, len(idx), self.cols, tuple(out))

    # -- elimination ----------------------------------------------------

    def _rref(self):
        """Reduced row echelon form; returns (rows as lists, pivot columns)."""
        f = self.field
        a = [list(self.row(i)) for i in range(self.rows)]
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, self.rows) if a[i][c] != 0), None)
            if pr is None:
                continue
            a[r], a[pr] = a[pr], a[r]
            inv = f.inv(a[r][c])
            a[r] = [f.mul(inv, x) for x in a[r]]
            for i in range(self.rows):
                if i != r and a[i][c] != 0:
                    coef = a[i][c]
                    a[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return a, pivots

    def rref(self) -> "Matrix":
        a, _ = self._rref()
        return Matrix.from_rows(self.field, a) if self.rows else self

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        _, pivots = self._rref()
        return len(pivots)

    def nullspace(self) -> "Matrix":
        """Columns form a basis of {x : self @ x = 0}."""
        f = self.field
        if self.cols == 0:
            return Matrix.zeros(f, 0, 0)
        a, pivots = self._rref()
        free = [c for c in range(self.cols) if c not in pivots]
        cols = []
        for fc in free:
            v = [0] * self.cols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(a[r][fc])
            cols.append(v)
        return Matrix.from_cols(f, cols) if cols else Matrix.zeros(f, self.cols, 0)

    def left_nullspace(self) -> "Matrix":
        """Rows form a basis of {y : y @ self = 0}."""
        ns = self.transpose().nullspace()
        return ns.transpose()

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        aug = self.hstack(Matrix.identity(self.field, self.rows))
        a, pivots = aug._rref()
        if pivots != list(range(self.rows)):
            raise DivisionByZero("matrix is singular")
        return Matrix.from_rows(self.field, [row[self.rows :] for row in a])

    def column_echelon(self) -> "Matrix":
        """Reduced column echelon form with zero columns dropped."""
        red = self.transpose().rref()
        rows = [list(red.row(i)) for i in range(red.rows) if any(red.row(i))]
        if not rows:
            return Matrix.zeros(self.field, self.rows, 0)
        return Matrix.from_rows(self.field, rows).transpose()


def rank_and_nullspace(m: Matrix) -> tuple[int, Matrix]:
    """Rank of m and a basis (as columns) of its right nullspace."""
    return m.rank(), m.nullspace()


# ----------------------------------------------------------------------
# Subspaces
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of field^n with a reduced-column-echelon basis.

    The canonical basis makes equality of subspaces decidable by entry
    comparison.
    """

    field: Field
    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise DimensionMismatch("basis rows must equal the ambient dimension")
        if self.basis.entries != self.basis.column_echelon().entries:
            raise ValueError("subspace basis must be in reduced column echelon form")

    @staticmethod
    def from_matrix(mat: Matrix) -> "Subspace":
        return Subspace(mat.field, mat.rows, mat.column_echelon())

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        col = Matrix.from_cols(self.field, [list(vec)])
        return self.basis.hstack(col).rank() == self.dim

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel method: nullspace of [A | -B] projected through A."""
        _same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        a, b = self.basis, other.basis
        if a.cols == 0 or b.cols == 0:
            return Subspace(self.field, self.ambient_dim, Matrix.zeros(self.field, self.ambient_dim, 0))
        ns = a.hstack(b.neg()).nullspace()
        x_part = ns.take_rows(range(a.cols)) if ns.cols else Matrix.zeros(self.field, a.cols, 0)
        return Subspace.from_matrix(a @ x_part) if ns.cols else Subspace(
            self.field, self.ambient_dim, Matrix.zeros(self.field, self.ambient_dim, 0)
        )


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    return a.intersect(b)


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
    {(x, c*x)} per element c.
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

    out = []
    # {(x, c*x) : x in GF(2^m)} for each c, then the vertical axis {(0, y)}.
    for c in range(big.order):
        cols = []
        for i in range(m):
            e = 1 << i
            cols.append(bits(e) + bits(big.mul(c, e)))
        out.append(Subspace.from_matrix(Matrix.from_cols(gf2, cols)))
    cols = [[0] * m + bits(1 << i) for i in range(m)]
    out.append(Subspace.from_matrix(Matrix.from_cols(gf2, cols)))
    return out
