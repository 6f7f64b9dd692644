"""Naive Gauss-Jordan elimination: the independent reference for galois's kernel.

Rows are plain lists and every entry of every row operation goes through the
field's scalar methods, so nothing here shares code with the kernel beyond
the field objects.  Matrices are lists of rows; vectors are lists.
"""


def rref(field, rows, ncols):
    """(reduced row echelon form, all rows kept, and its pivot columns)."""
    a = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                coef = a[i][c]
                a[i] = [field.add(x, field.neg(field.mul(coef, y))) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def rank(field, rows, ncols):
    return len(rref(field, rows, ncols)[1])


def nullspace(field, rows, ncols):
    """Basis of {x : A x = 0}, one vector per free column, in column order."""
    a, pivots = rref(field, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(a[r][fc])
        basis.append(v)
    return basis


def left_nullspace(field, rows, ncols):
    """Basis of {y : y A = 0}."""
    return nullspace(field, transpose(rows, ncols), len(rows))


def complement_columns(field, rows, ncols):
    """Indices, ascending, of the identity columns e_j that a greedy walk
    appends to A's columns because each grows the rank of A's columns and
    the e_j chosen before it."""
    n = len(rows)
    vectors = transpose(rows, ncols)
    chosen = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        if rank(field, vectors + [e], n) > rank(field, vectors, n):
            vectors.append(e)
            chosen.append(j)
    return chosen


def inverse(field, rows):
    """Rows of the inverse of a square matrix, or None when it is singular."""
    n = len(rows)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(rows)]
    a, pivots = rref(field, aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in a]


def column_echelon(field, rows, ncols):
    """Columns of the reduced column echelon form, zero columns dropped."""
    a, pivots = rref(field, transpose(rows, ncols), len(rows))
    return a[: len(pivots)]


def matmul(field, a, b, ncols):
    """a @ b, where b has `ncols` columns, by scalar field operations."""
    out = []
    for row in a:
        out_row = []
        for j in range(ncols):
            acc = 0
            for k, x in enumerate(row):
                acc = field.add(acc, field.mul(x, b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out
