"""Capacity-achieving schemes for the symmetric families, and built-in examples.

Every builder here gives each message some columns of one beam matrix, through
``scheme.column_scheme``: the beams fix the field and the block length.

Neighboring antidotes: message i rides on columns z_i..z_{i+U} of
``mds_vector_family(K, n)``, over GF(p) for p the smallest prime at least K,
where any n columns are independent, so adjacent messages overlap
in U dimensions and the K-A-1 interferers at each destination collapse into
U + (K-A-1) dimensions (at A = K-2, one interferer: built with U = 0).

Neighboring interference and the X family use GF(2) identity columns assigned
periodically, as antidotes does at A = K-1 with n = 1; ``_unit_column_scheme``
builds all three.  The divisibility preconditions of the generators are exactly
what keeps the periodic assignment consistent around the circle.  Worked
examples 1 and 2 take identity columns too, over any field.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParams, Record
from .galois import Field, Matrix, PrimeField, mds_vector_family
from .model import (
    Destination,
    Instance,
    _check_neighboring_antidotes,
    _check_neighboring_interference,
    _check_x_network,
    _family_instance,
)
from .scheme import LinearScheme, check_scheme_size, column_scheme


def _unit_column_scheme(n: int, columns: list) -> LinearScheme:
    """The GF(2) scheme of block length n in which message m rides on
    identity column ``columns[m - 1]`` (0-based)."""
    check_scheme_size(n, len(columns))
    return column_scheme(Matrix.identity(PrimeField(2), n), {m: [c] for m, c in enumerate(columns, start=1)})


def build_antidote_scheme(K: int, U: int, D: int) -> LinearScheme:
    """Rate-(U+1)/(K-A+2U) scheme for gen_neighboring_antidotes(K, U, D), A = U+D.

    At A = K-2 each destination faces one interferer, so U = 0: one MDS beam
    per message at n = 2, rate 1/2.  At A = K-1 all other messages are held:
    one GF(2) use, rate 1; the construction would give (U+1)/(2U+1) over GF(p).
    """
    _check_neighboring_antidotes(K, U, D)
    A = U + D
    if A == K - 1:
        return _unit_column_scheme(1, [0] * K)
    if A == K - 2:
        U = 0  # a single interferer: nothing to align
    n = K - A + 2 * U
    check_scheme_size(n, K * (U + 1))
    return column_scheme(mds_vector_family(K, n), {i: [(i - 1 + t) % K for t in range(U + 1)] for i in range(1, K + 1)})


def build_interference_scheme(K: int, U: int, D: int) -> LinearScheme:
    """Rate-1/(D+1) XOR scheme for gen_neighboring_interference(K, U, D).

    Message i is sent on identity column (i-1) mod (D+1); the U up-interferers
    land on the same columns as U of the D down-interferers.
    """
    _check_neighboring_interference(K, U, D)
    return _unit_column_scheme(D + 1, [i % (D + 1) for i in range(K)])


def x_precoder_pattern(L: int) -> list:
    """(L+1) x L table of vector indices (1-based) with period L(L+1).

    Diagonal g (g-th future destination's demands inside a window) holds
    vector indices offset(g)..offset(g)+L-g-1; each vector appears a second
    time one row above the diagonal's start, which is what aligns the two
    interference occurrences inside every L-row window.
    """
    if L < 1:
        raise BadParams("need L >= 1")
    table = [[0] * L for _ in range(L + 1)]
    idx = 1
    for g in range(L):
        for p in range(L - g):
            table[g + p][L - 1 - p] = idx
            table[(g - 1) % (L + 1)][p] = idx
            idx += 1
    return table


def build_x_scheme(K: int, L: int) -> LinearScheme:
    """Rate-2/(L(L+1)) identity-column scheme for gen_x_network(K, L)."""
    _check_x_network(K, L)
    pattern = [v - 1 for row in x_precoder_pattern(L) for v in row]  # period L(L+1)
    return _unit_column_scheme(L * (L + 1) // 2, [pattern[m % len(pattern)] for m in range(K * L)])


# ----------------------------------------------------------------------
# built-in worked examples
# ----------------------------------------------------------------------


class BuiltinExample(Record):
    def __init__(self, id: int, instance: Instance, scheme: LinearScheme, claimed_rate: Fraction):
        super().__init__(id, instance, scheme, claimed_rate)


def _example1(field: Field) -> BuiltinExample:
    # Three messages on a two-dimensional broadcast: messages 2 and 3 share a
    # beam, destination 1 reads the clean coordinate, destinations 2 and 3
    # cancel each other via their antidotes.
    inst = Instance(
        3,
        (
            Destination(1, frozenset({1}), frozenset()),
            Destination(2, frozenset({2}), frozenset({3})),
            Destination(3, frozenset({3}), frozenset({2})),
        ),
    )
    V = column_scheme(Matrix.identity(field, 2), {1: [1], 2: [0], 3: [0]}).V
    U = {(k, k): v.transpose() for k, v in V.items()}  # U_{k,k} = V_k^T reads the coordinates V_k occupies
    return BuiltinExample(1, inst, LinearScheme(field, 2, V, U), Fraction(1, 2))


def _example2(field: Field) -> BuiltinExample:
    # Five messages, five destinations on a circle; destination k holds the
    # messages at circular distance two and faces its two unit-distance
    # neighbors as interference.  Two streams per message pair up on five
    # basis vectors over n = 5 uses.
    dests = []
    for k in range(1, 6):
        has = frozenset({(k + 1) % 5 + 1, (k + 2) % 5 + 1})
        dests.append(Destination(k, frozenset({k}), has))
    inst = Instance(5, tuple(dests))
    V = column_scheme(Matrix.identity(field, 5), {k: [2 * k % 5, (2 * k + 1) % 5] for k in range(1, 6)}).V
    U = {(k, k): v.transpose() for k, v in V.items()}  # U_{k,k} = V_k^T reads the coordinates V_k occupies
    return BuiltinExample(2, inst, LinearScheme(field, 5, V, U), Fraction(2, 5))


def _example3(field: Field) -> BuiltinExample:
    # Fifteen messages, five destinations: the K=5, L=3 locally connected X
    # setting.  Three desired symbols per destination; six interferers align
    # into three dimensions, some only subspace-wise (V_8, V_10, V_11, V_14
    # are genuine multi-term combinations).
    inst = _family_instance("x-network", 15, K=5, L=3)

    def t(i):
        return tuple(1 if r == i - 1 else 0 for r in range(6))

    cols = [  # column m - 1 is message m's beam
        t(6),
        t(4),
        t(1),
        t(5),
        t(2),
        t(6),
        t(3),
        (0, 0, 0, 1, 1, 1),  # V_8
        t(5),
        (1, 1, 1, -1, -1, 0),  # V_10
        (0, 1, 1, 0, -1, 0),  # V_11
        t(3),
        t(1),
        (1, 1, 0, 0, 0, 1),  # V_14
        (1, 1, 1, -1, -1, 0),
    ]
    V = column_scheme(Matrix.from_cols(field, cols), {m: [m - 1] for m in range(1, 16)}).V
    U_rows = {
        (3, 1): [1, 0, 0, 0, 0, 0],
        (5, 1): [0, 1, 0, 0, 0, 0],
        (7, 1): [0, 0, 1, 0, 0, 0],
        (6, 2): [-1, 0, 0, -1, 0, 1],
        (8, 2): [1, 0, 0, 1, 0, 0],
        (10, 2): [1, 0, 0, 0, 0, 0],
        (9, 3): [0, 1, 0, 0, 1, -1],
        (11, 3): [0, 1, 0, 1, 0, -1],
        (13, 3): [1, 0, 0, 1, 0, -1],
        (12, 4): [0, 0, 1, 0, 1, 0],
        (14, 4): [0, 1, 0, 0, 1, 0],
        (1, 4): [0, -1, 0, 0, -1, 1],
        (15, 5): [0, 0, 1, 0, 0, 0],
        (2, 5): [0, 0, 1, 1, 0, 0],
        (4, 5): [0, 0, 1, 0, 1, 0],
    }
    U = {key: Matrix.from_rows(field, [row]) for key, row in U_rows.items()}
    return BuiltinExample(3, inst, LinearScheme(field, 6, V, U), Fraction(1, 6))


def builtin_example(example_id: int, field: Field | None = None) -> BuiltinExample:
    """The three worked examples, over GF(2) by default (any field verifies)."""
    if field is None:
        field = PrimeField(2)
    builders = {1: _example1, 2: _example2, 3: _example3}
    if example_id not in builders:
        raise BadParams(f"example id must be 1, 2 or 3, got {example_id}")
    return builders[example_id](field)
