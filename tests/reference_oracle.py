"""The two oracles as plain exhaustive loops, kept as a reference.

``icx.oracle`` searches depth-first and prunes; these loops try every
candidate.  Both must return the same value, the same witness and the
same search-space size.  The helpers that read the demand and turn a
winning candidate into a result (each message's antidotes, the scheme of a
fitting matrix) are shared with the package; the candidates, and the order
that picks the scalar witness, are listed here.  These loops keep the size limits the package had before its
searches counted nodes.
"""

import itertools

from icx.errors import BadParams, BudgetExceeded
from icx.galois import EchelonBasis, Matrix, PrimeField
from icx.oracle import (
    DEFAULT_ORACLE_BUDGET,
    OracleResult,
    _antidotes_by_message,
    _scheme_from_fitting,
)
from icx.scheme import LinearScheme


def minrank_gf2(inst, budget=DEFAULT_ORACLE_BUDGET):
    """Every fitting matrix in numeric order of its free entries, free entry
    idx as bit idx; the first of least rank is the witness."""
    antidotes = _antidotes_by_message(inst)
    K = inst.num_messages
    if K > 6:
        raise BudgetExceeded(f"minrank search is limited to 6 messages, got {K}")
    free = [(m, mp) for m in range(1, K + 1) for mp in sorted(antidotes[m])]
    if 2 ** len(free) > budget:
        raise BudgetExceeded(f"2^{len(free)} fitting matrices exceed budget {budget}")

    gf2 = PrimeField(2)
    best, best_rows = K + 1, None
    unit = Matrix.identity(gf2, K).row_list()
    for bits in range(2 ** len(free)):
        rows = [row[:] for row in unit]
        for idx, (m, mp) in enumerate(free):
            if bits >> idx & 1:
                rows[m - 1][mp - 1] = 1
        basis = EchelonBasis(gf2, K)
        for row in rows:
            if basis.add(row) and basis.rank == best:
                break  # the rank only grows: this matrix cannot beat the best
        else:
            best, best_rows = basis.rank, rows

    fitting = Matrix.from_rows(gf2, best_rows)
    scheme = _scheme_from_fitting(inst, fitting, best)
    return OracleResult(
        query=f"minrank over GF(2), {K} messages",
        value=best,
        search_space_size=2 ** len(free),
        witness_matrix=fitting,
        witness_scheme=scheme,
    )


def best_scalar_scheme(inst, q, n_max, budget=DEFAULT_ORACLE_BUDGET, limits=True):
    """Every beam assignment in itertools.product order, for n = 1, 2, ...,
    until a length has a valid one.  The witness is the valid assignment of
    least canonical key (_canonical_key), one without a key ranking after
    every one with a key and the first of those in product order.
    limits=False lifts the size limits, not the budget."""
    if n_max < 1:
        raise BadParams(f"n_max must be at least 1, got {n_max}")
    try:
        field = PrimeField(q)
    except ValueError:
        raise BadParams(f"q must be a prime in [2, 2^31), got {q}") from None
    if limits and (inst.num_messages > 6 or q > 3 or n_max > 3):
        raise BudgetExceeded("scalar search is limited to M <= 6, q <= 3, n <= 3")
    M = inst.num_messages
    checked_total = 0
    for n in range(1, n_max + 1):
        reps = _projective_reps(field, n)
        space = len(reps) ** (M - 1)
        if space > budget:
            raise BudgetExceeded(f"{len(reps)}^{M - 1} assignments exceed budget {budget}")
        checked_total += space
        index = [{rep: i for i, rep in enumerate(_projective_reps(field, r))} for r in range(n + 1)]
        e1 = tuple(1 if i == 0 else 0 for i in range(n))
        best = None  # (rank, beams) of the best valid assignment so far
        for rest in itertools.product(reps, repeat=M - 1):
            beams = (e1,) + rest
            key = _canonical_key(index, beams)
            rank = (key is None, key or ())
            if (best is None or rank < best[0]) and _scalar_assignment_valid(inst, field, beams):
                best = rank, beams
        if best is not None:
            beams = best[1]
            V = {m: Matrix.from_cols(field, [list(beams[m - 1])]) for m in range(1, M + 1)}
            scheme = LinearScheme(field, n, V)
            return OracleResult(
                query=f"best scalar scheme over GF({q}), n <= {n_max}",
                value=n,
                search_space_size=checked_total,
                witness_scheme=scheme,
            )
    return OracleResult(
        query=f"best scalar scheme over GF({q}), n <= {n_max}",
        value=None,
        search_space_size=checked_total,
    )


def _canonical_key(index, beams):
    """Each beam's position among its canonical candidates, or None if some
    beam is not among them.  With the beams before it spanning the first r
    unit vectors, a beam's candidates are the projective representatives of
    field^r padded with zeros (index[r] maps each to its position), then the
    next unit vector."""
    n, r, key = len(beams[0]), 0, []
    for beam in beams:
        head, tail = beam[:r], beam[r:]
        if not any(tail) and head in index[r]:
            key.append(index[r][head])
        elif beam == tuple(int(i == r) for i in range(n)):
            key.append(len(index[r]))
            r += 1
        else:
            return None
    return tuple(key)


def _projective_reps(field, n):
    """Nonzero vectors of field^n with leading nonzero coordinate equal 1."""
    reps = []
    for vec in itertools.product(field.elements(), repeat=n):
        lead = next((x for x in vec if x != 0), None)
        if lead == 1:
            reps.append(vec)
    return reps


def _scalar_assignment_valid(inst, field, beams):
    """Rank-mode validity specialized to one beam per message: at every
    destination the desired beams are independent, and adding the
    interference beams to them grows the rank by the interference's own rank."""
    n = len(beams[0])
    for d in inst.destinations:
        joint = EchelonBasis(field, n)
        for m in d.wants:
            if not joint.add(beams[m - 1]):
                return False
        interference = EchelonBasis(field, n)
        for i in inst.interferers(d):
            interference.add(beams[i - 1])
            joint.add(beams[i - 1])
        if joint.rank != len(d.wants) + interference.rank:
            return False
    return True
