"""Brute-force ground truth: minrank over GF(2) and scalar-scheme search.

Both oracles are exact searches with pruning (no sampling): a depth-first
loop over an explicit stack visits candidates, generated as they are tried,
in a fixed order and skips a subtree only when no candidate in it can count
(the scalar search decides each length up to a change of basis).  The
budget counts nodes, one per candidate row or beam tried, pruned ones
included, and nothing else limits an instance.  The reported size is the
full space.  Witnesses re-verify through the scheme verifier, keeping the
oracle and the verifier independent code paths.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional

from .errors import BadParams, BudgetExceeded, Record
from .galois import EchelonBasis, Field, Matrix, PrimeField
from .model import Instance
from .scheme import LinearScheme, column_scheme, scheme_to_json, synthesize_decoders

DEFAULT_ORACLE_BUDGET = 2**20


class OracleResult(Record):
    def __init__(
        self,
        query: str,
        value: Optional[int],
        search_space_size: int,
        witness_matrix: Optional[Matrix] = None,
        witness_scheme: Optional[LinearScheme] = None,
    ):
        super().__init__(query, value, search_space_size, witness_matrix, witness_scheme)

    def to_json(self) -> dict:
        out = {
            "query": self.query,
            "value": self.value,
            "search_space_size": self.search_space_size,
        }
        if self.witness_matrix is not None:
            out["witness_matrix"] = self.witness_matrix.row_list()
        if self.witness_scheme is not None:
            out["witness_scheme"] = scheme_to_json(self.witness_scheme)
        return out


def _antidotes_by_message(inst: Instance) -> dict:
    """message -> the antidotes of the one destination that wants it; requires square unicast."""
    wanted = Counter(m for d in inst.destinations for m in d.wants)
    if max(wanted.values(), default=0) > 1:
        raise BadParams("oracle requires a multiple unicast instance")
    if any(len(d.wants) != 1 for d in inst.destinations):
        raise BadParams("oracle requires single-demand destinations")
    if len(wanted) != inst.num_messages:
        raise BadParams("every message must be desired by exactly one destination")
    return {m: d.has for d in inst.destinations for m in d.wants}


def minrank_gf2(inst: Instance, budget: int = DEFAULT_ORACLE_BUDGET) -> OracleResult:
    """Minimum rank over GF(2) of matrices fitting the side-information graph.

    Fitting: unit diagonal, zero wherever neither the diagonal nor an
    antidote permits a nonzero entry, free on antidote positions.  The value
    equals the optimal scalar-linear broadcast length over GF(2); the witness
    matrix gives a scheme of that length (`_scheme_from_fitting`).

    Exact search with pruning over at most `budget` nodes, one per candidate
    row tried; the reported size is the full space.  The witness is the first
    matrix of least rank in numeric order of the free entries, free entry idx
    as bit idx.
    """
    antidotes = _antidotes_by_message(inst)
    K = inst.num_messages
    # free[i]: the columns of row i's free entries, the antidotes of message i + 1
    free = [[mp - 1 for mp in sorted(antidotes[i + 1])] for i in range(K)]

    gf2 = PrimeField(2)
    empty = EchelonBasis(gf2, K)
    # a 0/1 row packs to the sum of its unit rows packed, as no two share a column
    unit = [empty.unit(c) for c in range(K)]

    def rows(i):
        """Row i's candidates, packed: its free-entry patterns in increasing order."""
        choices = [(0, unit[c]) for c in reversed(free[i])]  # the last varies fastest
        return (unit[i] + sum(units) for units in itertools.product(*choices))

    best, best_rows, fixed, nodes = K + 1, None, [None] * K, 0
    # free entries run row by row, so numeric order of them fixes row K first
    # and row 1 last, each row's patterns in increasing order
    stack = [(K - 1, rows(K - 1), empty)]
    while stack:
        i, candidates, basis = stack[-1]
        row = next(candidates, None)
        if row is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            found = f"best rank so far {best}" if best_rows else "no full matrix yet"
            raise BudgetExceeded(f"minrank search exceeded {budget} nodes ({found})")
        child = basis.copy()
        child.add_row(row)
        if child.rank >= best:
            continue  # the rank only grows: nothing below can beat the best
        fixed[i] = row
        if i:
            stack.append((i - 1, rows(i - 1), child))
        else:
            best, best_rows = child.rank, list(fixed)

    fitting = Matrix.from_rows(gf2, list(map(empty.unpack, best_rows)))
    scheme = _scheme_from_fitting(inst, fitting, best)
    return OracleResult(
        query=f"minrank over GF(2), {K} messages",
        value=best,
        search_space_size=2 ** sum(map(len, free)),
        witness_matrix=fitting,
        witness_scheme=scheme,
    )


def _scheme_from_fitting(inst, fitting, rank):
    """The n = rank scalar scheme of a fitting matrix: message m's beam is
    column m of the reduced rows, and ``synthesize_decoders`` finds the
    combiners (row m of the fitting matrix, over the reduced rows, is one)."""
    rows = fitting.rref().take_rows(range(rank))
    return synthesize_decoders(inst, column_scheme(rows, {m: [m - 1] for m in range(1, inst.num_messages + 1)}))


def best_scalar_scheme(
    inst: Instance,
    q: int,
    n_max: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> OracleResult:
    """Smallest block length n <= n_max with a valid scalar scheme over GF(q).

    Validity is invariant under an invertible change of basis and per-beam
    scaling, so each length is decided up to them (canonical augmentation,
    B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
    1998).  Returns value=None when no length works.

    Exact search with pruning over at most `budget` nodes in all, one per
    beam tried; the reported size is the full space of every length tried.
    The witness is the first valid assignment in message order when message
    m takes, in order, the projective representatives supported on the
    first r coordinates (r the dimension the earlier beams span), then
    e_{r+1}.
    """
    if n_max < 1:
        raise BadParams(f"n_max must be at least 1, got {n_max}")
    try:
        field = PrimeField(q)
    except ValueError:
        raise BadParams(f"q must be a prime in [2, 2^31), got {q}") from None
    M = inst.num_messages
    query = f"best scalar scheme over GF({q}), n <= {n_max}"
    roles = [[] for _ in range(M + 1)]  # message -> (destination index, desired?), for every length
    for i, d in enumerate(inst.destinations):
        for m in d.wants:
            roles[m].append((i, True))
        for m in inst.interferers(d):
            roles[m].append((i, False))
    checked_total = nodes = 0
    for n in range(1, n_max + 1):
        checked_total += ((q**n - 1) // (q - 1)) ** (M - 1)
        beams, nodes = _first_valid_beams(inst, roles, field, n, nodes, budget)
        if beams is not None:
            witness = column_scheme(Matrix.from_cols(field, beams), {m: [m - 1] for m in range(1, M + 1)})
            return OracleResult(query, n, checked_total, witness_scheme=witness)
    return OracleResult(query, None, checked_total)


def _canonical(field: Field, n: int, r: int, inside: bool = True):
    """A message's beams up to a change of basis fixing the beams before it,
    which span the first r unit vectors of field^n: the projective
    representatives supported on those r coordinates (leading nonzero
    coordinate 1, in itertools.product order, so the later the leading 1, the
    earlier the vector) if inside, then the next unit vector if r < n."""
    pad = (0,) * (n - r)
    if inside:
        for lead in reversed(range(r)):
            for tail in itertools.product(field.elements(), repeat=r - 1 - lead):
                yield (0,) * lead + (1,) + tail + pad
    if r < n:
        yield (0,) * r + (1,) + pad[1:]


def _first_valid_beams(inst, roles, field, n, nodes, budget):
    """(The first valid beam assignment or None; the nodes visited so far,
    this search's added).  roles[m] lists (destination index, desired?)
    for each destination that wants message m or has it as interference.

    Message m ranges over _canonical(field, n, r), r the dimension of the
    span of the beams before it (message 1 takes e_1 alone).  Every
    assignment is equivalent to one of those under a change of basis and
    per-beam scaling, which keep validity.  A destination that wants m and
    already has joint rank r holds all of span(e_1..e_r), where no beam of
    m can be placed, so m is then offered e_{r+1} alone.

    Beams are placed in message order, and each destination carries the span
    of its desired beams placed so far (W) and of its interference beams (I),
    joint and alone.  Rank-mode validity asks that the deficit
    |W| + rank I - rank(W + I) be 0 at every destination.  The deficit is
    (|W| - rank W) + dim(span W meet span I), and adding beams never shrinks
    either term.  So each beam placed must leave it at 0, or the subtree is
    cut: a desired beam must grow the joint span, and an interference beam
    must grow it exactly when it grows the interference span.
    """
    M = inst.num_messages
    beams = [None] * M
    empty = EchelonBasis(field, n)

    def place(m, state):
        """state with message m's beam added, or None if a deficit appears."""
        state = list(state)
        beam = empty.pack(beams[m - 1])  # one row for every basis it joins
        for i, desired in roles[m]:
            joint, interference = state[i]
            joint = joint.copy()
            if desired:
                kept = joint.add_row(beam)
            else:
                interference = interference.copy()
                kept = joint.add_row(beam) == interference.add_row(beam)
            if not kept:
                return None
            state[i] = joint, interference
        return state

    # each entry: message, its candidates, the span dimension r of the beams
    # before it, the destinations' state; _canonical(field, n, 0) is e_1 alone
    stack = [(1, _canonical(field, n, 0), 0, [(empty, empty)] * len(inst.destinations))]
    while stack:
        m, candidates, r, state = stack[-1]
        beams[m - 1] = next(candidates, None)
        if beams[m - 1] is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"scalar search exceeded {budget} nodes (at n = {n}; no scheme is shorter)")
        child = place(m, state)
        if child is None:
            continue
        if m == M:
            return beams, nodes
        r += r < n and beams[m - 1][r] != 0  # the next unit vector grows the span
        inside = all(not desired or child[i][0].rank < r for i, desired in roles[m + 1])
        stack.append((m + 1, _canonical(field, n, r, inside), r, child))
    return None, nodes
