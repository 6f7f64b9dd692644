"""Brute-force ground truth: minrank over GF(2) and scalar-scheme search.

Both oracles are exact searches with pruning (no sampling, hard budgets):
a depth-first search visits the candidates in a fixed order and skips a
subtree only when no candidate in it can count.  The reported size is the
full space.  Witnesses re-verify through the scheme verifier, keeping the
oracle and the verifier independent code paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import BadParams, BudgetExceeded
from .galois import EchelonBasis, Field, Matrix, PrimeField
from .model import Instance
from .scheme import LinearScheme

DEFAULT_ORACLE_BUDGET = 2**20


@dataclass(frozen=True)
class OracleResult:
    query: str
    value: Optional[int]
    search_space_size: int
    witness_matrix: Optional[Matrix] = None
    witness_scheme: Optional[LinearScheme] = None

    def to_json(self) -> dict:
        from .scheme import scheme_to_json

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


def _desired_message_of(inst: Instance) -> dict:
    """destination id -> its unique desired message; requires square unicast."""
    if not inst.is_multiple_unicast():
        raise BadParams("oracle requires a multiple unicast instance")
    mapping = {}
    desired = set()
    for d in inst.destinations:
        if len(d.wants) != 1:
            raise BadParams("oracle requires single-demand destinations")
        (m,) = d.wants
        mapping[d.id] = m
        desired.add(m)
    if desired != set(range(1, inst.num_messages + 1)):
        raise BadParams("every message must be desired by exactly one destination")
    return mapping


def minrank_gf2(inst: Instance, budget: int = DEFAULT_ORACLE_BUDGET) -> OracleResult:
    """Minimum rank over GF(2) of matrices fitting the side-information graph.

    Fitting: unit diagonal, zero wherever neither the diagonal nor an
    antidote permits a nonzero entry, free on antidote positions.  The value
    equals the optimal scalar-linear broadcast length over GF(2); the witness
    matrix is rank-factored into an encoding scheme of that length.

    Exact search with pruning; the reported size is the full space.  The
    witness is the first matrix of least rank in numeric order of the free
    entries, free entry idx as bit idx.
    """
    demand = _desired_message_of(inst)
    K = inst.num_messages
    if K > 6:
        raise BudgetExceeded(f"minrank search is limited to 6 messages, got {K}")
    dest_of = {m: k for k, m in demand.items()}
    free = []
    for m in range(1, K + 1):
        d = inst.destination(dest_of[m])
        for mp in sorted(d.has):
            free.append((m, mp))
    if 2 ** len(free) > budget:
        raise BudgetExceeded(f"2^{len(free)} fitting matrices exceed budget {budget}")

    gf2 = PrimeField(2)
    # free runs row by row, so numeric order of the free entries fixes row K
    # first and row 1 last, each row's patterns in increasing order.
    options = []
    for m in range(1, K + 1):
        cols = [mp - 1 for r, mp in free if r == m]
        rows = []
        for pattern in range(2 ** len(cols)):
            row = [0] * K
            row[m - 1] = 1
            for j, c in enumerate(cols):
                if pattern >> j & 1:
                    row[c] = 1
            rows.append(row)
        options.append(rows)
    best, best_rows = K + 1, None
    fixed = [None] * K

    def search(i, basis):
        nonlocal best, best_rows
        for row in options[i]:
            child = basis.copy()
            child.add(row)
            if child.rank >= best:
                continue  # the rank only grows: nothing below can beat the best
            fixed[i] = row
            if i:
                search(i - 1, child)
            else:
                best, best_rows = child.rank, list(fixed)

    search(K - 1, EchelonBasis(gf2, K))

    fitting = Matrix.from_rows(gf2, best_rows)
    scheme = _scheme_from_fitting(inst, fitting, demand, best)
    return OracleResult(
        query=f"minrank over GF(2), {K} messages",
        value=best,
        search_space_size=2 ** len(free),
        witness_matrix=fitting,
        witness_scheme=scheme,
    )


def _scheme_from_fitting(inst, fitting, demand, rank):
    """Rank-factor the fitting matrix A = A[:, pivots] @ rref(A) into an
    n = rank scalar scheme: beams from the reduced rows, combiners from the
    pivot columns."""
    rows = fitting.rref().take_rows(range(rank))
    left = fitting.take_cols([rows.row(i).index(1) for i in range(rank)])
    V = {m: rows.take_cols([m - 1]) for m in range(1, inst.num_messages + 1)}
    U = {}
    for k, m in demand.items():
        U[(m, k)] = left.take_rows([m - 1])
    return LinearScheme(fitting.field, rank, V, U)


def best_scalar_scheme(
    inst: Instance,
    q: int,
    n_max: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> OracleResult:
    """Smallest block length n <= n_max with a valid scalar scheme over GF(q).

    Searches beam assignments up to scalar equivalence (projective
    representatives, first message pinned to the first unit vector, which is
    exact because validity is invariant under invertible basis change and
    per-beam scaling).  Returns value=None when no length works.

    Exact search with pruning; the reported size is the full space of every
    length tried.  The witness is the first valid assignment in
    itertools.product order of the beams of messages 2..M.
    """
    if q < 2:
        raise BadParams(f"q must be a prime of at least 2, got {q}")
    if n_max < 1:
        raise BadParams(f"n_max must be at least 1, got {n_max}")
    if inst.num_messages > 6 or q > 3 or n_max > 3:
        raise BudgetExceeded("scalar search is limited to M <= 6, q <= 3, n <= 3")
    field = PrimeField(q)
    M = inst.num_messages
    checked_total = 0
    for n in range(1, n_max + 1):
        reps = _projective_reps(field, n)
        space = len(reps) ** (M - 1)
        if space > budget:
            raise BudgetExceeded(f"{len(reps)}^{M - 1} assignments exceed budget {budget}")
        checked_total += space
        beams = _first_valid_beams(inst, field, n, reps)
        if beams is not None:
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


def _projective_reps(field: Field, n: int) -> list:
    """Nonzero vectors of field^n with leading nonzero coordinate equal 1."""
    reps = []
    for vec in itertools.product(field.elements(), repeat=n):
        lead = next((x for x in vec if x != 0), None)
        if lead == 1:
            reps.append(vec)
    return reps


def _first_valid_beams(inst, field, n, reps):
    """The first valid beam assignment, message 1 on the first unit vector and
    messages 2..M in itertools.product order over reps, or None.

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
    roles = [[] for _ in range(M + 1)]  # message -> (destination index, desired?)
    for i, d in enumerate(inst.destinations):
        for m in d.wants:
            roles[m].append((i, True))
        for m in inst.interferers(d):
            roles[m].append((i, False))
    beams = [tuple(1 if i == 0 else 0 for i in range(n))] + [None] * (M - 1)

    def place(m, state):
        """state with message m's beam added, or None if a deficit appears."""
        state = list(state)
        beam = beams[m - 1]
        for i, desired in roles[m]:
            joint, interference = state[i]
            joint = joint.copy()
            if desired:
                kept = joint.add(beam)
            else:
                interference = interference.copy()
                kept = joint.add(beam) == interference.add(beam)
            if not kept:
                return None
            state[i] = joint, interference
        return state

    def search(m, state):
        if m > M:
            return True
        for beam in reps:
            beams[m - 1] = beam
            child = place(m, state)
            if child is not None and search(m + 1, child):
                return True
        return False

    empty = EchelonBasis(field, n)
    root = place(1, [(empty, empty)] * len(inst.destinations))
    return beams if root is not None and search(2, root) else None
