"""Brute-force ground truth: minrank over GF(2) and scalar-scheme search.

Both oracles enumerate their entire search space (no sampling, hard budgets)
and return witnesses that re-verify through the scheme verifier, keeping the
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
    red = fitting.rref()
    pivots = []
    r = 0
    for c in range(red.cols):
        if r < red.rows and red[r, c] == 1 and all(red[i, c] == 0 for i in range(red.rows) if i != r):
            pivots.append(c)
            r += 1
    rows = Matrix.from_rows(fitting.field, [list(red.row(i)) for i in range(rank)])
    left = fitting.take_cols(pivots)
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

    Enumerates beam assignments up to scalar equivalence (projective
    representatives, first message pinned to the first unit vector, which is
    exact because validity is invariant under invertible basis change and
    per-beam scaling).  Returns value=None when no length works.
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
        e1 = tuple(1 if i == 0 else 0 for i in range(n))
        for rest in itertools.product(reps, repeat=M - 1):
            beams = (e1,) + rest
            if _scalar_assignment_valid(inst, field, beams):
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


def _scalar_assignment_valid(inst, field, beams) -> bool:
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
