"""Alignment relation, subset partition, and symmetric-rate feasibility.

Two messages are related at destination k when both interfere there (neither
desired nor held); related messages must share signal space in any scheme
where every destination recovers its L demands at rate 1/(L+1).  The
connected components of this relation are the alignment subsets, found from
what each destination wants and holds without listing pairs; ``edges`` lists
the relation itself and ``edge_count`` counts it, each read from the instance
alone.  Rate 1/(L+1) per message
is achievable iff no two same-subset messages collide, i.e. one of them is
desired somewhere the other is not an antidote.

Subset consolidation beyond connected components is deliberately not
attempted (minimizing the subset count is NP-hard, and a larger field or
block length always fits the component count).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Optional

from .errors import BadParams, Infeasible, NotNormalized, Record
from .model import Instance, normalize

if TYPE_CHECKING:  # the partition is pure combinatorics; only the builders need fields
    from .scheme import LinearScheme

# Far above the longest edge list the tests, scripts and benchmark print (1,200
# triples), and far below what exhausts memory.
MAX_ALIGNMENT_EDGES = 1_000_000


def edge_count(inst: Instance) -> int:
    """The number of triples ``edges`` lists, read from set sizes; BadParams past MAX_ALIGNMENT_EDGES."""
    M = inst.num_messages  # wants and has are disjoint subsets of 1..M
    count = sum(comb(M - len(d.wants) - len(d.has), 2) for d in inst.destinations)
    if count > MAX_ALIGNMENT_EDGES:
        raise BadParams(f"the alignment relation has {count} edges, more than the limit of {MAX_ALIGNMENT_EDGES}")
    return count


def edges(inst: Instance) -> frozenset:
    """(i, j, k), i < j, for i and j interfering at k; BadParams past MAX_ALIGNMENT_EDGES."""
    edge_count(inst)
    return frozenset(
        (i, j, d.id) for d in inst.destinations for i, j in combinations(sorted(inst.interferers(d)), 2)
    )


def partition(inst: Instance) -> tuple:
    """Alignment subsets P_1..P_Z of an instance with uniform demand size, as
    frozensets ordered by smallest member."""
    sizes = inst.demand_sizes()
    if len(sizes) != 1:
        raise NotNormalized(f"demand sizes differ: {sorted(sizes)}")
    # a subset grows from its smallest unseen message: a waiting destination whose
    # wants and has lack a member brings in all they lack and is done; one that
    # stays holds that member, so the walk is linear in what the destinations list
    waiting = [d.wants | d.has for d in inst.destinations]
    unseen, subsets = set(range(1, inst.num_messages + 1)), []
    for start in range(1, inst.num_messages + 1):
        if start in unseen:
            unseen.discard(start)
            group = [start]
            for m in group:  # grows as the loop runs
                lacking = [c for c in waiting if m not in c]
                if lacking:
                    waiting = [c for c in waiting if m in c]
                for c in lacking:
                    group += unseen - c
                    unseen &= c
            subsets.append(frozenset(group))
    return tuple(subsets)


class FeasibilityVerdict(Record):
    def __init__(self, feasible: bool, witness: Optional[tuple], L: int, subsets: tuple, instance: Instance):
        # witness (i, j, k): i and j in one subset, j desired at k, i not held
        # there; instance is the normalized one whose destination ids it names
        super().__init__(feasible, witness, L, subsets, instance)

    def to_json(self) -> dict:
        subsets = [sorted(s) for s in self.subsets]
        part = {"L": self.L, "Z": len(subsets), "edges": sorted(map(list, edges(self.instance))), "subsets": subsets}
        out = {"feasible": self.feasible, "partition": part}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def check_feasibility(inst: Instance, L: int) -> FeasibilityVerdict:
    """Decide achievability of rate 1/(L+1) for every message.

    The instance is first normalized to demand size L; the witness, when
    present, is the first conflict in (subset index, i, j, k) order, with
    destination ids referring to the normalized instance.
    """
    norm = normalize(inst, L)
    subsets = partition(norm)
    for sub in (s for s in subsets if len(s) > 1):
        for i in sorted(sub):
            # (j, k): j in the subset is desired at k, where i is not held
            conflicts = [(j, d.id) for d in norm.destinations if i not in d.has for j in d.wants & sub if j != i]
            if conflicts:
                return FeasibilityVerdict(False, (i, *min(conflicts, key=lambda c: c[0])), L, subsets, norm)
    return FeasibilityVerdict(True, None, L, subsets, norm)


def build_scalar_scheme(inst: Instance, L: int) -> LinearScheme:
    """Scalar scheme at rate 1/(L+1): one beam per alignment subset.

    Block length L+1 over the smallest prime field with at least Z elements;
    subset t rides on column t of an MDS family, so the at most L+1 distinct
    beams seen after antidote cancellation at any destination are independent.
    Verifies against normalize(inst, L).
    """
    from .galois import PrimeField, mds_vector_family, smallest_prime_at_least
    from .scheme import LinearScheme, check_scheme_size

    verdict = check_feasibility(inst, L)
    if not verdict.feasible:
        raise Infeasible(verdict.witness)
    check_scheme_size(L + 1, inst.num_messages)
    Z = len(verdict.subsets)
    field = PrimeField(smallest_prime_at_least(Z))
    beams = mds_vector_family(Z, L + 1, field)
    V = {m: beams.take_cols([t]) for t, sub in enumerate(verdict.subsets) for m in sub}
    return LinearScheme(field, L + 1, V)


def build_rate_half_vector_scheme(inst: Instance) -> LinearScheme:
    """Rate-1/2 vector scheme over GF(2), decided at L = 1 (single demands).

    Each alignment subset gets one member of a pairwise-trivially-intersecting
    family of (n/2)-dim subspaces of GF(2)^n, with n the smallest even block
    length whose family has at least Z members.  Verifies against
    normalize(inst, 1).
    """
    from .galois import PrimeField, spread_family
    from .scheme import LinearScheme, check_scheme_size

    verdict = check_feasibility(inst, 1)
    if not verdict.feasible:
        raise Infeasible(verdict.witness)
    n = 2
    while 2 ** (n // 2) + 1 < len(verdict.subsets):
        n += 2
    check_scheme_size(n, n // 2 * inst.num_messages)
    subspaces = spread_family(n)
    V = {m: subspaces[t].basis for t, sub in enumerate(verdict.subsets) for m in sub}
    return LinearScheme(PrimeField(2), n, V)
