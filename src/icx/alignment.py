"""Alignment relation, subset partition, and symmetric-rate feasibility.

Two messages are related at destination k when both interfere there (neither
desired nor held); related messages must share signal space in any scheme
where every destination recovers its L demands at rate 1/(L+1).  The
connected components of this relation, found from each destination's
interferers without listing pairs, are the alignment subsets.  Rate 1/(L+1)
per message is achievable iff no two same-subset messages collide, i.e. one
of them is desired somewhere the other is not an antidote.

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


class AlignmentPartition(Record):
    """The subsets P_1..P_Z of an instance, a tuple of frozensets ordered by
    smallest member, whose edges are listed on request.  The instance is kept
    for the edges only, and each message's subset index, mapped once here,
    for ``subset_index``: equality, hashing and repr read L and the subsets."""

    _fields = ("L", "subsets")

    def __init__(self, L: int, instance: Instance, subsets: tuple):
        super().__init__(L, subsets)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "_index", {m: t for t, sub in enumerate(subsets, start=1) for m in sub})

    @property
    def Z(self) -> int:
        return len(self.subsets)

    @property
    def edges(self) -> frozenset:
        """(i, j, k), i < j, for i and j interfering at k; BadParams past MAX_ALIGNMENT_EDGES."""
        inst = self.instance
        M = inst.num_messages  # wants and has are disjoint subsets of 1..M
        count = sum(comb(M - len(d.wants) - len(d.has), 2) for d in inst.destinations)
        if count > MAX_ALIGNMENT_EDGES:
            raise BadParams(f"the alignment relation has {count} edges, more than the limit of {MAX_ALIGNMENT_EDGES}")
        return frozenset(
            (i, j, d.id) for d in inst.destinations for i, j in combinations(sorted(inst.interferers(d)), 2)
        )

    def subset_index(self, m: int) -> int:
        """1-based index of the subset containing message m."""
        if m not in self._index:
            raise KeyError(f"message {m} not in any subset")
        return self._index[m]

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "Z": self.Z,
            "edges": sorted([i, j, k] for (i, j, k) in self.edges),
            "subsets": [sorted(s) for s in self.subsets],
        }


def partition(inst: Instance) -> AlignmentPartition:
    """Alignment subsets of an instance with uniform demand size."""
    sizes = inst.demand_sizes()
    if len(sizes) != 1:
        raise NotNormalized(f"demand sizes differ: {sorted(sizes)}")
    # each destination's interferers join one group, the smaller groups moving into the largest
    label = list(range(inst.num_messages + 1))  # message -> its group
    groups = {m: [m] for m in range(1, inst.num_messages + 1)}  # group -> messages
    for d in inst.destinations:
        spanned = {label[m] for m in inst.interferers(d)}
        keep = max(spanned, key=lambda g: len(groups[g]), default=None)
        for g in spanned - {keep}:
            for m in groups[g]:
                label[m] = keep
            groups[keep] += groups.pop(g)
    subsets = tuple(sorted((frozenset(g) for g in groups.values()), key=min))
    return AlignmentPartition(sizes.pop(), inst, subsets)


class FeasibilityVerdict(Record):
    def __init__(self, feasible: bool, witness: Optional[tuple], partition: AlignmentPartition):
        # witness (i, j, k): i and j in one subset, j desired at k, i not held there
        super().__init__(feasible, witness, partition)

    def to_json(self) -> dict:
        out = {"feasible": self.feasible, "partition": self.partition.to_json()}
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
    part = partition(norm)
    for sub in (s for s in part.subsets if len(s) > 1):
        for i in sorted(sub):
            # (j, k): j in the subset is desired at k, where i is not held
            conflicts = [(j, d.id) for d in norm.destinations if i not in d.has for j in d.wants & sub if j != i]
            if conflicts:
                return FeasibilityVerdict(False, (i, *min(conflicts, key=lambda c: c[0])), part)
    return FeasibilityVerdict(True, None, part)


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
    part = verdict.partition
    field = PrimeField(smallest_prime_at_least(part.Z))
    beams = mds_vector_family(part.Z, L + 1, field)
    V = {
        m: beams.take_cols([part.subset_index(m) - 1])
        for m in range(1, inst.num_messages + 1)
    }
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
    part = verdict.partition
    n = 2
    while 2 ** (n // 2) + 1 < part.Z:
        n += 2
    check_scheme_size(n, n // 2 * inst.num_messages)
    subspaces = spread_family(n)
    V = {
        m: subspaces[part.subset_index(m) - 1].basis
        for m in range(1, inst.num_messages + 1)
    }
    return LinearScheme(PrimeField(2), n, V)
