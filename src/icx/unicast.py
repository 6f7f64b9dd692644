"""Groupcast-to-multiple-unicast transformation and scheme translations.

The paper's auxiliary-message construction: a groupcast instance, normalized
by ``model.normalize_groupcast``, becomes a multiple unicast instance with
M(L+1) messages, an auxiliary (copy 0) and L working copies per original
message i, copy j numbered (i-1)(L+1)+j+1.  Each copy's destination inherits
the lifted antidotes of its groupcast counterpart and holds all other copies
of its own message plus every auxiliary; the auxiliary's destination holds
everything except its own message group, which forces the copies to share
signal space in any linear scheme.  Rate tuples translate as R for copies and
1 - R for auxiliaries, in both directions for linear coding.
"""

from __future__ import annotations

from .errors import Record, TranslationFailed
from .galois import EchelonBasis, Matrix, Subspace
from .model import Destination, Instance, _check_generated_size, instance_to_json, normalize_groupcast
from .scheme import LinearScheme, _check_scheme_matches, _independent_rows


def _copy_id(L: int, i: int, j: int) -> int:
    return (i - 1) * (L + 1) + j + 1


class UnicastMap(Record):
    """Original (normalized groupcast) instance, its unicast equivalent, and
    the (message, copy) -> transformed id correspondence."""

    def __init__(self, original: Instance, transformed: Instance, L: int, source_destinations: tuple):
        # source_destinations, per normalized destination: the pre-normalization
        # destination id whose demand/antidotes it descends from (decoder reuse needs this)
        super().__init__(original, transformed, L, source_destinations)

    @property
    def M(self) -> int:
        return self.original.num_messages

    def unicast_id(self, i: int, j: int) -> int:
        """Transformed id of copy j (0 = auxiliary) of original message i."""
        if not (1 <= i <= self.M) or not (0 <= j <= self.L):
            raise KeyError(f"no copy ({i}, {j})")
        return _copy_id(self.L, i, j)

    def to_json(self) -> dict:
        """What ``icx transform`` prints: the id map and both instances."""
        return {
            "map": {
                "original": {"messages": self.M, "L": self.L},
                "auxiliaries": True,
                "id_map": {
                    f"{i},{j}": _copy_id(self.L, i, j)
                    for i in range(1, self.M + 1)
                    for j in range(self.L + 1)
                },
            },
            "original": instance_to_json(self.original),
            "transformed": instance_to_json(self.transformed),
        }


def to_unicast(inst: Instance, L: int) -> UnicastMap:
    """Construct the equivalent multiple unicast instance.  One past the
    instance caps is refused (BadParams) before any destination is built."""
    norm, sources = normalize_groupcast(inst, L)
    M = norm.num_messages
    # an auxiliary holds the (M - 1)(L + 1) ids outside its group; a copy whose groupcast
    # destination holds h messages holds their h groups, the M - h other auxiliaries (its
    # own among them) and its L - 1 siblings: hL + M + L - 1 ids
    held = sum(len(d.has) for d in norm.destinations) * L + M * (M - 1) * (L + 1) + M * L * (M + L - 1)
    _check_generated_size(M * (L + 1), M * (L + 1), held)
    # message i's group: its auxiliary and its copies, consecutive ids
    groups = [frozenset(range(_copy_id(L, i, 0), _copy_id(L, i + 1, 0))) for i in range(1, M + 1)]
    all_ids = frozenset(range(1, M * (L + 1) + 1))
    auxiliaries = frozenset(_copy_id(L, i, 0) for i in range(1, M + 1))
    dests = []
    for i, group in enumerate(groups, 1):
        aux = _copy_id(L, i, 0)
        dests.append(Destination(aux, frozenset({aux}), all_ids - group))
        for j in range(1, L + 1):
            uid = _copy_id(L, i, j)
            held = norm.destinations[(i - 1) * L + j - 1].has
            lifted = frozenset().union(*(groups[m - 1] for m in held))
            dests.append(Destination(uid, frozenset({uid}), lifted | auxiliaries | (group - {uid})))
    return UnicastMap(norm, Instance(M * (L + 1), tuple(dests)), L, sources)


# ----------------------------------------------------------------------
# scheme translations
# ----------------------------------------------------------------------


def _complement_columns(v: Matrix) -> Matrix:
    """A full-rank n x (n - rank) matrix whose span meets colspan(v) only at 0:
    the identity columns e_j, in order, for each j at which no vector of
    colspan(v) has its last nonzero entry.

    Those are the columns a greedy walk appending each e_j that grows the
    rank would choose, as e_j is in colspan(v) + span(e_0, ..., e_{j-1})
    iff some vector of colspan(v) ends at j.  With coordinates reversed
    the ends of colspan(v) are the pivots of its reduced form, so one
    elimination of v's columns finds them.
    """
    n = v.rows
    basis = EchelonBasis(v.field, n, v.cols)
    basis.grow(v.col(j)[::-1] for j in range(v.cols))
    ends = {n - 1 - c for c in basis.pivots}
    return Matrix.identity(v.field, n).take_cols([j for j in range(n) if j not in ends])


def scheme_to_unicast(umap: UnicastMap, scheme: LinearScheme) -> LinearScheme:
    """Translate a groupcast scheme: copies reuse V_i, auxiliaries get a
    complement of colspan(V_i), so each copy rides at rate R_i and the
    auxiliary at 1 - R_i.  The complement is ``_complement_columns``, one
    elimination of V_i's L_i columns, and the auxiliary's combiner is V_i's
    left null space, another (``Matrix.left_nullspace``).

    Combiners are keyed (message, destination id) by the ids of the instance
    that was passed to ``to_unicast``, not by those of ``umap.original``: copy
    j of message i takes the combiner of the input destination it descends
    from."""
    _check_scheme_matches(umap.original, scheme)
    f = scheme.field
    n = scheme.n
    V = {}
    U = {} if scheme.U is not None else None
    for i in range(1, umap.M + 1):
        vi = scheme.V[i]
        aux = _complement_columns(vi)
        V[umap.unicast_id(i, 0)] = aux
        for j in range(1, umap.L + 1):
            V[umap.unicast_id(i, j)] = vi
        if U is not None:
            ann = vi.left_nullspace()
            U[(umap.unicast_id(i, 0), umap.unicast_id(i, 0))] = ann
            for j in range(1, umap.L + 1):
                src = umap.source_destinations[(i - 1) * umap.L + j - 1]
                if (i, src) not in scheme.U:
                    raise TranslationFailed(
                        f"groupcast scheme has no decoder for message {i} at destination {src}"
                    )
                U[(umap.unicast_id(i, j), umap.unicast_id(i, j))] = scheme.U[(i, src)]
    return LinearScheme(f, n, V, U)


def scheme_to_groupcast(umap: UnicastMap, scheme: LinearScheme) -> LinearScheme:
    """Translate back: original message i rides on the intersection of its
    copies' column spans; copy decoders are reused row-selected.

    The result is a scheme for ``umap.original``, the normalized groupcast
    instance, and its combiners are keyed by that instance's destination ids."""
    _check_scheme_matches(umap.transformed, scheme)
    f = scheme.field
    n = scheme.n
    V = {}
    U = {} if scheme.U is not None else None
    for i in range(1, umap.M + 1):
        # scheme_to_unicast gives every copy the same V_i: intersect each distinct matrix once
        first, *rest = dict.fromkeys(scheme.V[umap.unicast_id(i, j)] for j in range(1, umap.L + 1))
        inter = Subspace.from_matrix(first)
        for v in rest:
            inter = inter.intersect(Subspace.from_matrix(v))
        if inter.dim == 0:
            raise TranslationFailed(
                f"copies of message {i} share no signal space; groupcast rate would be 0"
            )
        V[i] = inter.basis
        if U is not None:
            for j in range(1, umap.L + 1):
                uid = umap.unicast_id(i, j)
                if (ubar := scheme.U.get((uid, uid))) is None:
                    raise TranslationFailed(f"unicast scheme has no decoder for message {i}, copy {j}")
                rows = _independent_rows(ubar @ V[i])
                if rows is None:
                    raise TranslationFailed(
                        f"copy decoder of message {i}, copy {j} does not cover the intersection"
                    )
                U[(i, (i - 1) * umap.L + j)] = ubar.take_rows(rows)
    return LinearScheme(f, n, V, U)


class RankChainStep(Record):
    """One step of the intersection dimension chain for a message group: dim
    is the dimension of the first `copies_used` copies' intersection."""

    def __init__(self, message: int, copies_used: int, dim: int, lower_bound: int, slack: int):
        super().__init__(message, copies_used, dim, lower_bound, slack)


def groupcast_rank_chain(umap: UnicastMap, scheme: LinearScheme) -> list:
    """Stepwise audit of rank(intersection) against the translation bound.

    For each original message i with copy spans S_1..S_L and auxiliary rank
    r_0: dim(S_1 n ... n S_t) >= dim(S_1 n ... n S_{t-1}) + rank(S_t) - (n -
    r_0) at every step, hence >= sum_l rank(S_l) - (L-1)(n - r_0) overall.
    Valid whenever every copy span avoids the auxiliary span, which holds for
    any verifying unicast scheme.
    """
    _check_scheme_matches(umap.transformed, scheme)
    steps = []
    n = scheme.n
    for i in range(1, umap.M + 1):
        r0 = scheme.V[umap.unicast_id(i, 0)].rank()
        spans = [
            Subspace.from_matrix(scheme.V[umap.unicast_id(i, j)])
            for j in range(1, umap.L + 1)
        ]
        inter = spans[0]
        prev_dim = inter.dim
        steps.append(RankChainStep(i, 1, prev_dim, spans[0].dim, 0))
        for t in range(2, umap.L + 1):
            inter = inter.intersect(spans[t - 1])
            bound = prev_dim + spans[t - 1].dim - (n - r0)
            steps.append(RankChainStep(i, t, inter.dim, bound, inter.dim - bound))
            prev_dim = inter.dim
        total_bound = sum(s.dim for s in spans) - (umap.L - 1) * (n - r0)
        steps.append(RankChainStep(i, umap.L, prev_dim, total_bound, prev_dim - total_bound))
    return steps

