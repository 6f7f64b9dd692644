"""Groupcast/unicast equivalence transform and scheme translations."""

from fractions import Fraction
from functools import reduce

import pytest

from icx.errors import BadParams, TranslationFailed
from icx.galois import Matrix, PrimeField, Subspace
from icx.model import Destination, Instance
from icx.scheme import LinearScheme, simulate_exhaustive, synthesize_decoders, verify
from icx.symmetric import builtin_example
from icx.unicast import (
    groupcast_rank_chain,
    scheme_to_groupcast,
    scheme_to_unicast,
    to_unicast,
)

from conftest import is_multiple_unicast, make_instance


def setbuilder_antidotes(umap, i, j):
    """Independent set-builder path for the transformed antidote sets.

    Built literally from the three defining sets: the lifted antidotes of the
    matching groupcast destination, the full auxiliary row, and the sibling
    copies; the auxiliary destination gets everything outside its own group.
    """
    norm = umap.original
    L, M = umap.L, umap.M
    uid = umap.unicast_id
    whole = {uid(m, l) for m in range(1, M + 1) for l in range(L + 1)}
    group_i = {uid(i, l) for l in range(L + 1)}
    if j == 0:
        return whole - group_i
    k = (i - 1) * L + j
    lifted = {
        uid(m, l)
        for m in norm.destinations[k - 1].has
        for l in range(L + 1)
    }
    aux_row = {uid(m, 0) for m in range(1, M + 1)}
    siblings = {uid(i, l) for l in range(L + 1) if l != j}
    return lifted | aux_row | siblings


def groupcast_scheme_m2(gc):
    """Routing at rate 1/2 on the two-message groupcast."""
    f = PrimeField(2)
    eye = Matrix.identity(f, 2)
    return LinearScheme(f, 2, {1: eye.take_cols([0]), 2: eye.take_cols([1])})


# ----------------------------------------------------------------------
# instance transform
# ----------------------------------------------------------------------


def test_transform_counts(groupcast_m2k3):
    umap = to_unicast(groupcast_m2k3, 2)
    assert umap.transformed.num_messages == 2 * 3  # M(L+1)
    assert umap.transformed.num_destinations == 4 + 2  # K + M after normalization
    assert is_multiple_unicast(umap.transformed)


def test_unicast_id_refuses_a_copy_outside_the_map(groupcast_m2k3):
    """Copies are (i, j) with 1 <= i <= M and 0 <= j <= L (0 the auxiliary)."""
    umap = to_unicast(groupcast_m2k3, 2)
    M, L = umap.M, umap.L
    assert umap.unicast_id(M, L) == M * (L + 1)
    for i, j in [(0, 0), (M + 1, 0), (1, L + 1), (1, -1)]:
        with pytest.raises(KeyError) as caught:
            umap.unicast_id(i, j)
        assert caught.value.args == (f"no copy ({i}, {j})",)


def test_transform_smallest_case():
    inst = make_instance(1, [({1}, set())])
    umap = to_unicast(inst, 1)
    assert umap.transformed.num_messages == 2
    assert umap.transformed.num_destinations == 2
    aux = next(d for d in umap.transformed.destinations if d.id == umap.unicast_id(1, 0))
    assert aux.has == frozenset()  # nothing outside its own group


def test_transform_antidotes_match_formula(groupcast_m2k3, pentagon_notation):
    for inst, L in [(groupcast_m2k3, 2), (pentagon_notation, 1), (builtin_example(2).instance, 1)]:
        umap = to_unicast(inst, L)
        by_id = {d.id: d for d in umap.transformed.destinations}
        for i in range(1, umap.M + 1):
            for j in range(umap.L + 1):
                dest = by_id[umap.unicast_id(i, j)]
                assert dest.has == frozenset(setbuilder_antidotes(umap, i, j)), (i, j)


def test_transform_counts_general(pentagon_notation):
    umap = to_unicast(pentagon_notation, 1)
    assert umap.transformed.num_messages == 5 * 2
    assert umap.transformed.num_destinations == 5 + 5


@pytest.mark.parametrize(
    "dests, problem",
    [
        ([({1}, set()), ({3}, set())], "destination 2: unknown message id 3"),
        ([({1}, {1}), ({2}, set())], "destination 1: message 1 both desired and held"),
    ],
    ids=["unknown-message", "wants-and-holds"],
)
def test_transform_rejects_invalid_instance(dests, problem):
    with pytest.raises(BadParams, match=problem):
        to_unicast(make_instance(2, dests), 1)


# ----------------------------------------------------------------------
# scheme translations
# ----------------------------------------------------------------------


def unicast_roundtrip(inst, scheme, L):
    umap = to_unicast(inst, L)
    su = scheme_to_unicast(umap, scheme)
    assert verify(umap.transformed, su).valid
    want = {}
    for i in range(1, umap.M + 1):
        want[umap.unicast_id(i, 0)] = 1 - scheme.rate(i)  # the auxiliary of message i
        for j in range(1, umap.L + 1):
            want[umap.unicast_id(i, j)] = scheme.rate(i)  # its copies
    assert su.rates() == want
    sg = scheme_to_groupcast(umap, su)
    assert verify(umap.original, sg).valid
    for i in range(1, umap.M + 1):
        assert sg.rate(i) >= scheme.rate(i)
    for step in groupcast_rank_chain(umap, su):
        assert step.slack >= 0
    return umap, su, sg


def test_roundtrip_builtin_examples():
    for eid in (1, 2, 3):
        ex = builtin_example(eid)
        unicast_roundtrip(ex.instance, ex.scheme, 1)


def test_roundtrip_groupcast_routing(groupcast_m2k3):
    umap, su, sg = unicast_roundtrip(groupcast_m2k3, groupcast_scheme_m2(groupcast_m2k3), 2)
    # siblings share V exactly, so the intersection recovers the original rate
    assert sg.rate(1) == Fraction(1, 2)
    assert simulate_exhaustive(umap.transformed, su).ok


def test_rate_one_scheme_gives_empty_auxiliary():
    # complete side information: rate 1 per message
    inst = make_instance(2, [({1}, {2}), ({2}, {1})])
    f = PrimeField(2)
    one = Matrix.from_rows(f, [[1]])
    scheme = LinearScheme(f, 1, {1: one, 2: one})
    assert verify(inst, scheme).valid
    umap = to_unicast(inst, 1)
    su = scheme_to_unicast(umap, scheme)
    for i in (1, 2):
        aux = su.V[umap.unicast_id(i, 0)]
        assert aux.cols == 0
        assert su.rate(umap.unicast_id(i, 0)) == 0
    assert verify(umap.transformed, su).valid


def test_auxiliary_span_complements_copies():
    ex = builtin_example(2)
    umap = to_unicast(ex.instance, 1)
    su = scheme_to_unicast(umap, ex.scheme)
    f = su.field
    for i in range(1, umap.M + 1):
        vi = su.V[umap.unicast_id(i, 1)]
        aux = su.V[umap.unicast_id(i, 0)]
        assert vi.hstack(aux).rank() == su.n


def test_translation_with_general_position_siblings():
    """Siblings that merely intersect (not coincide) still translate, and the
    final intersection dimension obeys the chain bound."""
    f = PrimeField(5)
    # two copies of one message in GF(5)^4, sharing a 1-dim subspace;
    # auxiliary spans the rest of neither copy
    inst = make_instance(1, [({1}, set()), ({1}, set())])
    umap = to_unicast(inst, 2)
    n = 4
    e = Matrix.identity(f, n)
    v1 = e.take_cols([0, 1])  # span{e1,e2}
    v2 = Matrix.from_cols(f, [[1, 0, 0, 0], [0, 0, 1, 0]])  # span{e1,e3}
    aux = e.take_cols([3])
    V = {
        umap.unicast_id(1, 0): aux,
        umap.unicast_id(1, 1): v1,
        umap.unicast_id(1, 2): v2,
    }
    su = LinearScheme(f, n, V)
    assert verify(umap.transformed, su).valid
    sg = scheme_to_groupcast(umap, su)
    assert sg.V[1].cols == 1  # span{e1}
    chain = groupcast_rank_chain(umap, su)
    final = chain[-1]
    assert final.dim == 1
    assert final.lower_bound == 2 + 2 - (4 - 1)  # sum ranks - (L-1)(n - r0)
    assert final.slack == 0
    assert verify(umap.original, sg).valid


def test_translation_intersects_copies_that_differ():
    """Copies may carry the same matrix, an equal one, the same span in other
    columns (V P, P invertible) or another span: the groupcast V_i is the
    intersection of every copy's span, as a fold of Subspace.intersect."""
    f = PrimeField(5)
    inst = make_instance(2, [({1}, set())] * 4 + [({2}, {1})] * 4)
    umap = to_unicast(inst, 4)
    n = 4
    a = Matrix.from_cols(f, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    p = Matrix.from_rows(f, [[2, 1, 0], [0, 3, 0], [1, 0, 4]])
    b = Matrix.from_cols(f, [[1, 2, 0, 0], [0, 0, 0, 1]])
    copies = {
        1: [a, a, a @ p, Matrix.from_rows(f, a.row_list())],  # one span in three forms
        2: [b @ Matrix.from_rows(f, [[0, 1], [1, 0]]), a, b, a @ p],  # two spans
    }
    V = {umap.unicast_id(i, 0): Matrix.zeros(f, n, 0) for i in copies}
    V.update((umap.unicast_id(i, j), v) for i, vs in copies.items() for j, v in enumerate(vs, 1))
    sg = scheme_to_groupcast(umap, LinearScheme(f, n, V))
    for i, vs in copies.items():
        assert sg.V[i] == reduce(Subspace.intersect, map(Subspace.from_matrix, vs)).basis
    assert (sg.V[1].cols, sg.V[2].cols) == (3, 1)


def test_translation_fails_on_disjoint_siblings():
    f = PrimeField(2)
    inst = make_instance(1, [({1}, set()), ({1}, set())])
    umap = to_unicast(inst, 2)
    e = Matrix.identity(f, 2)
    V = {
        umap.unicast_id(1, 0): Matrix.zeros(f, 2, 0),
        umap.unicast_id(1, 1): e.take_cols([0]),
        umap.unicast_id(1, 2): e.take_cols([1]),
    }
    su = LinearScheme(f, 2, V)
    with pytest.raises(TranslationFailed):
        scheme_to_groupcast(umap, su)


def test_roundtrip_with_synthesized_decoders(groupcast_m2k3):
    # combiners keyed by the ids of the instance given to to_unicast
    scheme = groupcast_scheme_m2(groupcast_m2k3)
    umap = to_unicast(groupcast_m2k3, 2)
    with_u = synthesize_decoders(groupcast_m2k3, scheme)
    su = scheme_to_unicast(umap, with_u)
    assert verify(umap.transformed, su, mode="decoder").valid
    sg = scheme_to_groupcast(umap, su)
    assert verify(umap.original, sg, mode="decoder").valid


def test_translation_fails_when_a_copy_decoder_misses_the_intersection(groupcast_m2k3):
    umap = to_unicast(groupcast_m2k3, 2)
    su = scheme_to_unicast(umap, synthesize_decoders(groupcast_m2k3, groupcast_scheme_m2(groupcast_m2k3)))
    uid = umap.unicast_id(1, 1)
    U = dict(su.U)
    U[(uid, uid)] = Matrix.zeros(su.field, su.U[(uid, uid)].rows, su.n)
    with pytest.raises(TranslationFailed, match="copy decoder of message 1, copy 1 does not cover the intersection"):
        scheme_to_groupcast(umap, LinearScheme(su.field, su.n, su.V, U))


def test_translation_fails_when_a_copy_decoder_is_missing(groupcast_m2k3):
    umap = to_unicast(groupcast_m2k3, 2)
    su = scheme_to_unicast(umap, synthesize_decoders(groupcast_m2k3, groupcast_scheme_m2(groupcast_m2k3)))
    uid = umap.unicast_id(1, 1)
    U = {key: u for key, u in su.U.items() if key != (uid, uid)}
    with pytest.raises(TranslationFailed, match="^unicast scheme has no decoder for message 1, copy 1$"):
        scheme_to_groupcast(umap, LinearScheme(su.field, su.n, su.V, U))


def crossed_ids():
    """Destinations listed 2, 1, 3, 4: normalization renumbers them 1, 2, 3, 4,
    so destination 2 of the input becomes destination 1 of umap.original."""
    rows = [(2, {1}, set()), (1, {1}, {2}), (3, {2}, {1}), (4, {2}, set())]
    inst = Instance(2, tuple(Destination(k, frozenset(w), frozenset(h)) for k, w, h in rows))
    f = PrimeField(2)
    return inst, LinearScheme(f, 2, {1: Matrix.from_cols(f, [[1, 0]]), 2: Matrix.from_cols(f, [[1, 1]])})


def test_translation_reads_combiners_by_input_ids():
    inst, scheme = crossed_ids()
    umap = to_unicast(inst, 2)
    assert umap.source_destinations == (2, 1, 3, 4)
    by_input = synthesize_decoders(inst, scheme)
    assert verify(inst, by_input, mode="decoder").valid
    su = scheme_to_unicast(umap, by_input)
    assert verify(umap.transformed, su, mode="decoder").valid
    assert verify(umap.original, scheme_to_groupcast(umap, su), mode="decoder").valid
    # keyed by umap.original's ids, copy 1 of message 1 (unicast id 2), which
    # descends from input destination 2, reads combiner (1, 2): it was made for
    # a destination that holds message 2, so it does not cancel message 2
    by_normalized = synthesize_decoders(umap.original, scheme)
    assert verify(umap.original, by_normalized, mode="decoder").valid
    report = verify(umap.transformed, scheme_to_unicast(umap, by_normalized), mode="decoder")
    assert not report.valid
    assert ("property1", 2) in {(d.kind, d.destination) for d in report.diagnostics}
    # one lookup, no fallback: at L=3 message 2's first copy descends from input
    # destination 3, and a scheme keyed by umap.original's ids has no (2, 3)
    umap3 = to_unicast(inst, 3)
    with pytest.raises(TranslationFailed, match="message 2 at destination 3"):
        scheme_to_unicast(umap3, synthesize_decoders(umap3.original, scheme))
