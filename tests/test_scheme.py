"""Scheme verification, decoder synthesis, simulation, dimension audit."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import reference_galois as ref_galois
import reference_simulation as reference
import reference_verify
from conftest import make_instance
from icx import galois, model
from icx import scheme as scheme_module
from icx.errors import (
    BadParams,
    NoDecoderExists,
    ParseError,
    SchemeMalformed,
    UnsupportedFamily,
)
from icx.galois import BinaryField, EchelonBasis, Matrix, PrimeField
from icx.model import (
    Destination,
    FamilyTag,
    Instance,
    gen_neighboring_antidotes,
    gen_neighboring_interference,
    gen_x_network,
)
from icx.oracle import best_scalar_scheme, minrank_gf2
from icx.scheme import (
    LinearScheme,
    dimension_audit,
    parse_scheme,
    serialize_scheme,
    simulate_exhaustive,
    simulate_sampled,
    synthesize_decoders,
    verify,
)
from icx.symmetric import build_antidote_scheme, build_interference_scheme, build_x_scheme, builtin_example
from icx.unicast import groupcast_rank_chain, scheme_to_groupcast, scheme_to_unicast, to_unicast


def three_cycle_instance():
    return builtin_example(1).instance


def collision_scheme(field=None):
    """Example-1 layout but V_1 moved onto the shared beam: destination 1
    sees its desired symbol buried in the interference span."""
    field = field or PrimeField(2)
    col = Matrix.from_cols(field, [[1, 0]])
    return LinearScheme(field, 2, {1: col, 2: col, 3: col})


def routing_scheme(inst, field=None):
    field = field or PrimeField(2)
    eye = Matrix.identity(field, inst.num_messages)
    return LinearScheme(field, inst.num_messages, {m: eye.take_cols([m - 1]) for m in range(1, inst.num_messages + 1)})


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_example1_scheme_valid_both_modes():
    ex = builtin_example(1)
    assert verify(ex.instance, ex.scheme).valid
    rep = verify(ex.instance, LinearScheme(ex.scheme.field, ex.scheme.n, ex.scheme.V))
    assert rep.valid and rep.mode == "rank"
    assert set(rep.rates.values()) == {Fraction(1, 2)}


def test_example2_scheme_valid_rate_two_fifths():
    ex = builtin_example(2)
    rep = verify(ex.instance, ex.scheme)
    assert rep.valid and set(rep.rates.values()) == {Fraction(2, 5)}
    assert verify(ex.instance, ex.scheme, mode="rank").valid


def test_collision_scheme_invalid():
    inst = three_cycle_instance()
    rep = verify(inst, collision_scheme())
    assert not rep.valid
    kinds = {(d.kind, d.destination) for d in rep.diagnostics}
    assert ("resolvability", 1) in kinds or ("desired-rank", 1) in kinds


def test_verify_rejects_mismatched_messages():
    inst = three_cycle_instance()
    gf2 = PrimeField(2)
    with pytest.raises(SchemeMalformed):
        verify(inst, LinearScheme(gf2, 2, {1: Matrix.identity(gf2, 2)}))


def without(sch, m):
    """sch without message m's precoder and combiners."""
    U = None if sch.U is None else {key: u for key, u in sch.U.items() if key[0] != m}
    return LinearScheme(sch.field, sch.n, {i: v for i, v in sch.V.items() if i != m}, U)


# entry point -> (the messages of the instance it meets, a call with a scheme
# that lacks one of them).  inst is x-network K=6 L=2, umap its unicast
# equivalent at L=2 (36 messages), gs inst's scheme with decoders and us its
# translation.
UNCOVERED = {
    "verify-rank": (12, lambda inst, umap, gs, us: verify(inst, without(gs, 3), mode="rank")),
    "verify-decoder": (12, lambda inst, umap, gs, us: verify(inst, without(gs, 3), mode="decoder")),
    "synthesize_decoders": (12, lambda inst, umap, gs, us: synthesize_decoders(inst, without(build_x_scheme(6, 2), 3))),
    "simulate_exhaustive": (12, lambda inst, umap, gs, us: simulate_exhaustive(inst, without(gs, 3))),
    "simulate_sampled": (12, lambda inst, umap, gs, us: simulate_sampled(inst, without(gs, 3), 10)),
    "dimension_audit": (12, lambda inst, umap, gs, us: dimension_audit(inst, without(gs, 3))),
    "scheme_to_unicast": (12, lambda inst, umap, gs, us: scheme_to_unicast(umap, without(gs, 3))),
    "scheme_to_groupcast": (
        36, lambda inst, umap, gs, us: scheme_to_groupcast(umap, without(us, umap.unicast_id(2, 1)))
    ),
    "groupcast_rank_chain": (
        36, lambda inst, umap, gs, us: groupcast_rank_chain(umap, without(us, umap.unicast_id(2, 0)))
    ),
}


@pytest.mark.parametrize("messages, call", UNCOVERED.values(), ids=UNCOVERED)
def test_every_scheme_check_refuses_a_scheme_that_misses_a_message(messages, call):
    """Wherever a scheme meets an instance, one that does not cover the
    instance's messages is SchemeMalformed, never a KeyError."""
    inst = gen_x_network(6, 2)
    umap = to_unicast(inst, 2)
    gs = synthesize_decoders(inst, build_x_scheme(6, 2))
    with pytest.raises(SchemeMalformed, match=rf"^scheme covers messages \[[\d, ]+\], instance has {messages}$"):
        call(inst, umap, gs, scheme_to_unicast(umap, gs))


def test_verify_missing_decoder_diagnostic():
    ex = builtin_example(1)
    partial = dict(ex.scheme.U)
    del partial[(1, 1)]
    rep = verify(ex.instance, LinearScheme(ex.scheme.field, 2, ex.scheme.V, partial))
    assert not rep.valid
    assert any(d.kind == "missing-decoder" and d.destination == 1 for d in rep.diagnostics)


def test_interference_dimension_bound():
    # any valid scheme leaves enough room: dim span(interference) <= n - desired streams
    for eid in (1, 2, 3):
        ex = builtin_example(eid)
        f = ex.scheme.field
        for d in ex.instance.destinations:
            interference = sorted(ex.instance.interferers(d))
            if not interference:
                continue
            vint = Matrix.hstack_all(f, [ex.scheme.V[i] for i in interference])
            desired_streams = sum(ex.scheme.stream_count(m) for m in d.wants)
            assert vint.rank() <= ex.scheme.n - desired_streams


def mixed_failure_case(field):
    """Six one-stream messages in GF(q)^3 and four destinations: 1 fails
    desired-rank only (V_2 = 5 V_1), 2 resolvability only (V_3 = V_4 - V_5),
    3 both (its interference also spans V_1), and 4 passes.  The scalars are
    read mod q, so the same failures hold over GF(2) and GF(37)."""
    vectors = {1: (1, 0, 0), 2: (5, 0, 0), 3: (0, 1, 0), 4: (0, 1, 3), 5: (0, 0, 3), 6: (3, 1, 0)}
    V = {m: Matrix(field, 3, 1, v) for m, v in vectors.items()}
    inst = make_instance(6, [({1, 2}, {3, 4, 6}), ({3}, {1, 2, 6}), ({1, 2}, {5}), ({5}, {1, 2, 3, 4})])
    return inst, LinearScheme(field, 3, V)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(37)], ids=repr)
def test_rank_mode_diagnostics_pinned(field):
    """Rank mode reads V_int's rank off one elimination of [V_int | V_des].
    Its diagnostics equal the definition's, from three separate reference
    ranks per destination: rank V_des = its streams, and rank [V_des | V_int]
    = rank V_des + rank V_int."""
    inst, scheme = mixed_failure_case(field)
    rep = verify(inst, scheme, mode="rank")
    got = [(d.kind, d.destination) for d in rep.diagnostics]
    assert got == [("desired-rank", 1), ("resolvability", 2), ("desired-rank", 3), ("resolvability", 3)]
    expected = []
    for d in inst.destinations:
        des = [scheme.V[m].col(0) for m in sorted(d.wants)]
        inter = [scheme.V[i].col(0) for i in sorted(inst.interferers(d))]
        rank_des = ref_galois.rank(field, des, 3)
        if rank_des != len(des):
            expected.append(("desired-rank", d.id))
        if inter and ref_galois.rank(field, des + inter, 3) != rank_des + ref_galois.rank(field, inter, 3):
            expected.append(("resolvability", d.id))
    assert got == expected
    assert not rep.valid and rep.mode == "rank"


def test_an_instance_whose_destination_holds_a_message_it_wants_cannot_be_built():
    """A message both wanted and held is refused where the Instance is made,
    so no check sees one.  Were it built, with V_1 = e_1 and V_2 = e_2 over
    GF(2) the checks would disagree on the one-destination instance, and
    minrank would raise NoDecoderExists on the two-destination one."""
    for dests in ([({1}, {1})], [({1}, {1}), ({2}, set())]):
        with pytest.raises(BadParams, match=r"^invalid instance: destination 1: message 1 both desired and held$"):
            make_instance(2, dests)


FAMILY_CHECKS = {
    "verify": verify,
    "synthesize_decoders": synthesize_decoders,
    "simulate_exhaustive": simulate_exhaustive,
    "simulate_sampled": lambda inst, sch: simulate_sampled(inst, sch, 10),
    "dimension_audit": dimension_audit,
    "minrank_gf2": lambda inst, sch: minrank_gf2(inst),
    "best_scalar_scheme": lambda inst, sch: best_scalar_scheme(inst, 2, 2),
}


@pytest.mark.parametrize("name", FAMILY_CHECKS)
def test_checks_do_not_validate_a_built_instance(name, monkeypatch):
    """An Instance is valid by construction, so no scheme check or oracle
    validates the one it is given, and dimension_audit's check_family
    compares the family's destinations without building an instance."""
    inst, sch = gen_neighboring_antidotes(5, 1, 1), build_antidote_scheme(5, 1, 1)
    calls = []
    real = model.validate
    monkeypatch.setattr(model, "validate", lambda *parts: calls.append(parts) or real(*parts))
    FAMILY_CHECKS[name](inst, sch)
    assert calls == []


PROPERTY_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), BinaryField(3)]


def unnormalized_case(rnd, field):
    """A random V-only scheme on an instance that is not normalized:
    destinations want one to three messages and hold a random share of the
    rest, some messages have no streams, and V is often rank-deficient."""
    M, n = rnd.randrange(1, 6), rnd.randrange(1, 4)
    streams = {m: rnd.choice((0, 1, 1, 2)) for m in range(1, M + 1)}
    dests = []
    for _ in range(rnd.randrange(1, 6)):
        wants = set(rnd.sample(range(1, M + 1), rnd.randrange(1, min(M, 3) + 1)))
        dests.append((wants, {m for m in range(1, M + 1) if m not in wants and rnd.random() < 0.4}))
    sparse = rnd.random() < 0.5

    def entry():
        return rnd.randrange(1, field.order) if not sparse or rnd.random() < 0.3 else 0

    V = {m: Matrix(field, n, L, tuple(entry() for _ in range(n * L))) for m, L in streams.items()}
    return make_instance(M, dests), LinearScheme(field, n, V)


def family_cases(rnd):
    """Family and example schemes, V only, each put in a random basis (T V,
    T invertible), then broken two ways: V_1 moved onto V_2's columns, and
    one entry of V_1 changed.  Antidotes K=24 U=1 D=3 over GF(29), n = 22,
    is one of verify-large's benchmark schemes."""
    cases = [
        (gen_neighboring_antidotes(5, 0, 1), build_antidote_scheme(5, 0, 1)),
        (gen_neighboring_antidotes(7, 1, 2), build_antidote_scheme(7, 1, 2)),
        (gen_neighboring_antidotes(24, 1, 3), build_antidote_scheme(24, 1, 3)),
        (gen_neighboring_interference(6, 1, 2), build_interference_scheme(6, 1, 2)),
        (gen_x_network(6, 2), build_x_scheme(6, 2)),
        *((ex.instance, ex.scheme) for ex in (builtin_example(1, BinaryField(3)), builtin_example(3, PrimeField(3)))),
    ]
    for inst, sch in cases:
        f, n = sch.field, sch.n
        while (T := Matrix(f, n, n, tuple(rnd.randrange(f.order) for _ in range(n * n)))).rank() < n:
            pass
        V = {m: T @ v for m, v in sch.V.items()}
        flipped = list(V[1].entries)
        flipped[0] = f.add(flipped[0], 1)
        yield inst, LinearScheme(f, n, V), True
        yield inst, LinearScheme(f, n, {**V, 1: V[2]}), False
        yield inst, LinearScheme(f, n, {**V, 1: Matrix(f, n, V[1].cols, tuple(flipped))}), None


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
def test_rank_mode_and_v_only_simulation_match_references(field, no_synthesis):
    """On seeded random V-only schemes, rank-mode ``verify`` gives the
    report its definition gives (``reference_verify.verify_rank``), and
    ``simulate_exhaustive`` the least-tuple reference's exact result
    wherever q^streams is small, valid schemes and invalid ones alike."""
    rnd = random.Random(f"rank property {field!r}")
    verdicts, simulated = Counter(), 0
    for case in range(120):
        inst, scheme = unnormalized_case(rnd, field)
        rep = verify(inst, scheme, mode="rank")
        assert rep == reference_verify.verify_rank(inst, scheme), case
        verdicts[rep.valid] += 1
        if field.order ** sum(map(scheme.stream_count, scheme.V)) <= 2**10:
            expected = reference.simulate_least(inst, scheme, reference.lexicographic_tuples(scheme))
            assert outcome(simulate_exhaustive(inst, scheme)) == expected, case
            assert expected[0] == rep.valid
            simulated += 1
    assert min(verdicts.values()) >= 20 and simulated >= 60


def test_rank_mode_and_v_only_simulation_match_references_on_families(no_synthesis):
    """Family and example schemes in a random basis verify and simulate as
    the references say; moving V_1 onto V_2 breaks each, and so, on these
    instances, may a changed entry.  Where the reference cannot enumerate,
    exhaustive and sampled simulation still pass exactly the schemes that
    verify."""
    rnd = random.Random("rank property families")
    seen = Counter()
    for inst, scheme, valid in family_cases(rnd):
        rep = verify(inst, scheme, mode="rank")
        assert rep == reference_verify.verify_rank(inst, scheme)
        assert valid is None or rep.valid == valid
        seen[rep.valid] += 1
        space = scheme.field.order ** sum(map(scheme.stream_count, scheme.V))
        if space < 2**12:  # not the X network's or antidotes K=24's
            expected = reference.simulate_least(inst, scheme, reference.lexicographic_tuples(scheme))
            assert outcome(simulate_exhaustive(inst, scheme)) == expected
            seen["simulated"] += 1
        else:
            assert simulate_exhaustive(inst, scheme).ok == rep.valid
            assert simulate_sampled(inst, scheme, 50, seed=seen["lifted"]).ok == rep.valid
            seen["lifted"] += 1
    assert seen[True] >= 7 and seen[False] >= 10 and seen["simulated"] == 9 and seen["lifted"] == 12


def _relabel(inst, scheme, relabel):
    inst2 = Instance(
        inst.num_messages,
        tuple(
            Destination(
                d.id,
                frozenset(relabel[m] for m in d.wants),
                frozenset(relabel[m] for m in d.has),
            )
            for d in inst.destinations
        ),
        inst.family,
    )
    scheme2 = LinearScheme(
        scheme.field,
        scheme.n,
        {relabel[m]: v for m, v in scheme.V.items()},
        None if scheme.U is None else {(relabel[m], k): u for (m, k), u in scheme.U.items()},
    )
    return inst2, scheme2


def test_permuting_message_ids_preserves_verdict():
    rnd = random.Random(3)
    cases = [
        (builtin_example(2).instance, builtin_example(2).scheme),
        (three_cycle_instance(), collision_scheme()),
        (three_cycle_instance(), builtin_example(1).scheme),
    ]
    for inst, scheme in cases:
        perm = list(range(1, inst.num_messages + 1))
        rnd.shuffle(perm)
        relabel = dict(zip(range(1, inst.num_messages + 1), perm))
        inst2, scheme2 = _relabel(inst, scheme, relabel)
        assert verify(inst2, scheme2).valid == verify(inst, scheme).valid


DECODER_KINDS = ("valid", "flipped", "missing", "singular")


def decoder_case(rnd, field, kind):
    """A random instance and a decoder-mode scheme: synthesized combiners,
    or random ones where synthesis fails, then changed as kind says.  Some
    messages have no streams and some destinations hold every message they
    do not want."""
    M = rnd.randrange(1, 6)
    streams = {m: rnd.randrange(3) for m in range(1, M + 1)}
    n = rnd.randrange(1, sum(streams.values()) + 3)
    dests = []
    for k in rnd.sample(range(1, 6), rnd.randrange(1, 5)):
        wants = set(rnd.sample(range(1, M + 1), rnd.randrange(1, min(M, 2) + 1)))
        rest = [m for m in range(1, M + 1) if m not in wants]
        has = set(rest) if rnd.random() < 0.25 else {m for m in rest if rnd.random() < 0.4}
        dests.append(Destination(k, frozenset(wants), frozenset(has)))
    inst = Instance(M, tuple(dests))

    def rand_matrix(rows, cols):
        return Matrix(field, rows, cols, tuple(rnd.randrange(field.order) for _ in range(rows * cols)))

    V = {m: rand_matrix(n, streams[m]) for m in range(1, M + 1)}
    try:
        U = dict(synthesize_decoders(inst, LinearScheme(field, n, V)).U)
    except NoDecoderExists:
        U = {(m, d.id): rand_matrix(streams[m], n) for d in dests for m in d.wants}
    keys = sorted(key for key, u in U.items() if u.rows)
    if kind == "missing":
        del U[rnd.choice(sorted(U))]
    elif kind in ("flipped", "singular") and keys:
        key = rnd.choice(keys)
        entries = list(U[key].entries)
        if kind == "flipped":
            j = rnd.randrange(len(entries))
            entries[j] = field.add(entries[j], rnd.randrange(1, field.order))
        else:  # a zero row makes U V_m singular
            entries[:n] = [0] * n
        U[key] = Matrix(field, streams[key[0]], n, tuple(entries))
    return inst, LinearScheme(field, n, V, U)


@pytest.mark.parametrize(
    "field",
    [PrimeField(2), PrimeField(3), PrimeField(37), PrimeField(2**31 - 1), BinaryField(2), BinaryField(3)],
    ids=repr,
)
def test_decoder_mode_matches_reference(field):
    """Decoder mode reads every property off one packed product per decoder
    row.  Its whole report, diagnostics and their order included, equals the
    definition's, which forms U_{m,k} V_i for each interferer on its own."""
    rnd = random.Random(f"decoder {field!r}")
    seen = set()
    for case in range(80):
        kind = DECODER_KINDS[case % len(DECODER_KINDS)]
        inst, scheme = decoder_case(rnd, field, kind)
        rep = verify(inst, scheme, mode="decoder")
        assert rep.to_json() == reference_verify.verify_decoder(inst, scheme).to_json(), (case, kind)
        seen |= {d.kind for d in rep.diagnostics}
        covered = {
            "valid": rep.valid,
            "no streams": any(v.cols == 0 for v in scheme.V.values()),
            "holds all": any(len(d.has | d.wants) == inst.num_messages for d in inst.destinations),
        }
        seen |= {name for name, hit in covered.items() if hit}
    assert seen == {"valid", "property1", "property2", "missing-decoder", "no streams", "holds all"}


def test_decoder_mode_forms_no_matrix_products(monkeypatch):
    """Decoder mode packs [V_1 | ... | V_K] once per call, so the matrix
    products it forms do not grow with the interferers: on the unicast
    X-network K=15 L=4 scheme (300 messages) it forms none, valid or not."""
    inst = gen_x_network(15, 4)
    umap = to_unicast(inst, 4)
    uni = scheme_to_unicast(umap, synthesize_decoders(inst, build_x_scheme(15, 4)))
    key = min(uni.U)
    flipped = dict(uni.U)
    u = uni.U[key]
    flipped[key] = Matrix(u.field, u.rows, u.cols, (1 - u.entries[0],) + u.entries[1:])
    broken = LinearScheme(uni.field, uni.n, uni.V, flipped)
    calls = []
    matmul = Matrix.__matmul__

    def counting(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    assert verify(umap.transformed, uni, mode="decoder").valid
    rep = verify(umap.transformed, broken, mode="decoder")
    assert calls == []
    assert not rep.valid and {d.destination for d in rep.diagnostics} == {key[1]}


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), BinaryField(2)], ids=repr)
def test_decoder_mode_reads_one_by_one_blocks_off_their_entry(field, monkeypatch):
    """Example 1 sends one stream per message, so every own block U_{m,k} V_m
    is 1x1: with U_{1,1} set to each row of GF(q)^2, singular blocks and
    nonsingular ones, decoder mode reports what the definition gives, and it
    ranks only blocks larger than 1x1 (example 2's are 2x2)."""
    ranked = []
    rank = Matrix.rank

    def counting(mat):
        ranked.append((mat.rows, mat.cols))
        return rank(mat)

    monkeypatch.setattr(Matrix, "rank", counting)
    ex = builtin_example(1, field)
    verdicts = set()
    for row in itertools.product(range(field.order), repeat=ex.scheme.n):
        U = dict(ex.scheme.U)
        U[(1, 1)] = Matrix.from_rows(field, [list(row)])
        sch = LinearScheme(field, ex.scheme.n, ex.scheme.V, U)
        rep = verify(ex.instance, sch, mode="decoder")
        assert rep.to_json() == reference_verify.verify_decoder(ex.instance, sch).to_json(), row
        verdicts.add("property2" in {d.kind for d in rep.diagnostics})
    assert verdicts == {True, False}
    assert ranked == []
    ex = builtin_example(2, field)
    assert verify(ex.instance, ex.scheme, mode="decoder").valid
    assert ranked == [(2, 2)] * 5


# ----------------------------------------------------------------------
# synthesize_decoders
# ----------------------------------------------------------------------


def test_synthesize_decoders_example3():
    ex = builtin_example(3)
    synth = synthesize_decoders(ex.instance, LinearScheme(ex.scheme.field, ex.scheme.n, ex.scheme.V))
    rep = verify(ex.instance, synth, mode="decoder")
    assert rep.valid


def test_synthesize_decoders_routing_selects_coordinates():
    inst = three_cycle_instance()
    scheme = routing_scheme(inst)
    synth = synthesize_decoders(inst, scheme)
    assert verify(inst, synth).valid
    for (m, k), u in synth.U.items():
        prod = u @ scheme.V[m]
        assert prod.rank() == 1


def test_synthesize_decoders_fails_on_collision():
    with pytest.raises(NoDecoderExists):
        synthesize_decoders(three_cycle_instance(), collision_scheme())


def synthesis_outcome(synthesize, inst, scheme):
    """The combiners a synthesis gives, or the text of its NoDecoderExists,
    which names the first (m, k) with no decoder."""
    try:
        return dict(synthesize(inst, scheme).U)
    except NoDecoderExists as exc:
        return str(exc)


def holding_all_others(inst):
    """inst with its first destination holding every message it does not want."""
    d, *rest = inst.destinations
    others = frozenset(range(1, inst.num_messages + 1)) - d.wants
    return Instance(inst.num_messages, (Destination(d.id, d.wants, others), *rest), inst.family)


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
def test_synthesized_decoders_match_reference(field):
    """On seeded random V-only schemes over instances that are not
    normalized, some with messages of no streams and every third with a
    destination holding every message it does not want, ``synthesize_decoders``
    gives the definition's combiners (``reference_verify.synthesize_decoders``)
    entry for entry, or fails with its message at the same first (m, k), and
    succeeds exactly when rank mode finds the scheme valid."""
    rnd = random.Random(f"synthesis property {field!r}")
    seen = Counter()
    for case in range(150):
        inst, scheme = unnormalized_case(rnd, field)
        if case % 3 == 0:
            inst = holding_all_others(inst)
        got = synthesis_outcome(synthesize_decoders, inst, scheme)
        assert got == synthesis_outcome(reference_verify.synthesize_decoders, inst, scheme), case
        assert isinstance(got, dict) == verify(inst, scheme, mode="rank").valid, case
        seen[isinstance(got, dict)] += 1
        seen["no streams"] += isinstance(got, dict) and any(u.rows == 0 for u in got.values())
    assert seen[True] >= 25 and seen[False] >= 25 and seen["no streams"] >= 5


def test_synthesized_decoders_match_reference_on_families():
    """Family and example schemes in a random basis synthesize the
    definition's combiners; moving V_1 onto V_2 (a collision) makes both
    fail at the same first (m, k)."""
    rnd = random.Random("synthesis families")
    seen = Counter()
    for inst, scheme, valid in family_cases(rnd):
        got = synthesis_outcome(synthesize_decoders, inst, scheme)
        assert got == synthesis_outcome(reference_verify.synthesize_decoders, inst, scheme)
        assert valid is None or isinstance(got, dict) == valid
        seen[isinstance(got, dict)] += 1
    assert seen[True] >= 6 and seen[False] >= 6


def test_synthesis_reduces_once_per_call(monkeypatch):
    """``synthesize_decoders`` reduces [V_1 | ... | V_K | J] once per call
    (one ``hstack_all``, one ``back_substitute``) and reads each (m, k)'s
    annihilator off it with one ``restrict``: on antidotes K=32 U=2 D=4 in
    a random basis it runs no ``left_nullspace`` and no full reduced form
    (``_rref``)."""
    calls = []

    def spying(owner, name, wrap=lambda fn: fn):
        real = getattr(owner, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, wrap(spy))

    spying(galois, "_rref")
    spying(Matrix, "hstack_all", staticmethod)
    spying(Matrix, "left_nullspace")
    for name in ("back_substitute", "restrict"):
        spying(EchelonBasis, name)
    inst = gen_neighboring_antidotes(32, 2, 4)
    sch = build_antidote_scheme(32, 2, 4)
    rnd = random.Random("synthesis calls")
    f, n = sch.field, sch.n
    while (T := Matrix(f, n, n, tuple(rnd.randrange(f.order) for _ in range(n * n)))).rank() < n:
        pass
    scheme = LinearScheme(f, n, {m: T @ v for m, v in sch.V.items()})
    calls.clear()
    synth = synthesize_decoders(inst, scheme)
    pairs = sum(len(d.wants) for d in inst.destinations)
    assert len(synth.U) == pairs
    assert Counter(calls) == {"hstack_all": 1, "back_substitute": 1, "restrict": pairs}
    assert verify(inst, synth, mode="decoder").valid


# ----------------------------------------------------------------------
# simulate_exhaustive
# ----------------------------------------------------------------------


def test_simulate_example2_gf2():
    ex = builtin_example(2)
    res = simulate_exhaustive(ex.instance, ex.scheme)
    assert res.ok and res.tuples_checked == 2**10


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=repr)
def test_simulate_example3(field):
    ex = builtin_example(3, field)
    assert simulate_exhaustive(ex.instance, ex.scheme).ok


def test_simulate_collision_counterexample():
    inst = three_cycle_instance()
    res = simulate_exhaustive(inst, collision_scheme())
    assert not res.ok
    assert res.destination == 1 and res.message == 1
    # two messages differ but the broadcast word and antidotes coincide
    assert res.counterexample is not None


def test_singular_decoder_is_a_counterexample():
    """U_{1,1} V_1 = 0: destination 1's combiner sees the same from x_1 = 1
    as from x_1 = 0, so simulation fails there, as verify does."""
    ex = builtin_example(1)
    f = ex.scheme.field
    U = dict(ex.scheme.U)
    U[(1, 1)] = Matrix.from_rows(f, [[1, 0]])
    sch = LinearScheme(f, ex.scheme.n, ex.scheme.V, U)
    assert "property2, destination 1, message 1" in verify(ex.instance, sch).to_json()["diagnostics"]
    for res in (simulate_exhaustive(ex.instance, sch), simulate_sampled(ex.instance, sch, 10)):
        assert (res.ok, res.tuples_checked, res.destination, res.message) == (False, 1, 1, 1)
        assert res.counterexample == {1: (1,), 2: (0,), 3: (0,)}
        x1 = Matrix.from_cols(f, [list(res.counterexample[1])])
        assert (U[(1, 1)] @ sch.V[1] @ x1).is_zero()


def test_counterexamples_leave_out_messages_without_streams():
    """Message 3 sends no stream, so it has no digits to list.  Whether
    destination 1's combiner is singular (U_{1,1} = [0 1] against
    V_1 = e_1) or lets message 2 leak (U_{1,1} = [1 1]), both simulators
    list messages 1 and 2 only, as the naive reference does."""
    f = PrimeField(2)
    inst = make_instance(3, [({1}, set()), ({2}, {1, 3})])
    V = {1: Matrix.from_cols(f, [[1, 0]]), 2: Matrix.from_cols(f, [[0, 1]]), 3: Matrix(f, 2, 0)}
    for u, first in (([0, 1], {"1": [1], "2": [0]}), ([1, 1], {"1": [0], "2": [1]})):
        scheme = LinearScheme(f, 2, V, {(1, 1): Matrix.from_rows(f, [u]), (2, 2): Matrix.from_rows(f, [[0, 1]])})
        exhaustive, sampled = simulate_exhaustive(inst, scheme), simulate_sampled(inst, scheme, 10)
        assert (exhaustive.to_json()["counterexample"], exhaustive.destination, exhaustive.message) == (first, 1, 1)
        assert (sampled.ok, sampled.destination, sampled.message) == (False, 1, 1)
        assert sorted(sampled.counterexample) == [1, 2]
        if u == [1, 1]:
            assert outcome(exhaustive) == reference.simulate(inst, scheme, reference.lexicographic_tuples(scheme))


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), BinaryField(2)], ids=repr)
def test_combiner_simulation_agrees_with_decoder_mode_verify(field):
    """Combiner simulation reads the checks decoder-mode ``verify`` walks.
    On seeded random combiner schemes (``decoder_case``: messages without
    streams, destinations that want two messages, flipped and singular
    combiners, which the naive reference cannot decode) simulation passes
    iff ``verify`` does, and every failure, exhaustive or sampled, is at a
    check that ``verify`` reports as property1 or property2."""
    rnd = random.Random(f"one walk {field!r}")
    seen = Counter()
    for case in range(150):
        kind = ("valid", "flipped", "singular")[case % 3]
        inst, scheme = decoder_case(rnd, field, kind)
        rep = verify(inst, scheme, mode="decoder")
        flagged = {(d.destination, d.message) for d in rep.diagnostics if d.kind in ("property1", "property2")}
        exhaustive = simulate_exhaustive(inst, scheme)
        assert exhaustive.ok == rep.valid, (case, kind)
        for res in (exhaustive, simulate_sampled(inst, scheme, 20, seed=case)):
            assert res.ok or (res.destination, res.message) in flagged, (case, kind)
        seen["valid" if rep.valid else "singular" if exhaustive.tuples_checked == 1 else "leak"] += 1
        seen["no streams"] += any(v.cols == 0 for v in scheme.V.values())
        seen["two wants"] += any(len(d.wants) > 1 for d in inst.destinations)
    assert min(seen[k] for k in ("valid", "singular", "leak", "no streams", "two wants")) >= 5, seen


def test_combiner_checks_pack_v_once_and_build_no_error_matrix(monkeypatch):
    """Decoder-mode ``verify`` and combiner simulation each pack
    [V_1 | ... | V_K] once per call (one ``_row_products``) and read every
    check off it.  ``simulate_exhaustive`` reads the checks' supports and
    builds no error matrix, so it takes no column of one (``Matrix.col``):
    on antidotes K=32 U=2 D=4 with synthesized combiners, and with one
    combiner entry changed."""
    inst = gen_neighboring_antidotes(32, 2, 4)
    scheme = synthesize_decoders(inst, build_antidote_scheme(32, 2, 4))
    f, u = scheme.field, scheme.U[(1, 1)]
    changed = LinearScheme(f, scheme.n, scheme.V, {**scheme.U, (1, 1): Matrix(f, u.rows, u.cols, (1,) + u.entries[1:])})
    calls = Counter()

    def spying(owner, name):
        real = getattr(owner, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, spy)

    spying(scheme_module, "_row_products")
    spying(Matrix, "col")
    for sch, valid in ((scheme, True), (changed, False)):
        assert verify(inst, sch, mode="decoder").valid == valid
        assert calls == {"_row_products": 1}
        calls.clear()
        assert simulate_exhaustive(inst, sch).ok == valid
        assert calls == {"_row_products": 1}
        calls.clear()
        assert simulate_sampled(inst, sch, 20).ok == valid
        assert calls["_row_products"] == 1
        calls.clear()


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_simulate_rank_deficient_unheld_columns(field, no_synthesis):
    """In ``mixed_failure_case`` V has a null space on the streams each of
    destinations 1-3 does not hold, with desired streams at pivot and at
    free columns of its reduced rows.  The error rows read off those rows
    give the naive reference's first counterexample."""
    inst, scheme = mixed_failure_case(field)
    expected = reference.simulate_least(inst, scheme, reference.lexicographic_tuples(scheme))
    assert outcome(simulate_exhaustive(inst, scheme)) == expected
    assert not expected[0]
    # with destination 2 only, whose desired stream lies in its interference span
    only2 = make_instance(6, [({3}, {1, 2, 6})])
    expected = reference.simulate_least(only2, scheme, reference.lexicographic_tuples(scheme))
    assert outcome(simulate_exhaustive(only2, scheme)) == expected
    assert (expected[0], expected[3], expected[4]) == (False, 1, 3)


def test_v_only_simulation_back_substitutes_only_the_rows_it_reads(monkeypatch):
    """V-only simulation reduces V once per call, all its streams reversed
    (one ``back_substitute``), and no matrix per destination: each
    destination restricts that form once (``restrict``), which adds again
    exactly the rows whose pivots are streams it holds, and reads each
    desired stream's row of R once (``read``), packed.  On antidotes K=32
    U=2 D=4 over GF(37) ``simulate_sampled`` forms no full reduced form
    (``_rref``, ``echelon_rows``) and, on the valid scheme, unpacks no row.
    With V_1 moved onto V_2 the scheme fails, and the error rows of the
    checks that fail are built from those same reads: each row unpacked is
    one a read gave, and none is unpacked twice."""
    names, forms, reads, unpacked = [], [], [], []
    rref, echelon_rows, unpack = galois._rref, EchelonBasis.echelon_rows, EchelonBasis.unpack
    back_substitute, restrict, read = EchelonBasis.back_substitute, EchelonBasis.restrict, EchelonBasis.read

    def spy_rref(*args):
        names.append("_rref")
        return rref(*args)

    def spy_echelon_rows(self):
        names.append("echelon_rows")
        return echelon_rows(self)

    def spy_back_substitute(self):
        names.append(("back_substitute", self.n, self.rank))
        forms.append(self)
        return back_substitute(self)

    def spy_restrict(self, cols, row_of, held):
        held = list(held)
        names.append(("restrict", sorted(held)))
        return restrict(self, cols, row_of, held)

    def spy_read(self, c):
        row = read(self, c)
        names.append(("read", c))
        reads.append(row)
        return row

    def spy_unpack(self, row):
        unpacked.append(row)
        return unpack(self, row)

    monkeypatch.setattr(galois, "_rref", spy_rref)
    monkeypatch.setattr(EchelonBasis, "echelon_rows", spy_echelon_rows)
    monkeypatch.setattr(EchelonBasis, "back_substitute", spy_back_substitute)
    monkeypatch.setattr(EchelonBasis, "restrict", spy_restrict)
    monkeypatch.setattr(EchelonBasis, "read", spy_read)
    monkeypatch.setattr(EchelonBasis, "unpack", spy_unpack)
    inst, valid = gen_neighboring_antidotes(32, 2, 4), build_antidote_scheme(32, 2, 4)
    for scheme in (valid, LinearScheme(valid.field, valid.n, {**valid.V, 1: valid.V[2]})):
        rank = Matrix.hstack_all(scheme.field, [scheme.V[m] for m in scheme.message_ids()]).rank()
        for spied in (names, forms, reads, unpacked):
            spied.clear()
        assert simulate_sampled(inst, scheme, 50, seed=0).ok == (scheme is valid)
        (form,) = forms
        owner = [m for m in scheme.message_ids() for _ in range(scheme.stream_count(m))][::-1]  # column -> message
        expected = [("back_substitute", 96, rank)]
        for d in inst.destinations:
            expected.append(("restrict", [i for i, p in enumerate(form.pivots) if owner[p] in d.has]))
            expected += sorted((("read", c) for c, m in enumerate(owner) if m in d.wants), reverse=True)
        assert names == expected
        if scheme is valid:
            assert unpacked == []
        else:
            assert 0 < len(unpacked) == len({id(row) for row in unpacked})
            assert {id(row) for row in unpacked} <= {id(row) for row in reads if row is not None}


def desired_pivot_with_free_entries(inst, scheme):
    """Whether, for some destination, a desired stream is the pivot of a row
    of R (the reference's reduced row echelon form of V on the unheld
    streams, reversed) that is nonzero at a free column."""
    f = scheme.field
    streams = [m for m in scheme.message_ids() for _ in range(scheme.stream_count(m))]
    vrows = Matrix.hstack_all(f, [scheme.V[m] for m in scheme.message_ids()]).row_list()
    for d in inst.destinations:
        unheld = [s for s in reversed(range(len(streams))) if streams[s] not in d.has]
        reduced, pivots = ref_galois.rref(f, [[row[s] for s in unheld] for row in vrows], len(unheld))
        free = [c for c in range(len(unheld)) if c not in pivots]
        if any(streams[unheld[c]] in d.wants and any(row[j] for j in free) for row, c in zip(reduced, pivots)):
            return True
    return False


def pivot_desired_case(field):
    """Destination 1 wants message 3 and holds nothing, and V_3 = V_2 - V_1
    in GF(q)^2.  On its streams in reverse order (3, 2, 1) V is
    [[1, 1, 0], [0, 1, 1]] and R = [[1, 0, -1], [0, 1, 1]]: stream 3 is the
    pivot of row 1, whose free entry at stream 1 is -1 in R but 0 in V, so
    message 3's error row is right only if row 1 is reduced against row 2.
    Destination 2 decodes message 1."""
    V = {1: (0, 1), 2: (1, 1), 3: (1, 0)}
    scheme = LinearScheme(field, 2, {m: Matrix(field, 2, 1, v) for m, v in V.items()})
    return make_instance(3, [({3}, set()), ({1}, {3})]), scheme


def random_pivot_desired_cases(field, count, max_streams):
    """Seeded random V-only schemes with a desired stream at a pivot that
    has nonzero free entries; each is a collision."""
    rnd = random.Random(f"pivot desired {field!r}")
    cases = []
    while len(cases) < count:
        M, n = rnd.randrange(2, 4), rnd.randrange(1, 4)
        L = [rnd.randrange(1, 3) for _ in range(M)]
        if sum(L) > max_streams:
            continue
        entries = [tuple(rnd.randrange(field.order) for _ in range(n * k)) for k in L]
        V = {m: Matrix(field, n, k, e) for m, (k, e) in enumerate(zip(L, entries), 1)}
        dests = []
        for _ in range(rnd.randrange(1, 4)):
            wants = {rnd.randrange(1, M + 1)}
            dests.append((wants, {m for m in range(1, M + 1) if m not in wants and rnd.random() < 0.3}))
        inst, scheme = make_instance(M, dests), LinearScheme(field, n, V)
        if desired_pivot_with_free_entries(inst, scheme):
            cases.append((inst, scheme))
    return cases


@pytest.mark.parametrize(
    "field, count, max_streams", [(PrimeField(3), 30, 5), (PrimeField(37), 2, 3)], ids=["GF(3)", "GF(37)"]
)
def test_simulation_back_substitutes_desired_pivot_rows(field, count, max_streams, no_synthesis):
    """V-only collision schemes in which a desired stream is a pivot of R
    with nonzero free entries: both simulators give the naive reference's
    first counterexample, which needs those rows fully reduced."""
    for inst, scheme in [pivot_desired_case(field), *random_pivot_desired_cases(field, count, max_streams)]:
        assert desired_pivot_with_free_entries(inst, scheme)
        expected = reference.simulate(inst, scheme, reference.lexicographic_tuples(scheme))
        assert not expected[0]
        assert outcome(simulate_exhaustive(inst, scheme)) == expected
        tuples = reference.sampled_tuples(scheme, 30, seed=5)
        assert outcome(simulate_sampled(inst, scheme, 30, seed=5)) == reference.simulate_least(inst, scheme, tuples)


def test_simulate_gf2m_scheme():
    ex = builtin_example(1, BinaryField(3))
    assert simulate_exhaustive(ex.instance, ex.scheme).ok


def test_three_way_agreement_on_random_schemes():
    """rank verify passes <=> synthesize succeeds <=> exhaustive simulation passes."""
    rnd = random.Random(11)
    agree = 0
    for _ in range(120):
        field = rnd.choice([PrimeField(2), PrimeField(3)])
        M = rnd.randrange(2, 5)
        n = rnd.randrange(1, 4)
        dests = []
        for k in range(1, rnd.randrange(2, 5)):
            wants = {rnd.randrange(1, M + 1)}
            rest = [m for m in range(1, M + 1) if m not in wants]
            has = {m for m in rest if rnd.random() < 0.4}
            dests.append(Destination(k, frozenset(wants), frozenset(has)))
        inst = Instance(M, tuple(dests))
        V = {m: Matrix(field, n, 1, tuple(rnd.randrange(field.order) for _ in range(n))) for m in range(1, M + 1)}
        try:
            scheme = LinearScheme(field, n, V)
        except SchemeMalformed:
            continue
        if field.order ** M > 2**14:
            continue
        rank_ok = verify(inst, scheme).valid
        try:
            synthesize_decoders(inst, scheme)
            synth_ok = True
        except NoDecoderExists:
            synth_ok = False
        sim_ok = simulate_exhaustive(inst, scheme).ok
        assert rank_ok == synth_ok == sim_ok
        agree += 1
    assert agree > 60


def random_case(rnd, field, max_streams, max_n=3):
    """Random instance and scheme; about half the schemes carry random invertible combiners."""
    M = rnd.randrange(1, 4)
    L = {}
    for m in range(1, M + 1):
        L[m] = rnd.randrange(0 if m > 1 else 1, 3)
        if sum(L.values()) > max_streams:
            L[m] = 0
    n = rnd.randrange(1, max_n + 1)
    dests = []
    for k in range(1, rnd.randrange(2, 5)):
        wants = {rnd.randrange(1, M + 1)}
        has = {m for m in range(1, M + 1) if m not in wants and rnd.random() < 0.4}
        dests.append(Destination(k, frozenset(wants), frozenset(has)))
    inst = Instance(M, tuple(dests))

    def rand_matrix(rows, cols):
        return Matrix(field, rows, cols, tuple(rnd.randrange(field.order) for _ in range(rows * cols)))

    V = {m: rand_matrix(n, L[m]) for m in range(1, M + 1)}
    if rnd.random() < 0.5:
        for _ in range(3):
            U = {(m, d.id): rand_matrix(L[m], n) for d in dests for m in d.wants}
            if all((U[(m, k)] @ V[m]).rank() == L[m] for m, k in U):
                return inst, LinearScheme(field, n, V, U), "decoders"
    scheme = LinearScheme(field, n, V)
    try:
        synthesize_decoders(inst, scheme)
    except NoDecoderExists:
        return inst, scheme, "collision"
    return inst, scheme, "decodable"


def outcome(res):
    return (res.ok, res.tuples_checked, res.counterexample, res.destination, res.message)


def check_sampled(inst, scheme, kind, count, seed):
    """simulate_sampled against a reference: the per-tuple one with decoders,
    the least-tuple definition for V-only schemes on small fields, and an
    earlier partner of the reported tuple for V-only collisions on large ones."""
    res = simulate_sampled(inst, scheme, count, seed=seed)
    tuples = reference.sampled_tuples(scheme, count, seed)
    if scheme.U is None and scheme.field.order <= 4:
        assert outcome(res) == reference.simulate_least(inst, scheme, tuples)
    elif kind == "collision":
        assert not res.ok
        check_earlier_partner(inst, scheme, res)
    else:
        assert outcome(res) == reference.simulate(inst, scheme, tuples)


def check_earlier_partner(inst, scheme, res):
    """Some tuple before the reported one has its broadcast word and antidote
    symbols at the reported destination but other symbols of the reported message.

    It is sought along each basis vector of the null space of V on the
    streams the destination does not hold, reduced with those streams
    reversed, so that each vector leads, in stream order, with its 1 at its
    own free stream: a failing tuple differs in the message's symbols from
    the tuple one of them takes it to, which is earlier."""
    f = scheme.field
    streams = [m for m in scheme.message_ids() for _ in range(scheme.stream_count(m))]
    x = [e for m in scheme.message_ids() for e in res.counterexample.get(m, ())]  # a message without streams is left out
    d = next(d for d in inst.destinations if d.id == res.destination)
    unheld = [s for s, m in enumerate(streams) if m not in d.has]
    vfull = Matrix.hstack_all(f, [scheme.V[m] for m in scheme.message_ids()])
    for z in vfull.take_cols(unheld[::-1]).nullspace().col_list():
        shift = [0] * len(x)
        for s, e in zip(unheld[::-1], z):
            shift[s] = e
        lead = next(s for s, e in enumerate(shift) if e)
        c = f.mul(x[lead], f.inv(shift[lead]))  # zeroes y's digit at lead
        y = [f.add(a, f.neg(f.mul(c, b))) for a, b in zip(x, shift)]
        if any(y[s] != x[s] for s, m in enumerate(streams) if m == res.message):
            break
    else:
        pytest.fail(f"no earlier partner of {x}")
    assert y < x
    assert reference.encode(scheme, y) == reference.encode(scheme, x)
    assert all(y[s] == x[s] for s, m in enumerate(streams) if m in d.has)


@pytest.fixture
def no_synthesis(monkeypatch):
    """Make decoder synthesis fail loudly: simulation must not need it."""

    def refuse(*args):
        raise RuntimeError("simulation synthesized decoders")

    monkeypatch.setattr(scheme_module, "synthesize_decoders", refuse)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), BinaryField(2)], ids=repr)
def test_simulation_matches_reference(field, no_synthesis):
    """Both simulators give the naive per-tuple reference's exact result:
    verdict, tuples checked, first counterexample, destination and message.
    The references synthesize decoders through their own import; the
    simulators may not."""
    rnd = random.Random(field.order)
    kinds = {"decoders": 0, "decodable": 0, "collision": 0}
    failures = 0
    for case in range(120):
        inst, scheme, kind = random_case(rnd, field, max_streams=5 if field.order == 2 else 4)
        kinds[kind] += 1
        expected = reference.simulate(inst, scheme, reference.lexicographic_tuples(scheme))
        assert outcome(simulate_exhaustive(inst, scheme)) == expected, (case, kind)
        failures += not expected[0]
        check_sampled(inst, scheme, kind, 40, seed=case)
    assert min(kinds.values()) >= 10 and 10 <= failures <= 110


def large_field_cases(field):
    """Hand-made one- and two-stream schemes with known first failures."""
    rnd = random.Random(field.order)

    def entries(count):
        return tuple(rnd.randrange(1, field.order) for _ in range(count))

    V = {m: Matrix(field, 1, 1, entries(1)) for m in (1, 2)}
    U = {key: Matrix(field, 1, 1, entries(1)) for key in ((1, 1), (2, 2))}
    pair = Instance(2, (Destination(1, frozenset({1}), frozenset()), Destination(2, frozenset({2}), frozenset({1}))))
    single = Instance(1, (Destination(1, frozenset({1}), frozenset()),))
    wide = {m: Matrix(field, 2, 1, (m == 1, m == 2)) for m in (1, 2)}
    return [
        (pair, LinearScheme(field, 1, V, U), "decoders"),  # message 2 interferes at destination 1
        (pair, LinearScheme(field, 1, V), "collision"),  # first collision at tuple (1, 0)
        (pair, LinearScheme(field, 2, wide), "decodable"),
        (single, LinearScheme(field, 1, {1: Matrix(field, 1, 1, (0,))}), "collision"),
        (single, LinearScheme(field, 1, {1: V[1]}), "decodable"),
    ]


@pytest.mark.parametrize(
    "field",
    [PrimeField(1048583), PrimeField(2147483647), BinaryField(12), BinaryField(32)],
    ids=repr,
)
def test_simulation_matches_reference_large_fields(field, no_synthesis):
    """Fields with more than 2^20 elements, or of degree above 8, up to the
    largest supported, where products of two elements pass 2^53.  The
    reference scans only the first 4097 tuples: a result within them must
    match exactly, and past them no counterexample may come earlier."""
    prefix = 4097
    for case, (inst, scheme, kind) in enumerate(large_field_cases(field)):
        res = simulate_exhaustive(inst, scheme)
        tuples = itertools.islice(reference.lexicographic_tuples(scheme), prefix)
        expected = reference.simulate(inst, scheme, tuples)
        if not expected[0] or expected[1] < prefix:
            assert outcome(res) == expected, (case, kind)
        else:
            assert res.ok or res.tuples_checked >= prefix, (case, kind)
        check_sampled(inst, scheme, kind, 30, seed=case)


def test_sampled_counterexample_pinned():
    """A flipped combiner entry fails on the fourth tuple seed 11 draws; the
    tuple and its position are those of the per-tuple sampler this kernel
    replaced, so the same tuples are drawn in the same order."""
    inst = gen_neighboring_interference(9, 1, 2)
    scheme = synthesize_decoders(inst, build_interference_scheme(9, 1, 2))
    U = dict(scheme.U)
    u = U[(1, 1)]
    U[(1, 1)] = Matrix(u.field, u.rows, u.cols, tuple(e ^ (i == 2) for i, e in enumerate(u.entries)))
    res = simulate_sampled(inst, LinearScheme(scheme.field, scheme.n, scheme.V, U), 50, seed=11)
    assert res.to_json() == {
        "ok": False,
        "tuples_checked": 4,
        "counterexample": {"1": [0], "2": [1], "3": [1], "4": [0], "5": [0], "6": [1], "7": [1], "8": [1], "9": [0]},
        "destination": 1,
        "message": 1,
    }


@pytest.mark.parametrize("count", [0, -5])
def test_sampled_count_must_be_positive(count):
    ex = builtin_example(1)
    with pytest.raises(BadParams):
        simulate_sampled(ex.instance, ex.scheme, count)


def walk_cases(inst, scheme):
    """The cases of the restricted walk this scheme meets, read off the
    reference's reduced forms of V with its streams reversed: the parent
    (every stream) and R (a destination's unheld streams, every other
    column set to 0).  "new pivot": a desired stream is no pivot of the
    parent but one of R, the pivot of a row eliminated again.  "kept,
    decodes" and "kept, fails": a desired stream is a pivot of the parent,
    so of R, and the parent's row there, cut to the unheld streams, is not
    the unit row; R's row there is, or is not."""
    f = scheme.field
    owner = [m for m in scheme.message_ids() for _ in range(scheme.stream_count(m))][::-1]  # column -> message
    vrows = [row[::-1] for row in Matrix.hstack_all(f, [scheme.V[m] for m in scheme.message_ids()]).row_list()]
    parent, parent_pivots = ref_galois.rref(f, vrows, len(owner))
    found = set()
    for d in inst.destinations:
        keep = [int(m not in d.has) for m in owner]
        reduced, pivots = ref_galois.rref(f, [[e * k for e, k in zip(row, keep)] for row in vrows], len(owner))
        for c in (c for c, m in enumerate(owner) if m in d.wants):
            unit = [int(j == c) for j in range(len(owner))]
            if c in pivots and c not in parent_pivots:
                found.add("new pivot")
            elif c in parent_pivots and [e * k for e, k in zip(parent[parent_pivots.index(c)], keep)] != unit:
                found.add("kept, decodes" if reduced[pivots.index(c)] == unit else "kept, fails")
    return found


def random_walk_case(rnd, field):
    """A seeded random V-only scheme: 2-4 messages of 0-2 streams, n 1-4,
    1-4 destinations wanting 1 or 2 messages, entries mostly 0, 1 and 2."""
    M, n = rnd.randrange(2, 5), rnd.randrange(1, 5)
    entry = lambda: rnd.choice((0, 0, 1, 2, rnd.randrange(field.order)))
    V = {m: Matrix(field, n, k, tuple(entry() for _ in range(n * k))) for m in range(1, M + 1) for k in [rnd.randrange(3)]}
    dests = []
    for _ in range(rnd.randrange(1, 5)):
        wants = set(rnd.sample(range(1, M + 1), rnd.randrange(1, 3)))
        dests.append((wants, {m for m in range(1, M + 1) if m not in wants and rnd.random() < 0.4}))
    return make_instance(M, dests), LinearScheme(field, n, V)


@pytest.mark.parametrize(
    "field", [PrimeField(2), PrimeField(3), PrimeField(37), BinaryField(8), BinaryField(32)], ids=repr
)
def test_restricted_walk_cases_match_the_references(field):
    """Seeded V-only schemes drawn until each case the restricted walk can
    get wrong has been met five times (``walk_cases``): a desired stream
    that becomes the pivot of a row eliminated again, and a kept pivot
    whose cut row is not the unit row, whether reducing it leaves the unit
    row or not.  On each, rank-mode ``verify`` gives the reference's report,
    diagnostics in order, and ``synthesize_decoders`` its combiners or its
    refusal.  ``simulate_exhaustive`` gives the naive reference's result
    where the tuples are few enough to list, and elsewhere passes exactly
    when the scheme decodes, with an earlier partner for a failing tuple;
    ``simulate_sampled`` is checked as ``check_sampled`` checks it."""
    rnd = random.Random(f"restricted walk {field!r}")
    met = Counter()
    for draw in itertools.count():
        assert draw < 4000, met
        inst, scheme = random_walk_case(rnd, field)
        cases = walk_cases(inst, scheme)
        if not cases or all(met[case] >= 5 for case in cases):
            continue
        met.update(cases)
        assert verify(inst, scheme, mode="rank") == reference_verify.verify_rank(inst, scheme)
        combiners = synthesis_outcome(synthesize_decoders, inst, scheme)
        assert combiners == synthesis_outcome(reference_verify.synthesize_decoders, inst, scheme)
        kind = "decodable" if isinstance(combiners, dict) else "collision"
        exhaustive = simulate_exhaustive(inst, scheme)
        if field.order ** sum(map(scheme.stream_count, scheme.V)) <= 2000:
            expected = reference.simulate_least(inst, scheme, reference.lexicographic_tuples(scheme))
            assert outcome(exhaustive) == expected
        else:
            assert exhaustive.ok == (kind == "decodable")
            if not exhaustive.ok:
                check_earlier_partner(inst, scheme, exhaustive)
        check_sampled(inst, scheme, kind, 20, draw)
        if len(met) == 3 and min(met.values()) >= 5:
            break


# ----------------------------------------------------------------------
# dimension audit
# ----------------------------------------------------------------------


def test_audit_5_1_1_equality():
    inst = gen_neighboring_antidotes(5, 1, 1)
    scheme = build_antidote_scheme(5, 1, 1)
    audit = dimension_audit(inst, scheme)
    assert audit.alpha[0] == 10  # five spans of two dimensions each
    assert audit.holds
    assert audit.final_slack == 0  # capacity-tight scheme meets the bound with equality


def test_audit_routing_positive_slack():
    inst = gen_neighboring_antidotes(5, 1, 1)
    audit = dimension_audit(inst, routing_scheme(inst))
    assert audit.holds
    assert audit.final_slack > 0  # routing wastes dimensions


def test_audit_8_1_2():
    inst = gen_neighboring_antidotes(8, 1, 2)
    scheme = build_antidote_scheme(8, 1, 2)
    audit = dimension_audit(inst, scheme)
    jmax = 8 - 3 - 1
    assert audit.checks[-1][0] == jmax
    assert audit.alpha[jmax - 1] >= Fraction(jmax + 1, 2) * audit.alpha[0]
    assert audit.holds


def test_audit_alpha_nondecreasing():
    for K, U, D in [(6, 0, 2), (8, 1, 2), (9, 2, 2)]:
        inst = gen_neighboring_antidotes(K, U, D)
        audit = dimension_audit(inst, build_antidote_scheme(K, U, D))
        assert all(a <= b for a, b in zip(audit.alpha, audit.alpha[1:]))


def test_audit_requires_family():
    ex = builtin_example(1)
    with pytest.raises(UnsupportedFamily):
        dimension_audit(ex.instance, ex.scheme)


def test_audit_refuses_a_family_without_interference():
    """A = U + D = K - 1: every destination holds every other message, so no window is left."""
    with pytest.raises(UnsupportedFamily, match="no interference to audit when A >= K-1"):
        dimension_audit(gen_neighboring_antidotes(4, 1, 2), build_antidote_scheme(4, 1, 2))


def test_audit_rejects_tag_of_another_instance():
    """A K=9 tag on five messages once raised KeyError: 6."""
    inst = gen_neighboring_antidotes(5, 1, 1)
    lying = Instance(5, inst.destinations, FamilyTag.make("neighboring-antidotes", K=9, U=1, D=1))
    with pytest.raises(UnsupportedFamily, match="not the neighboring-antidotes family K=9 U=1 D=1"):
        dimension_audit(lying, build_antidote_scheme(5, 1, 1))


def test_audit_rejects_tampered_tag(tampered_antidotes):
    """Every destination holds every other message: a rate-1 scheme verifies,
    so the K=5 U=1 D=1 accounting must not be applied to it."""
    inst = tampered_antidotes
    field = PrimeField(2)
    rate_one = LinearScheme(field, 1, {m: Matrix.from_rows(field, [[1]]) for m in range(1, 6)})
    assert verify(inst, rate_one).valid
    with pytest.raises(UnsupportedFamily, match="not the neighboring-antidotes family K=5 U=1 D=1"):
        dimension_audit(inst, rate_one)


# ----------------------------------------------------------------------
# scheme files
# ----------------------------------------------------------------------


def test_scheme_file_roundtrip():
    ex = builtin_example(2, PrimeField(3))
    text = serialize_scheme(ex.scheme)
    again = parse_scheme(text)
    assert again == ex.scheme
    assert serialize_scheme(again) == text


def test_scheme_file_v_only():
    ex = builtin_example(1)
    text = serialize_scheme(LinearScheme(ex.scheme.field, ex.scheme.n, ex.scheme.V))
    again = parse_scheme(text)
    assert again.U is None
    assert verify(ex.instance, again).valid


def test_scheme_file_rejects_garbage():
    with pytest.raises(ParseError):
        parse_scheme('{"field": {"kind": "prime", "p": 2}, "n": 0, "V": {}}')
    with pytest.raises(ParseError):
        parse_scheme('{"field": {"kind": "prime", "p": 2}, "n": 2, "V": {"one": [[1],[0]]}}')
    with pytest.raises(ParseError):
        parse_scheme("not json")


@pytest.mark.parametrize(
    "spec",
    ['{"kind": "prime", "p": "5"}', '{"kind": "prime", "p": 5.0}', '{"kind": "gf2m", "m": "3"}',
     '{"kind": "prime", "p": true}', '{"kind": "gf2m", "m": 3, "poly": false}', '[5]'],
)
def test_scheme_file_rejects_non_integer_field_spec(spec):
    with pytest.raises(ParseError, match="bad field spec"):
        parse_scheme('{"field": %s, "n": 1, "V": {"1": [[1]]}}' % spec)


def test_scheme_file_gf2m_field():
    ex = builtin_example(1, BinaryField(4))
    again = parse_scheme(serialize_scheme(ex.scheme))
    assert again.field == BinaryField(4)
    assert verify(ex.instance, again).valid
