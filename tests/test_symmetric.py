"""Family scheme constructors and the three built-in worked examples."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import icx.model
import icx.symmetric
from icx.errors import BadParams
from icx.galois import BinaryField, Matrix, PrimeField
from icx.model import (
    Destination,
    Instance,
    gen_neighboring_antidotes,
    gen_neighboring_interference,
    gen_x_network,
)
from icx.alignment import build_rate_half_vector_scheme, build_scalar_scheme
from icx.scheme import LinearScheme, serialize_scheme, simulate_exhaustive, verify
from icx.symmetric import (
    build_antidote_scheme,
    build_interference_scheme,
    build_x_scheme,
    builtin_example,
    x_precoder_pattern,
)


# ----------------------------------------------------------------------
# neighboring antidotes
# ----------------------------------------------------------------------


def test_antidote_scheme_8_1_2():
    scheme = build_antidote_scheme(8, 1, 2)
    assert scheme.n == 7
    rep = verify(gen_neighboring_antidotes(8, 1, 2), scheme)
    assert rep.valid
    assert set(rep.rates.values()) == {Fraction(2, 7)}


def test_antidote_scheme_5_1_1():
    scheme = build_antidote_scheme(5, 1, 1)
    assert scheme.n == 5
    rep = verify(gen_neighboring_antidotes(5, 1, 1), scheme)
    assert rep.valid and set(rep.rates.values()) == {Fraction(2, 5)}


def test_antidote_scheme_no_alignment_when_u_zero():
    scheme = build_antidote_scheme(7, 0, 4)
    assert scheme.n == 3
    rep = verify(gen_neighboring_antidotes(7, 0, 4), scheme)
    assert rep.valid and set(rep.rates.values()) == {Fraction(1, 3)}


def test_antidote_scheme_boundary_cases():
    # all other messages held: one use, rate 1
    s = build_antidote_scheme(4, 0, 3)
    rep = verify(gen_neighboring_antidotes(4, 0, 3), s)
    assert rep.valid and set(rep.rates.values()) == {Fraction(1)}
    # one interferer: rate half from the construction at U = 0
    s = build_antidote_scheme(5, 1, 2)
    rep = verify(gen_neighboring_antidotes(5, 1, 2), s)
    assert rep.valid and set(rep.rates.values()) == {Fraction(1, 2)}


def test_antidote_scheme_interference_dimensions():
    # interferers collectively occupy exactly U + (K-A-1) dimensions and
    # together with the desired streams fill the space
    K, U, D = 9, 2, 3
    inst = gen_neighboring_antidotes(K, U, D)
    scheme = build_antidote_scheme(K, U, D)
    f = scheme.field
    for d in inst.destinations:
        interference = sorted(inst.interferers(d))
        vint = Matrix.hstack_all(f, [scheme.V[i] for i in interference])
        assert vint.rank() == U + (K - U - D - 1)
        vdes = Matrix.hstack_all(f, [scheme.V[m] for m in sorted(d.wants)])
        assert vdes.hstack(vint).rank() == scheme.n


def test_antidote_scheme_bad_params():
    with pytest.raises(BadParams):
        build_antidote_scheme(5, 2, 1)


def test_antidote_scheme_refuses_more_antidotes_than_other_messages():
    with pytest.raises(BadParams, match="^need 0 <= U <= D and U\\+D < K, got K=3, U=1, D=2$"):
        build_antidote_scheme(3, 1, 2)


def test_antidote_scheme_with_one_interferer_is_the_alignment_scheme():
    """At U + D = K - 2 the construction with U = 0 gives, for every K <= 40,
    the scheme the alignment module builds for the generated instance."""
    for K in range(2, 41):
        for U in range((K - 2) // 2 + 1):
            expected = build_scalar_scheme(gen_neighboring_antidotes(K, U, K - 2 - U), 1)
            assert serialize_scheme(build_antidote_scheme(K, U, K - 2 - U)) == serialize_scheme(expected), (K, U)


def test_antidote_scheme_leaves_the_alignment_module_unloaded():
    """In a fresh interpreter, building an A = K-2 scheme imports nothing from icx.alignment."""
    script = (
        "import sys\n"
        "from icx.symmetric import build_antidote_scheme\n"
        "build_antidote_scheme(6, 1, 3)\n"
        "print('icx.alignment' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(icx.model.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_antidote_scheme_circular_shift_invariance():
    K, U, D = 7, 1, 2
    inst = gen_neighboring_antidotes(K, U, D)
    scheme = build_antidote_scheme(K, U, D)
    shifted_inst = Instance(
        K,
        tuple(
            Destination(d.id, frozenset(m % K + 1 for m in d.wants), frozenset(m % K + 1 for m in d.has))
            for d in inst.destinations
        ),
        inst.family,
    )
    shifted_scheme = LinearScheme(
        scheme.field,
        scheme.n,
        {m % K + 1: v for m, v in scheme.V.items()},
        None,
    )
    v_only = LinearScheme(scheme.field, scheme.n, scheme.V)
    assert verify(shifted_inst, shifted_scheme).valid == verify(inst, v_only).valid


# ----------------------------------------------------------------------
# neighboring interference
# ----------------------------------------------------------------------


def test_interference_scheme_6_0_1():
    scheme = build_interference_scheme(6, 0, 1)
    assert scheme.n == 2
    rep = verify(gen_neighboring_interference(6, 0, 1), scheme)
    assert rep.valid and set(rep.rates.values()) == {Fraction(1, 2)}


def test_interference_scheme_9_1_2():
    scheme = build_interference_scheme(9, 1, 2)
    assert scheme.n == 3
    rep = verify(gen_neighboring_interference(9, 1, 2), scheme)
    assert rep.valid and set(rep.rates.values()) == {Fraction(1, 3)}


def test_interference_scheme_12_2_3_simulates():
    inst = gen_neighboring_interference(12, 2, 3)
    scheme = build_interference_scheme(12, 2, 3)
    rep = verify(inst, scheme)
    assert rep.valid and set(rep.rates.values()) == {Fraction(1, 4)}
    res = simulate_exhaustive(inst, scheme)
    assert res.ok and res.tuples_checked == 2**12


def test_interference_scheme_rejects_bad_divisibility():
    with pytest.raises(BadParams):
        build_interference_scheme(8, 0, 2)


# ----------------------------------------------------------------------
# X network
# ----------------------------------------------------------------------


def test_x_scheme_6_2():
    scheme = build_x_scheme(6, 2)
    assert scheme.n == 3
    rep = verify(gen_x_network(6, 2), scheme)
    assert rep.valid and set(rep.rates.values()) == {Fraction(1, 3)}


def test_x_scheme_8_3():
    scheme = build_x_scheme(8, 3)
    assert scheme.n == 6
    rep = verify(gen_x_network(8, 3), scheme)
    assert rep.valid and set(rep.rates.values()) == {Fraction(1, 6)}


def test_x_scheme_degenerate_unicast():
    scheme = build_x_scheme(4, 1)
    assert scheme.n == 1
    rep = verify(gen_x_network(4, 1), scheme)
    assert rep.valid and set(rep.rates.values()) == {Fraction(1)}


def test_x_pattern_shape():
    for L in (2, 3, 4, 5):
        pattern = x_precoder_pattern(L)
        n = L * (L + 1) // 2
        assert len(pattern) == L + 1 and all(len(row) == L for row in pattern)
        flat = [v for row in pattern for v in row]
        assert sorted(set(flat)) == list(range(1, n + 1))
        # every beam index appears exactly twice per period
        assert all(flat.count(v) == 2 for v in set(flat))
        # anti-diagonal of the top L rows carries the desired beams 1..L
        assert [pattern[t][L - 1 - t] for t in range(L)] == list(range(1, L + 1))


def test_x_scheme_simulates_small():
    inst = gen_x_network(6, 2)
    scheme = build_x_scheme(6, 2)
    res = simulate_exhaustive(inst, scheme)
    assert res.ok and res.tuples_checked == 2**12


# ----------------------------------------------------------------------
# built-in examples
# ----------------------------------------------------------------------


def test_example_claimed_rates():
    assert builtin_example(1).claimed_rate == Fraction(1, 2)
    assert builtin_example(2).claimed_rate == Fraction(2, 5)
    assert builtin_example(3).claimed_rate == Fraction(1, 6)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5), BinaryField(3)], ids=repr)
def test_example1_verifies_any_field(field):
    ex = builtin_example(1, field)
    rep = verify(ex.instance, ex.scheme)
    assert rep.valid
    assert set(rep.rates.values()) == {ex.claimed_rate}


@pytest.mark.parametrize("eid", [1, 2, 3])
@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=repr)
def test_examples_verify_and_rank_mode(eid, field):
    ex = builtin_example(eid, field)
    assert verify(ex.instance, ex.scheme, mode="decoder").valid
    assert verify(ex.instance, ex.scheme, mode="rank").valid
    assert set(ex.scheme.rates().values()) == {ex.claimed_rate}


def test_example2_instance_is_pentagon():
    ex = builtin_example(2)
    inst = ex.instance
    assert inst.num_messages == 5
    # antidotes sit at circular distance two; the unit-distance neighbors
    # are the interference (a five-cycle side-information graph either way)
    for d in inst.destinations:
        k = d.id
        assert d.has == frozenset({(k + 1) % 5 + 1, (k + 2) % 5 + 1})
        assert inst.interferers(d) == frozenset({k % 5 + 1, (k + 3) % 5 + 1})


def test_example3_span_constraints():
    """The five subspace-alignment memberships, plus the fixed assignments."""
    ex = builtin_example(3, PrimeField(5))
    f = ex.scheme.field
    V = ex.scheme.V

    def t(i):
        return Matrix.from_cols(f, [[1 if r == i - 1 else 0 for r in range(6)]])

    def spanned(target, *gens):
        gen = Matrix.hstack_all(f, list(gens))
        return gen.hstack(target).rank() == gen.rank()

    assert spanned(Matrix.hstack_all(f, [V[6], V[8], V[9]]), t(4), t(5), t(6))
    assert spanned(V[11], t(2), t(3), t(5))
    assert spanned(V[14], V[8], t(3), V[10])
    assert V[2].entries == t(4).entries and spanned(V[2], V[11], V[10], t(1))
    assert V[5].entries == t(2).entries and spanned(V[5], V[14], t(1), t(6))
    assert V[12].entries == t(3).entries
    assert V[15].entries == V[10].entries
    assert V[13].entries == t(1).entries


def test_example3_combination_identities():
    """The explicit coefficient solution behind the aligned beams."""
    for field in (PrimeField(2), PrimeField(3), PrimeField(7)):
        ex = builtin_example(3, field)
        f = field
        V = ex.scheme.V

        def t(i):
            return Matrix.from_cols(f, [[1 if r == i - 1 else 0 for r in range(6)]])

        add = lambda a, b: a.add(b)
        sub = lambda a, b: a.add(b.neg())
        assert V[8].entries == add(add(t(4), t(5)), t(6)).entries
        assert V[11].entries == sub(add(t(2), t(3)), t(5)).entries
        assert V[14].entries == add(add(t(1), t(2)), t(6)).entries
        assert V[10].entries == sub(add(V[14], t(3)), V[8]).entries
        assert V[10].entries == sub(add(V[11], t(1)), t(4)).entries


def test_example3_instance_sets():
    ex = builtin_example(3)
    inst = ex.instance
    assert inst.num_messages == 15 and inst.num_destinations == 5
    by_id = {d.id: d for d in inst.destinations}
    d1 = by_id[1]
    assert d1.wants == frozenset({3, 5, 7})
    assert d1.has == frozenset(range(10, 16))
    d4 = by_id[4]
    assert d4.wants == frozenset({12, 14, 1})
    assert d4.has == frozenset({4, 5, 6, 7, 8, 9})


def test_example2_simulates_both_fields():
    for p in (2, 3):
        ex = builtin_example(2, PrimeField(p))
        assert simulate_exhaustive(ex.instance, ex.scheme).ok


def test_example_invalid_id():
    with pytest.raises(BadParams):
        builtin_example(4)


# ----------------------------------------------------------------------
# scheme sizes, checked before anything is built
# ----------------------------------------------------------------------

BUILDS = {
    "antidotes": lambda: build_antidote_scheme(7, 1, 2),
    "antidotes-A=K-2": lambda: build_antidote_scheme(6, 1, 3),
    "antidotes-A=K-1": lambda: build_antidote_scheme(5, 2, 2),
    "interference": lambda: build_interference_scheme(6, 1, 2),
    "xnetwork": lambda: build_x_scheme(6, 2),
    "scalar": lambda: build_scalar_scheme(Instance(4, (
        Destination(1, {1, 2}, ()), Destination(2, {1, 3}, {4}), Destination(3, {2, 4}, {3})
    )), 2),
    # five messages, each destination holding the other four: five alignment subsets, n = 4
    "spread": lambda: build_rate_half_vector_scheme(
        Instance(5, tuple(Destination(k, {k}, set(range(1, 6)) - {k}) for k in range(1, 6)))
    ),
}


def matrix_entries(sch: LinearScheme) -> int:
    return sum(len(mat.entries) for part in (sch.V, sch.U or {}) for mat in part.values())


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
def test_builders_refuse_one_entry_past_the_cap(monkeypatch, build):
    """Each builder counts its scheme's entries: built at a limit of exactly
    that count, refused with BadParams one short of it."""
    sch = build()
    entries = matrix_entries(sch)
    monkeypatch.setattr("icx.scheme.MAX_MATRIX_ENTRIES", entries)
    assert build() == sch
    monkeypatch.setattr("icx.scheme.MAX_MATRIX_ENTRIES", entries - 1)
    with pytest.raises(BadParams, match=f"^the scheme would have {entries} matrix entries, more than the limit of {entries - 1}$"):
        build()


# (builder, its generator's name, good parameters, bad parameters each): each
# family builder checks its family's parameters and instance size as the
# generator does, with the same messages, and builds no instance.  The good
# antidotes parameters have U + D = K - 2, one interferer per destination.
FAMILY_CHECKS = [
    (build_antidote_scheme, "gen_neighboring_antidotes", (6, 1, 3), [(5, 2, 1), (3, 1, 2), (10001, 0, 0)]),
    (build_interference_scheme, "gen_neighboring_interference", (1200, 0, 2),
     [(8, 0, 2), (6, 2, 1), (3, 1, 2), (4001, 0, 0)]),
    (build_x_scheme, "gen_x_network", (600, 2), [(6, 0), (3, 2), (7, 2), (4000, 1)]),
]


@pytest.mark.parametrize(
    "build, generator, good, bads", FAMILY_CHECKS, ids=["antidotes", "interference", "xnetwork"]
)
def test_family_builders_validate_without_generating(monkeypatch, build, generator, good, bads):
    """Each family builder refuses exactly what its generator refuses, with
    the same message, past the instance caps included; with the generators
    replaced by ones that fail, it still builds, so it never generates the
    instance only to check its parameters."""
    real = getattr(icx.model, generator)
    expected = {}
    for bad in bads:
        with pytest.raises(BadParams) as refused:
            real(*bad)
        expected[bad] = str(refused.value)

    def fail(*args):
        raise AssertionError(f"{generator}{args} called")

    for module in (icx.model, icx.symmetric):
        monkeypatch.setattr(module, generator, fail, raising=False)
    assert isinstance(build(*good), LinearScheme)
    for bad in bads:
        with pytest.raises(BadParams) as refused:
            build(*bad)
        assert str(refused.value) == expected[bad]
