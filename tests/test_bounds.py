"""Outer-bound certificates: simple, chain, and family formulas."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from icx.alignment import build_scalar_scheme, check_feasibility
from icx.bounds import (
    chain_bounds,
    simple_bounds,
    symmetric_capacity,
    x_outer_bound_messages,
)
from icx import model
from icx.errors import BadParams, BudgetExceeded, UnsupportedFamily
from icx.galois import Matrix, PrimeField
from icx.model import (
    Destination,
    FamilyTag,
    Instance,
    gen_neighboring_antidotes,
    gen_neighboring_interference,
    gen_x_network,
)
from icx.scheme import LinearScheme, verify
from icx.symmetric import (
    build_antidote_scheme,
    build_interference_scheme,
    build_x_scheme,
    builtin_example,
)

from conftest import make_instance, x_network_windows


def uniform(M, value):
    return {m: Fraction(value) for m in range(1, M + 1)}


# ----------------------------------------------------------------------
# simple bounds
# ----------------------------------------------------------------------


def test_simple_bound_all_four_messages(two_dest_m4):
    certs = simple_bounds(two_dest_m4)
    assert any(c.terms == (1, 2, 3, 4) and c.rhs == 1 for c in certs)


def test_simple_bounds_complete_side_information():
    inst = make_instance(3, [({k}, {1, 2, 3} - {k}) for k in (1, 2, 3)])
    certs = simple_bounds(inst)
    assert [c.terms for c in certs] == [(1,), (2,), (3,)]


def test_simple_bounds_pentagon_consistent_with_two_fifths(pentagon_notation):
    certs = simple_bounds(pentagon_notation)
    rates = uniform(5, Fraction(2, 5))
    assert certs
    for c in certs:
        assert not c.violated_by(rates)


def test_simple_bounds_sound_on_example_schemes():
    for eid in (1, 2, 3):
        ex = builtin_example(eid)
        rates = ex.scheme.rates()
        for c in simple_bounds(ex.instance):
            assert not c.violated_by(rates), (eid, c)


# ----------------------------------------------------------------------
# chain bounds
# ----------------------------------------------------------------------


def test_chain_bound_one_hop(infeasible_m4k3):
    certs = chain_bounds(infeasible_m4k3, 2)
    assert any(c.terms == (1, 2, 3, 4) and c.rhs == 1 for c in certs)


def test_chain_bound_two_hop_multiplicity(chain_m5k5):
    certs = chain_bounds(chain_m5k5, 2)
    # the two-hop chain counts messages 1 and 5 twice
    assert any(c.terms == (1, 1, 2, 3, 4, 5, 5) and c.rhs == 2 for c in certs)


def test_chain_bounds_empty_on_feasible_fig(feasible_m4k3):
    certs = chain_bounds(feasible_m4k3, 2)
    rates = uniform(4, Fraction(1, 3))
    for c in certs:
        assert not c.violated_by(rates)


def test_infeasible_implies_violated_certificate():
    import random

    rnd = random.Random(23)
    found_infeasible = 0
    for _ in range(300):
        M = rnd.randrange(2, 7)
        K = rnd.randrange(1, 6)
        L = rnd.choice([1, 2])
        if M < L:
            continue
        dests = []
        for k in range(1, K + 1):
            wants = set(rnd.sample(range(1, M + 1), L))
            rest = [m for m in range(1, M + 1) if m not in wants]
            has = {m for m in rest if rnd.random() < 0.4}
            dests.append((wants, has))
        if not dests:
            continue
        inst = make_instance(M, dests)
        verdict = check_feasibility(inst, L)
        rates = uniform(M, Fraction(1, L + 1))
        certs = chain_bounds(inst, L, maxN=M)
        if verdict.feasible:
            # arithmetic identity: (N+1+NL)/(L+1) = N + 1/(L+1) > N, so any
            # violated chain certificate would contradict feasibility
            for c in certs:
                assert not c.violated_by(rates)
        else:
            found_infeasible += 1
            assert any(c.violated_by(rates) for c in certs), inst
    assert found_infeasible > 30


def test_chain_budget_exceeded():
    inst = make_instance(6, [({m}, set()) for m in range(1, 7)])
    with pytest.raises(BudgetExceeded) as exc:
        chain_bounds(inst, 1, maxN=5, budget=10)
    assert exc.value.partial is not None


@pytest.mark.parametrize("maxN, budget", [(0, 10), (-1, 10), (2, 0), (2, -5)])
def test_chain_search_must_not_be_empty(infeasible_m4k3, maxN, budget):
    with pytest.raises(BadParams):
        chain_bounds(infeasible_m4k3, 2, maxN=maxN, budget=budget)


def test_chain_search_deeper_than_recursion_limit():
    # messages k+1 and k+2 align at destination k, so the chains from
    # message 1 run once round the circle of 1200 messages
    inst = gen_neighboring_interference(1200, 0, 2)
    with pytest.raises(BudgetExceeded) as exc:
        chain_bounds(inst, 1, maxN=1200, budget=3000)
    longest = exc.value.partial[-1]
    assert longest.rhs == 1199 > sys.getrecursionlimit()
    assert longest.provenance[:5] == (1, 1200, 2, 1, 3)


def test_chain_provenance_records_path(infeasible_m4k3):
    certs = chain_bounds(infeasible_m4k3, 2)
    cert = next(c for c in certs if c.terms == (1, 2, 3, 4))
    # head, realizing destination, tail, terminal destination
    assert cert.provenance == (1, 2, 4, 3)


def test_certificates_closed_under_relabeling(chain_m5k5):
    inst = chain_m5k5
    relabel = {1: 3, 2: 4, 3: 5, 4: 1, 5: 2}
    inst2 = Instance(
        5,
        tuple(
            Destination(d.id, frozenset(relabel[m] for m in d.wants), frozenset(relabel[m] for m in d.has))
            for d in inst.destinations
        ),
    )
    before = {tuple(sorted(relabel[m] for m in c.terms)) for c in chain_bounds(inst, 2)}
    after = {c.terms for c in chain_bounds(inst2, 2)}
    assert before == after


# ----------------------------------------------------------------------
# family capacities
# ----------------------------------------------------------------------


def test_capacity_antidotes():
    inst = gen_neighboring_antidotes(8, 1, 2)
    value, cert = symmetric_capacity(inst)
    assert value == Fraction(2, 7)
    assert cert.kind == "family-formula"
    assert not cert.violated_by(uniform(8, value))
    # saturated exactly by the capacity-achieving scheme
    assert cert.evaluate(uniform(8, value)) == cert.rhs


def test_capacity_antidotes_boundaries():
    assert symmetric_capacity(gen_neighboring_antidotes(4, 0, 3))[0] == 1
    assert symmetric_capacity(gen_neighboring_antidotes(4, 0, 2))[0] == Fraction(1, 2)


def test_capacity_interference():
    inst = gen_neighboring_interference(9, 1, 2)
    value, cert = symmetric_capacity(inst)
    assert value == Fraction(1, 3)
    assert cert.kind == "genie-chain"
    assert cert.terms == (1, 2, 3)
    assert cert.evaluate(uniform(9, value)) == cert.rhs  # saturated with equality


def test_capacity_x_network():
    inst = gen_x_network(8, 3)
    value, cert = symmetric_capacity(inst)
    assert value == Fraction(1, 6)
    assert len(cert.terms) == 6
    assert cert.evaluate(uniform(24, value)) == 1


def test_x_outer_bound_messages_match_window():
    # the genie set contains exactly L-i demands of destination 1+i
    K, L = 8, 3
    inst = gen_x_network(K, L)
    wo = set(x_outer_bound_messages(K, L))
    by_id = {d.id: d for d in inst.destinations}
    for i in range(L):
        dest = by_id[1 + i]
        assert len(dest.wants & wo) == L - i


def test_capacity_requires_tag():
    with pytest.raises(UnsupportedFamily):
        symmetric_capacity(builtin_example(1).instance)


def test_capacity_rejects_tampered_tag(tampered_antidotes):
    inst = tampered_antidotes
    field = PrimeField(2)
    one = {m: Matrix.from_rows(field, [[1]]) for m in range(1, 6)}
    rate_one = LinearScheme(field, 1, one)
    assert verify(inst, rate_one).valid
    with pytest.raises(UnsupportedFamily, match="not the neighboring-antidotes family K=5 U=1 D=1"):
        symmetric_capacity(inst)


# (K, L) with K <= L: each L*L window covers all K*L messages, and the genie
# set repeats some (K=2 L=4 claimed 1/10 with [2,3,4,4,5,6,7,7,8,8] <= 1)
X_NETWORK_WINDOW_COVERS_ALL = [(1, 2), (2, 2), (2, 4), (3, 3), (3, 4), (4, 4)]


def test_capacity_checks_tag_against_destinations():
    # ids and destination order are ignored
    inst = gen_neighboring_antidotes(7, 1, 2)
    dests = tuple(Destination(10 - d.id, d.wants, d.has) for d in reversed(inst.destinations))
    assert symmetric_capacity(Instance(7, dests, inst.family))[0] == Fraction(1, 3)
    tag = FamilyTag.make("neighboring-interference", K=10, U=1, D=2)  # 3 does not divide 10
    window = [({k}, set(range(1, 11)) - {(k + off - 1) % 10 + 1 for off in (-1, 0, 1, 2)}) for k in range(1, 11)]
    copies = tuple(Destination(k, dests[0].wants, dests[0].has) for k in range(1, 8))  # one destination, ids 1..7
    cases = [
        Instance(7, dests[1:], inst.family),  # one destination fewer
        Instance(7, copies, inst.family),  # right size, wrong multiset
        Instance(7, dests, FamilyTag.make("neighboring-antidotes", K=10**9, U=1, D=2)),
        make_instance(10, window, tag),
        *(x_network_windows(K, L) for K, L in X_NETWORK_WINDOW_COVERS_ALL),
    ]
    for case in cases:
        with pytest.raises(UnsupportedFamily):
            symmetric_capacity(case)


def test_uncoded_scheme_never_violates_an_x_network_certificate():
    """Every x-network tag that symmetric_capacity accepts for K <= 8, L <= 4
    has a certificate that the verified uncoded scheme (one identity column
    of GF(2)^(K*L) per message, rate 1/(K*L)) satisfies."""
    gf2, accepted = PrimeField(2), []
    for K in range(1, 9):
        for L in range(1, 5):
            inst = x_network_windows(K, L)
            try:
                _, cert = symmetric_capacity(inst)
            except UnsupportedFamily:
                continue
            accepted.append((K, L))
            eye = Matrix.identity(gf2, K * L)
            report = verify(inst, LinearScheme(gf2, K * L, {m: eye.take_cols([m - 1]) for m in range(1, K * L + 1)}))
            assert report.valid and not cert.violated_by(report.rates), (K, L)
    assert (5, 3) in accepted and (2, 1) in accepted and not set(accepted) & set(X_NETWORK_WINDOW_COVERS_ALL)


def peels(inst, messages):
    """Whether messages are an acyclic set of inst: they peel away when one
    that some destination wants while it holds none of those left is
    removed, again and again.  Such a set S bounds every code's rates by
    sum over S of R_m <= 1: a destination given every message outside S
    decodes the first one peeled, and then, holding it, can act as the
    destination that let the next one go (the MAIS bound of Bar-Yossef et
    al., FOCS 2006, whose argument holds for groupcast)."""
    left = set(messages)
    while left:
        m = next((m for m in left if any(m in d.wants and not d.has & left for d in inst.destinations)), None)
        if m is None:
            return False
        left.remove(m)
    return True


def test_interference_and_x_network_certificates_are_acyclic_sets():
    """The genie-chain certificate ``symmetric_capacity`` gives an
    interference or x-network instance is sound on the instance itself, not
    only by the paper's theorem: its terms are distinct, its rhs is 1 and
    they are an acyclic set of the instance (``peels``).  Checked on every
    accepted interference tag with K <= 20 (149 tags) and every accepted
    x-network tag with K <= 20 and L <= 6 (99 tags, the 15 with L < K < 2L
    among them, which ``gen_x_network`` refuses), each built through
    ``model._family_instance``.  The check itself is no formality: in
    example 1 messages 2 and 3 are each held where the other is wanted, so
    no set holding both peels, while message 1 with either one does."""
    tags = [("neighboring-interference", K, {"K": K, "U": U, "D": D})
            for K in range(1, 21) for D in range(K) for U in range(D + 1)]
    tags += [("x-network", K * L, {"K": K, "L": L}) for K in range(1, 21) for L in range(1, 7)]
    accepted = Counter()
    for kind, M, params in tags:
        try:
            inst = model._family_instance(kind, M, **params)
        except BadParams:
            continue
        _, cert = symmetric_capacity(inst)
        assert cert.rhs == 1 and len(set(cert.terms)) == len(cert.terms), params
        assert peels(inst, cert.terms), params
        narrow = kind == "x-network" and params["K"] < 2 * params["L"]
        accepted[kind, narrow] += 1
    assert accepted == {("neighboring-interference", False): 149, ("x-network", False): 84, ("x-network", True): 15}
    cycle = builtin_example(1).instance
    assert not peels(cycle, {1, 2, 3}) and not peels(cycle, {2, 3}) and peels(cycle, {1, 2}) and peels(cycle, {1, 3})


def test_antidotes_capacity_is_at_most_one_over_the_mais():
    """The antidotes ``family-formula`` value never exceeds 1/MAIS, the
    symmetric rate the largest acyclic set allows (``peels``), found here
    by brute force.  Acyclic sets are closed under subsets, as a subset
    peels in the order its superset does, so the MAIS is the size below
    the first at which no subset peels.  Checked on every accepted
    antidotes tag with K <= 10 (125 tags, K = 1 included).  The two agree
    on 102 of them; on the rest the formula is the tighter bound, resting
    on the paper's theorem (K=8 U=2 D=2: 3/8 against 1/MAIS = 1/2)."""
    tags = [(K, U, D) for K in range(1, 11) for D in range(K) for U in range(D + 1)]
    accepted = Counter()
    for K, U, D in tags:
        try:
            inst = gen_neighboring_antidotes(K, U, D)
        except BadParams:
            continue
        value, _ = symmetric_capacity(inst)
        size = 1
        while size < K and any(peels(inst, s) for s in combinations(range(1, K + 1), size + 1)):
            size += 1
        assert value <= Fraction(1, size), (K, U, D)
        accepted[value == Fraction(1, size)] += 1
        if (K, U, D) == (8, 2, 2):
            assert (value, size) == (Fraction(3, 8), 2)
    assert accepted == {True: 102, False: 23}


def test_capacity_example3_tagged_value():
    ex = builtin_example(3)
    value, cert = symmetric_capacity(ex.instance)
    assert value == ex.claimed_rate == Fraction(1, 6)
    assert cert.terms == (3, 5, 6, 7, 8, 9)
    assert not cert.violated_by(ex.scheme.rates())


def test_family_certificates_not_violated_by_their_schemes():
    cases = [
        (gen_neighboring_antidotes(7, 1, 2), build_antidote_scheme(7, 1, 2)),
        (gen_neighboring_interference(8, 1, 1), build_interference_scheme(8, 1, 1)),
        (gen_x_network(6, 2), build_x_scheme(6, 2)),
    ]
    for inst, scheme in cases:
        assert verify(inst, scheme).valid
        value, cert = symmetric_capacity(inst)
        rates = scheme.rates()
        assert set(rates.values()) == {value}
        assert not cert.violated_by(rates)
        for c in simple_bounds(inst):
            assert not c.violated_by(rates)


def test_scalar_scheme_rate_never_violates_chain_bounds(feasible_m4k3):
    scheme = build_scalar_scheme(feasible_m4k3, 2)
    rates = scheme.rates()
    for c in chain_bounds(feasible_m4k3, 2) + simple_bounds(feasible_m4k3):
        assert not c.violated_by(rates)


def test_certificate_evaluates_rate_vectors(two_dest_m4):
    cert = next(c for c in simple_bounds(two_dest_m4) if c.terms == (1, 2, 3, 4))
    rv = dict.fromkeys(range(1, 5), Fraction(1, 4))
    assert cert.evaluate(rv) == 1
    assert not cert.violated_by(rv)
    assert cert.violated_by(dict.fromkeys(range(1, 5), Fraction(1, 3)))


def test_certificate_json_shape(two_dest_m4):
    cert = simple_bounds(two_dest_m4)[0]
    obj = cert.to_json()
    assert set(obj) == {"kind", "terms", "rhs", "provenance"}
    assert obj["rhs"] == "1/1"


@pytest.mark.parametrize("N", [1, 2, 3])
def test_full_chain_caps_symmetric_rate(N):
    """M = N+2 single demands with no side information: a length-N chain
    (every link realized at a destination outside it) yields a certificate
    with 2N+1 terms and rhs N, capping the symmetric rate at N/(2N+1) < 1/2.
    Consistently, rate half is infeasible on these instances."""
    M = N + 2
    inst = make_instance(M, [({m}, set()) for m in range(1, M + 1)])
    certs = chain_bounds(inst, 1, maxN=N)
    full = [c for c in certs if c.rhs == N and len(c.terms) == 2 * N + 1]
    assert full
    assert min(Fraction(c.rhs, len(c.terms)) for c in full) == Fraction(N, 2 * N + 1)
    assert Fraction(N, 2 * N + 1) < Fraction(1, 2)
    assert not check_feasibility(inst, 1).feasible
