"""The simple bounds, chain-bound search and certificate arithmetic of bounds
against the naive reference.

``tests/reference_bounds.py`` holds the plain depth-first search, which
builds a certificate for every closing destination and deduplicates
afterwards, the simple bounds built the same way, and the Fraction-sum
evaluation.  The outputs must agree
exactly: every certificate's JSON, provenance included, in order; whether
the budget is exceeded; and the partial list attached when it is.
"""

import os
import pathlib
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import icx
import reference_bounds as ref
from icx.bounds import (
    DEFAULT_CHAIN_BUDGET,
    BoundCertificate,
    chain_bounds,
    simple_bounds,
    symmetric_capacity,
)
from icx.errors import BudgetExceeded
from icx.model import (
    Destination,
    Instance,
    gen_neighboring_antidotes,
    gen_neighboring_interference,
    gen_x_network,
)

from conftest import make_instance

BUDGETS = [1, 7, 50, 5000, DEFAULT_CHAIN_BUDGET]
FAMILIES = {
    "interference-K12-U2-D3": lambda: gen_neighboring_interference(12, 2, 3),
    "interference-K20-U3-D4": lambda: gen_neighboring_interference(20, 3, 4),
    "antidotes-K12-U0-D4": lambda: gen_neighboring_antidotes(12, 0, 4),
    "xnetwork-K8-L3": lambda: gen_x_network(8, 3),
}


def outcome(search, inst, L, maxN, budget):
    try:
        return "complete", [c.to_json() for c in search(inst, L, maxN=maxN, budget=budget)]
    except BudgetExceeded as exc:
        return "budget", [c.to_json() for c in exc.partial]


def assert_same_search(inst, L, maxN, budget):
    got = outcome(chain_bounds, inst, L, maxN, budget)
    assert got == outcome(ref.chain_bounds, inst, L, maxN, budget)
    return got


def random_groupcast(rnd):
    """M in 2..6, K in 1..6, demand size L or L+1 (split by normalization),
    destination ids shuffled."""
    while True:
        M = rnd.randrange(2, 7)
        K = rnd.randrange(1, 7)
        L = rnd.choice([1, 2])
        if M < L + 1:
            continue
        ids = rnd.sample(range(1, K + 1), K)
        dests = []
        for k in ids:
            wants = frozenset(rnd.sample(range(1, M + 1), L + (rnd.random() < 0.2)))
            has = frozenset(m for m in range(1, M + 1) if m not in wants and rnd.random() < 0.45)
            dests.append(Destination(k, wants, has))
        return Instance(M, tuple(dests)), L


RANDOM_CASES = [random_groupcast(random.Random(seed)) for seed in range(200)]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("maxN", [3, 4])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_chain_search_matches_reference(family, maxN, budget):
    inst = FAMILIES[family]()
    assert_same_search(inst, next(iter(inst.demand_sizes())), maxN, budget)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("N", [1, 2, 3])
def test_full_chain_search_matches_reference(N, budget):
    M = N + 2
    inst = make_instance(M, [({m}, set()) for m in range(1, M + 1)])
    assert_same_search(inst, 1, N, budget)


@pytest.mark.parametrize("budget", BUDGETS)
def test_random_groupcast_chain_search_matches_reference(budget):
    kinds = set()
    for inst, L in RANDOM_CASES:
        kind, certs = assert_same_search(inst, L, inst.num_messages, budget)
        kinds.add((kind, bool(certs)))
    if budget == DEFAULT_CHAIN_BUDGET:
        assert kinds == {("complete", True), ("complete", False)}
    elif budget > 1:
        assert ("budget", True) in kinds


def test_budget_exceeded_reports_progress():
    inst = gen_neighboring_antidotes(12, 0, 4)
    with pytest.raises(BudgetExceeded) as exc:
        chain_bounds(inst, 1, maxN=3)
    assert str(exc.value) == (
        f"chain enumeration exceeded {DEFAULT_CHAIN_BUDGET} states "
        f"({len(exc.value.partial)} certificates found, 4 of 12 start messages begun)"
    )


# case -> (its instance and L, maxN -> (the states of the full search, its certificates));
# random-129 has 6 messages, so at maxN 6 its chains stop at 5 links
DENSE_CASES = {
    "antidotes-K5-U0-D1": (lambda: (gen_neighboring_antidotes(5, 0, 1), 1), {1: (35, 10), 2: (165, 36), 3: (555, 81)}),
    "random-129": (lambda: RANDOM_CASES[129], {1: (30, 8), 2: (106, 27), 3: (248, 53), 6: (498, 92)}),
}


@pytest.mark.parametrize("case, maxN", [(case, maxN) for case in sorted(DENSE_CASES) for maxN in DENSE_CASES[case][1]])
def test_every_budget_cut_matches_reference(case, maxN):
    """A budget of 1 .. S+1, S the states of the full search, cuts it at
    every state once, inside a run of last links too."""
    build, sizes = DENSE_CASES[case]
    inst, L = build()
    budget, kind = 0, "budget"
    while kind == "budget":
        budget += 1
        try:
            kind, certs = "complete", chain_bounds(inst, L, maxN=maxN, budget=budget)
        except BudgetExceeded as exc:
            kind, certs = "budget", exc.partial
            assert f"({len(certs)} certificates found, " in str(exc)
        certs = [c.to_json() for c in certs]
        assert (kind, certs) == outcome(ref.chain_bounds, inst, L, maxN, budget)
    assert (budget, len(certs)) == sizes[maxN]
    assert assert_same_search(inst, L, maxN, budget + 1) == (kind, certs)


# maxN -> the states of the antidotes K=8 U=1 D=2 search, in which every message has 12 links
LEAF_RUN_STATES = {3: 8520, 4: 59272}


def reference_states(inst, L, maxN, monkeypatch):
    """The certificates the reference search keeps, in the order it first
    builds their terms and rhs, with the state each is built at, read off
    the reference's own count (a free variable of extend, the frame that
    calls emit): one full run stands for every cut of the search."""
    first = {}

    def record(*args):
        cert = BoundCertificate(*args)
        first.setdefault((cert.terms, cert.rhs), (sys._getframe(2).f_locals["visited"], cert))
        return cert

    with monkeypatch.context() as patch:
        patch.setattr(ref, "BoundCertificate", record)
        ref.chain_bounds(inst, L, maxN, DEFAULT_CHAIN_BUDGET)
    return list(first.values())


def reference_cut(first, S, budget):
    """The reference's outcome at budget, from its kept certificates and S, its states."""
    kept = [cert for state, cert in first if state <= budget]
    return "complete" if budget >= S else "budget", sorted(kept, key=ref._sort_key)


@pytest.mark.parametrize("maxN", sorted(LEAF_RUN_STATES))
def test_budget_cuts_inside_leaf_runs_match_reference(monkeypatch, maxN):
    """300 seeded budgets in 1 .. S+1 cut the search inside and between the
    runs of last links that it counts in one step.  The reference's outcome
    at each comes from one recorded run; at 5 of them the reference runs too."""
    inst, S = gen_neighboring_antidotes(8, 1, 2), LEAF_RUN_STATES[maxN]
    first = reference_states(inst, 1, maxN, monkeypatch)
    budgets = random.Random(maxN).choices(range(1, S + 2), k=300)
    for budget in budgets:
        assert search_result(inst, 1, maxN, budget) == reference_cut(first, S, budget)
    for budget in (S - 1, S, *budgets[:3]):
        kind, certs = reference_cut(first, S, budget)
        assert outcome(ref.chain_bounds, inst, 1, maxN, budget) == (kind, [c.to_json() for c in certs])


def multiplicity_instance():
    """Every destination desires message 1 and one other, so each realizer
    adds message 1 to the terms: a rhs-N certificate holds it N times.  The
    other wants repeat across destinations, so chains through the same
    messages can differ in their terms' multiplicities alone."""
    rnd = random.Random(4)
    M = 7
    dests = []
    for k in range(1, 11):
        other = rnd.randrange(2, M + 1)
        has = frozenset(m for m in range(2, M + 1) if m != other and rnd.random() < 0.3)
        dests.append(Destination(k, frozenset({1, other}), has))
    return Instance(M, tuple(dests))


@pytest.mark.parametrize("maxN", [3, 4])
def test_term_multiplicity_is_kept(maxN):
    inst = multiplicity_instance()
    kind, certs = assert_same_search(inst, 2, maxN, DEFAULT_CHAIN_BUDGET)
    assert kind == "complete"
    assert {cert["terms"].count(1) for cert in certs} == set(range(1, maxN + 1))
    # certificates of one rhs and one set of terms, apart in multiplicity only
    by_support = {}
    for cert in certs:
        by_support.setdefault((cert["rhs"], frozenset(cert["terms"])), []).append(cert["terms"])
    assert sum(len(terms) - 1 for terms in by_support.values()) > 10


def run_fresh(script):
    """stdout of script run in a fresh interpreter that imports this icx.

    A tracemalloc reading in the test process depends on test order: tuples
    that earlier tests freed sit on the interpreter's free lists and are
    reused untraced."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(icx.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_chain_search_memory_does_not_grow_with_message_ids():
    """2,000 messages, 100 destinations, each wanting one message and holding
    all but 12 others: a term key must not take space for every message id.
    The search peaks at about 2.6 MB, certificates' JSON included, in a fresh
    interpreter."""
    script = (
        "import random, tracemalloc\n"
        "from icx.bounds import chain_bounds\n"
        "from icx.errors import BudgetExceeded\n"
        "from icx.model import Destination, Instance\n"
        "rnd = random.Random(2000)\n"
        "M = 2000\n"
        "dests = []\n"
        "for k in range(1, 101):\n"
        "    want = rnd.randrange(1, M + 1)\n"
        "    missing = set(rnd.sample([m for m in range(1, M + 1) if m != want], 12))\n"
        "    dests.append(Destination(k, frozenset({want}), frozenset(range(1, M + 1)) - missing - {want}))\n"
        "inst = Instance(M, tuple(dests))\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    certs = chain_bounds(inst, 1, maxN=4, budget=20_000)\n"
        "except BudgetExceeded as exc:\n"
        "    certs = exc.partial\n"
        "out = [c.to_json() for c in certs]\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    assert int(run_fresh(script)) < 4_000_000


def chain_results():
    """Every certificate list chain_bounds returns on the random cases and
    three family instances, and the partial lists of budget cuts."""
    for inst, L in RANDOM_CASES:
        yield search_result(inst, L, inst.num_messages, DEFAULT_CHAIN_BUDGET)
    for inst in (gen_neighboring_antidotes(8, 1, 2), gen_neighboring_interference(9, 1, 2), gen_x_network(6, 2)):
        yield search_result(inst, next(iter(inst.demand_sizes())), 3, DEFAULT_CHAIN_BUDGET)
    for family, budget in (("antidotes-K12-U0-D4", 5000), ("interference-K20-U3-D4", 50_000), ("xnetwork-K8-L3", 7)):
        inst = FAMILIES[family]()
        yield search_result(inst, next(iter(inst.demand_sizes())), 3, budget)


def search_result(inst, L, maxN, budget):
    try:
        return "complete", chain_bounds(inst, L, maxN=maxN, budget=budget)
    except BudgetExceeded as exc:
        return "budget", exc.partial


def test_chain_certificates_equal_their_public_construction():
    """chain_bounds builds its certificates without re-normalizing them;
    each equals, hashes, prints and serializes as the public constructor's."""
    kinds = set()
    for kind, certs in chain_results():
        kinds.add(kind)
        for cert in certs:
            public = BoundCertificate(cert.kind, cert.terms, cert.rhs, cert.provenance)
            assert cert == public and hash(cert) == hash(public)
            assert repr(cert) == repr(public) and cert.to_json() == public.to_json()
            assert type(cert.rhs) is Fraction
            assert type(cert.terms) is tuple and list(cert.terms) == sorted(cert.terms)
    assert kinds == {"complete", "budget"}


def test_chain_certificates_stay_small():
    """The 4,887 certificates of the antidotes K=12 U=0 D=4 search at maxN 3
    cut after 40,000 states retain 1.40 MB with their fields in slots, and
    1.57 MB with them inline in a __dict__; a Fraction per certificate took
    them to 1.90 MB and an instance dict each to 2.32 MB.  (The default
    budget's 13,918 retained 4.51 MB against 5.18 MB before slots, but take
    2.5 s under tracemalloc.)  Run in a fresh interpreter (``run_fresh``)."""
    script = (
        "import tracemalloc\n"
        "from icx.bounds import chain_bounds\n"
        "from icx.errors import BudgetExceeded\n"
        "from icx.model import gen_neighboring_antidotes\n"
        "inst = gen_neighboring_antidotes(12, 0, 4)\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    chain_bounds(inst, 1, maxN=3, budget=40_000)\n"
        "except BudgetExceeded as exc:\n"
        "    partial = exc.partial\n"
        "print(len(partial), tracemalloc.get_traced_memory()[0])\n"
    )
    count, retained = map(int, run_fresh(script).split())
    assert count == 4887
    assert retained < 1_500_000


# ----------------------------------------------------------------------
# simple bounds
# ----------------------------------------------------------------------


def simple_cases():
    for inst, _ in RANDOM_CASES:
        yield inst
    yield multiplicity_instance()
    for family in sorted(FAMILIES):
        yield FAMILIES[family]()
    yield gen_neighboring_antidotes(60, 0, 1)


def test_simple_bounds_match_reference():
    """simple_bounds keys the terms before it builds a certificate; the
    reference builds one for every pair and keeps the first per terms, so
    both must give the same certificates, provenance included, in order."""
    pairs = 0
    for inst in simple_cases():
        got = simple_bounds(inst)
        assert got == ref.simple_bounds(inst)
        assert [c.to_json() for c in got] == [c.to_json() for c in ref.simple_bounds(inst)]
        pairs += sum(len(c.provenance) == 2 for c in got)
    # antidotes K=60 U=0 D=1 alone keeps 1,770 of its 3,540 ordered pairs: (k, j) and (j, k) give one multiset
    assert pairs > 1770


# ----------------------------------------------------------------------
# certificate arithmetic
# ----------------------------------------------------------------------

POOL = [Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1)]


@pytest.fixture(scope="module")
def certificates():
    certs = []
    for inst, L in RANDOM_CASES[:40]:
        certs += simple_bounds(inst) + chain_bounds(inst, L, maxN=inst.num_messages)
    for inst in (gen_neighboring_antidotes(8, 1, 2), gen_neighboring_interference(9, 1, 2), gen_x_network(6, 2)):
        certs += simple_bounds(inst) + chain_bounds(inst, next(iter(inst.demand_sizes())), maxN=3)
        certs.append(symmetric_capacity(inst)[1])
    certs.append(BoundCertificate("chain", (), 1, ()))  # evaluates to 0
    return certs


def random_rates(rnd, M, values):
    return {m: rnd.choice(values) for m in range(1, M + 1)}


class Rate(Fraction):
    """A Fraction subclass."""


class Reciprocal(Fraction):
    """A Fraction subclass whose public numerator and denominator are its
    slots swapped: Reciprocal(3) stands for 1/3, as Fraction() reads it."""

    numerator = property(lambda self: self._denominator)
    denominator = property(lambda self: self._numerator)


BIG = 10**30
# rates other than Fractions, ints, subclasses and bool included, are read
# through Fraction(): a subclass's public numerator and denominator count,
# not its slots
EDGE_RATES = {
    "decimals": [Decimal("0"), Decimal("0.25"), Decimal("1"), Decimal("0.3333")],
    "bools": [False, True],
    "subclasses": [Rate(0), Rate(1, 3), Rate(2, 7), Reciprocal(3), Reciprocal(7, 2)],
    "strings": ["0", "1/3", "2/7", "0.25", "1"],
    "large-denominators": [Fraction(1, BIG), Fraction(BIG - 1, BIG), Fraction(1, BIG + 1), Fraction(1, 3)],
    "mixed-types": [0, 1, Fraction(1, 3), Fraction(2, 7), 0.25, 1 / 3, Fraction(1, BIG)],
}


@pytest.mark.parametrize("kind", ["mixed-denominators", "rate-vector", "ints", "floats", *sorted(EDGE_RATES)])
def test_evaluate_matches_reference(certificates, kind):
    rnd = random.Random(kind)
    seen = set()
    for cert in certificates:
        M = max(cert.terms, default=1)
        if kind == "mixed-denominators":
            rates = random_rates(rnd, M, POOL + [0, 1])
        elif kind == "rate-vector":
            rates = {m: Fraction(r) for m, r in random_rates(rnd, M, POOL).items()}
        elif kind == "ints":
            rates = random_rates(rnd, M, [0, 1, 2])
        elif kind == "floats":
            rates = random_rates(rnd, M, [0.0, 0.25, 1 / 3, 1.0])
        else:
            rates = random_rates(rnd, M, EDGE_RATES[kind])
        value = cert.evaluate(rates)
        assert type(value) is Fraction
        assert value == ref.evaluate(cert, rates)
        assert cert.violated_by(rates) == ref.violated_by(cert, rates)
        seen.add(cert.violated_by(rates))
    assert seen == {True, False}


def test_evaluate_needs_every_term_rate():
    cert = BoundCertificate("chain", (1, 2, 2, 3), 2, (1, 1, 2, 3))
    for rates in ({1: 1, 2: Fraction(1, 3)}, {1: 0.5, 2: 1, 4: 1}, {}):
        with pytest.raises(KeyError):
            cert.evaluate(rates)
        with pytest.raises(KeyError):
            cert.violated_by(rates)


def test_certificate_at_equality_is_not_violated():
    cert = BoundCertificate("chain", (1, 2, 2, 3), Fraction(4, 3), (1, 1, 2, 3))
    for rates in (
        {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)},
        {1: Fraction(2, 3), 2: Fraction(1, 6), 3: Fraction(1, 3)},
        {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(1, 3)},
    ):
        assert cert.evaluate(rates) == cert.rhs == ref.evaluate(cert, rates)
        assert not cert.violated_by(rates)
        assert not ref.violated_by(cert, rates)
    assert BoundCertificate("simple", (1, 2), 2, ()).evaluate({1: 1, 2: 1}) == 2
    assert not BoundCertificate("simple", (1, 2), 2, ()).violated_by({1: 1, 2: 1})
    assert BoundCertificate("simple", (1, 2), 2, ()).violated_by({1: 1, 2: Fraction(1, 10**30) + 1})
