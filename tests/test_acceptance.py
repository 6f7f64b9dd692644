"""Acceptance suite: the nine exit criteria, one test each.

Each test prints one `ACCEPTANCE n: ...` line (run pytest with -s to see
them); every tolerance is exact rational equality unless a runtime cap is
stated.  Randomized sweeps use fixed seeds.
"""

import itertools
import random
import time
from fractions import Fraction

from icx.alignment import (
    build_rate_half_vector_scheme,
    build_scalar_scheme,
    check_feasibility,
)
from icx.bounds import chain_bounds, simple_bounds, symmetric_capacity
from icx.errors import Infeasible
from icx.galois import PrimeField, smallest_prime_at_least, spread_family
from icx.model import (
    Destination,
    Instance,
    gen_neighboring_antidotes,
    gen_neighboring_interference,
    gen_x_network,
    normalize,
)
from icx.oracle import minrank_gf2
from icx.scheme import dimension_audit, simulate_exhaustive, verify
from icx.symmetric import (
    build_antidote_scheme,
    build_interference_scheme,
    build_x_scheme,
    builtin_example,
)
from icx.unicast import (
    groupcast_rank_chain,
    scheme_to_groupcast,
    scheme_to_unicast,
    to_unicast,
)

from conftest import is_multiple_unicast, make_instance


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ----------------------------------------------------------------------


def test_criterion_1_builtin_examples():
    """Examples 1-3 verify in both modes and survive exhaustive simulation
    over GF(2) and GF(3) at rates exactly 1/2, 2/5, 1/6, within 5 s."""
    t0 = time.time()
    expected = {1: Fraction(1, 2), 2: Fraction(2, 5), 3: Fraction(1, 6)}
    ok = True
    for eid in (1, 2, 3):
        for p in (2, 3):
            ex = builtin_example(eid, PrimeField(p))
            ok &= verify(ex.instance, ex.scheme, mode="decoder").valid
            ok &= verify(ex.instance, ex.scheme, mode="rank").valid
            ok &= set(ex.scheme.rates().values()) == {expected[eid]}
            ok &= ex.claimed_rate == expected[eid]
            ok &= simulate_exhaustive(ex.instance, ex.scheme).ok
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    report(1, ok, f"examples 1-3 verified+simulated over GF(2),GF(3) in {elapsed:.2f}s")


def test_criterion_2_antidote_sweep():
    """All (K,U,D), K <= 12, 0 <= U <= D, U+D <= K-3: exact rate
    (U+1)/(K-A+2U), scheme verifies, window-dimension inequality holds;
    under 60 s."""
    t0 = time.time()
    count = 0
    ok = True
    for K in range(3, 13):
        for U in range(0, K):
            for D in range(U, K):
                A = U + D
                if A > K - 3:
                    continue
                inst = gen_neighboring_antidotes(K, U, D)
                scheme = build_antidote_scheme(K, U, D)
                rep = verify(inst, scheme)
                ok &= rep.valid
                ok &= set(rep.rates.values()) == {Fraction(U + 1, K - A + 2 * U)}
                audit = dimension_audit(inst, scheme)
                jmax = K - A - 1
                bound = Fraction(jmax + U, U + 1) * audit.alpha[0]
                ok &= Fraction(audit.alpha[jmax - 1]) >= bound
                ok &= audit.holds
                count += 1
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(2, ok, f"{count} (K,U,D) cases verified with audit in {elapsed:.2f}s")


def test_criterion_3_interference_sweep():
    """All (K,U,D) with (D+1)|K, K <= 24, U <= D <= 4: GF(2) scheme at
    1/(D+1); genie window certificate saturated with equality."""
    count = 0
    ok = True
    for K in range(2, 25):
        for D in range(0, 5):
            if K % (D + 1) != 0:
                continue
            for U in range(0, D + 1):
                if K < U + D + 1:
                    continue
                inst = gen_neighboring_interference(K, U, D)
                scheme = build_interference_scheme(K, U, D)
                rep = verify(inst, scheme)
                rate = Fraction(1, D + 1)
                ok &= rep.valid and set(rep.rates.values()) == {rate}
                value, cert = symmetric_capacity(inst)
                ok &= value == rate
                ok &= cert.kind == "genie-chain" and len(cert.terms) == D + 1
                uniform = {m: rate for m in range(1, K + 1)}
                ok &= cert.evaluate(uniform) == cert.rhs  # saturated exactly
                count += 1
    report(3, ok, f"{count} (K,U,D) interference cases at capacity with saturated genie window")


def test_criterion_4_x_sweep():
    """All (K,L) with (L+1)|K, K <= 20, L <= 4: scheme at 2/(L(L+1)),
    matching the family formula."""
    count = 0
    ok = True
    for K in range(2, 21):
        for L in range(1, 5):
            if K % (L + 1) != 0 or K < 2 * L:
                continue
            inst = gen_x_network(K, L)
            scheme = build_x_scheme(K, L)
            rep = verify(inst, scheme)
            rate = Fraction(2, L * (L + 1))
            ok &= rep.valid and set(rep.rates.values()) == {rate}
            ok &= symmetric_capacity(inst)[0] == rate
            count += 1
    report(4, ok, f"{count} (K,L) X cases at capacity 2/(L(L+1))")


def _random_uniform_instance(rnd, M, K, L):
    dests = []
    for k in range(1, K + 1):
        wants = set(rnd.sample(range(1, M + 1), L))
        rest = [m for m in range(1, M + 1) if m not in wants]
        has = {m for m in rest if rnd.random() < 0.45}
        dests.append(Destination(k, frozenset(wants), frozenset(has)))
    return Instance(M, tuple(dests))


def test_criterion_5_feasibility_agreement(feasible_m4k3, infeasible_m4k3):
    """Feasibility decision, construction, and chain certificates agree on
    the two worked instances and on 200+ random instances, zero disagreements."""
    ok = True
    # worked feasible instance: rate 1/3 scheme passes exhaustive simulation
    verdict = check_feasibility(feasible_m4k3, 2)
    ok &= verdict.feasible
    scheme = build_scalar_scheme(feasible_m4k3, 2)
    ok &= set(scheme.rates().values()) == {Fraction(1, 3)}
    ok &= simulate_exhaustive(feasible_m4k3, scheme).ok
    # worked infeasible instance: witness (1,4,3) and a violated certificate
    verdict = check_feasibility(infeasible_m4k3, 2)
    ok &= not verdict.feasible and verdict.witness == (1, 4, 3)
    third = {m: Fraction(1, 3) for m in range(1, 5)}
    ok &= any(c.violated_by(third) for c in chain_bounds(infeasible_m4k3, 2))

    rnd = random.Random(20240)
    tested = feasible_count = infeasible_count = 0
    disagreements = 0
    while tested < 220:
        M = rnd.randrange(2, 7)
        K = rnd.randrange(1, 7)
        L = rnd.choice([1, 2])
        if M < L:
            continue
        inst = _random_uniform_instance(rnd, M, K, L)
        tested += 1
        verdict = check_feasibility(inst, L)
        uniform = {m: Fraction(1, L + 1) for m in range(1, M + 1)}
        if verdict.feasible:
            feasible_count += 1
            try:
                scheme = build_scalar_scheme(inst, L)
            except Infeasible:
                disagreements += 1
                continue
            if not verify(normalize(inst, L), scheme).valid:
                disagreements += 1
        else:
            infeasible_count += 1
            certs = chain_bounds(inst, L, maxN=M)
            if not any(c.violated_by(uniform) for c in certs):
                disagreements += 1
    ok &= disagreements == 0 and tested >= 200 and feasible_count > 0 and infeasible_count > 0
    report(
        5,
        ok,
        f"{tested} random instances ({feasible_count} feasible, {infeasible_count} infeasible), "
        f"{disagreements} disagreements",
    )


def test_criterion_6_rate_half_both_modes():
    """On feasible single-demand instances with M <= 8 (deterministic random
    suite plus structured families), both rate-half constructions verify at
    exactly 1/2; spread families have exactly 2^(n/2)+1 pairwise-trivially-
    intersecting members for n in {2,4,6,8}."""
    ok = True
    instances = []
    # structured: cycles with neighbor antidotes, complete side information
    for M in range(2, 9):
        instances.append(gen_neighboring_antidotes(M, 0, M - 2)) if M >= 2 else None
        instances.append(
            make_instance(M, [({k}, set(range(1, M + 1)) - {k}) for k in range(1, M + 1)])
        )
    rnd = random.Random(77)
    while len(instances) < 160:
        M = rnd.randrange(2, 9)
        K = rnd.randrange(1, M + 1)
        instances.append(_random_uniform_instance(rnd, M, K, 1))
    feasible = 0
    for inst in instances:
        verdict = check_feasibility(inst, 1)
        if not verdict.feasible:
            continue
        feasible += 1
        Z = len(verdict.subsets)
        scalar = build_scalar_scheme(inst, 1)
        ok &= scalar.field == PrimeField(smallest_prime_at_least(Z))
        ok &= scalar.n == 2
        rep = verify(normalize(inst, 1), scalar)
        ok &= rep.valid and set(rep.rates.values()) == {Fraction(1, 2)}
        vector = build_rate_half_vector_scheme(inst)
        ok &= vector.field == PrimeField(2)
        ok &= 2 ** (vector.n // 2) + 1 >= Z
        rep = verify(normalize(inst, 1), vector)
        ok &= rep.valid and set(rep.rates.values()) == {Fraction(1, 2)}
    ok &= feasible >= 40
    for n in (2, 4, 6, 8):
        subs = spread_family(n)
        ok &= len(subs) == 2 ** (n // 2) + 1
        ok &= all(s.dim == n // 2 for s in subs)
        ok &= all(
            a.basis.hstack(b.basis).rank() == n for a, b in itertools.combinations(subs, 2)
        )
    report(6, ok, f"{feasible} feasible single-demand instances pass both rate-half modes")


def test_criterion_7_oracle_separation():
    """Pentagon minrank is 3 (best scalar GF(2) rate 1/3), strictly below the
    2/5 of the vector scheme; the witness re-verifies independently."""
    pentagon = gen_neighboring_antidotes(5, 1, 1)
    res = minrank_gf2(pentagon)
    ok = res.value == 3
    ok &= verify(pentagon, res.witness_scheme).valid
    ok &= simulate_exhaustive(pentagon, res.witness_scheme).ok
    vector = builtin_example(2)
    ok &= verify(vector.instance, vector.scheme).valid
    ok &= Fraction(1, res.value) < vector.claimed_rate == Fraction(2, 5)
    # the same gap on the worked example's own (isomorphic) instance
    res2 = minrank_gf2(vector.instance)
    ok &= res2.value == 3 and verify(vector.instance, res2.witness_scheme).valid
    report(7, ok, f"minrank 3 -> scalar rate 1/3 < 2/5 vector rate, witness re-verified")


def test_criterion_8_unicast_equivalence(groupcast_m2k3):
    """Transform counts and antidote formula on the two-message groupcast;
    round-trip scheme translation on every built-in scheme at rate >= the
    original; intersection rank chain slack >= 0 at every step."""
    from test_unicast import setbuilder_antidotes, groupcast_scheme_m2

    ok = True
    umap = to_unicast(groupcast_m2k3, 2)
    ok &= umap.transformed.num_messages == 6  # M(L+1)
    ok &= umap.transformed.num_destinations == 6  # K + M after normalization
    ok &= is_multiple_unicast(umap.transformed)
    by_id = {d.id: d for d in umap.transformed.destinations}
    for i in range(1, umap.M + 1):
        for j in range(umap.L + 1):
            dest = by_id[umap.unicast_id(i, j)]
            ok &= dest.has == frozenset(setbuilder_antidotes(umap, i, j))

    cases = [(builtin_example(e).instance, builtin_example(e).scheme, 1) for e in (1, 2, 3)]
    cases.append((groupcast_m2k3, groupcast_scheme_m2(groupcast_m2k3), 2))
    for inst, scheme, L in cases:
        umap = to_unicast(inst, L)
        su = scheme_to_unicast(umap, scheme)
        ok &= verify(umap.transformed, su).valid
        sg = scheme_to_groupcast(umap, su)
        ok &= verify(umap.original, sg).valid
        for i in range(1, umap.M + 1):
            ok &= sg.rate(i) >= scheme.rate(i)
        ok &= all(step.slack >= 0 for step in groupcast_rank_chain(umap, su))
    report(8, ok, "transform counts, antidote formula, and round-trip translations check out")


def test_criterion_9_certificate_soundness():
    """No certificate emitted anywhere is violated by the rate vector of a
    verified scheme on the same instance."""
    ok = True
    checked = 0
    cases = []
    for eid in (1, 2, 3):
        ex = builtin_example(eid)
        cases.append((ex.instance, ex.scheme))
    for K, U, D in [(5, 1, 1), (8, 1, 2), (9, 2, 3), (12, 0, 4)]:
        cases.append((gen_neighboring_antidotes(K, U, D), build_antidote_scheme(K, U, D)))
    for K, U, D in [(6, 0, 1), (9, 1, 2), (12, 2, 3), (20, 3, 4)]:
        cases.append((gen_neighboring_interference(K, U, D), build_interference_scheme(K, U, D)))
    for K, L in [(4, 1), (6, 2), (8, 3), (15, 4)]:
        cases.append((gen_x_network(K, L), build_x_scheme(K, L)))
    rnd = random.Random(31)
    extra = 0
    while extra < 40:
        M = rnd.randrange(2, 6)
        K = rnd.randrange(1, 6)
        inst = _random_uniform_instance(rnd, M, K, 1)
        if not check_feasibility(inst, 1).feasible:
            continue
        cases.append((inst, build_scalar_scheme(inst, 1)))
        extra += 1
    from icx.errors import BudgetExceeded

    for inst, scheme in cases:
        rep = verify(inst, scheme)
        ok &= rep.valid
        rates = rep.rates
        certs = list(simple_bounds(inst))
        sizes = inst.demand_sizes()
        if len(sizes) == 1:
            try:
                certs += chain_bounds(inst, sizes.pop(), maxN=3)
            except BudgetExceeded as exc:
                certs += exc.partial  # everything emitted so far is still a certificate
        if inst.family is not None and inst.family.kind != "custom":
            certs.append(symmetric_capacity(inst)[1])
        for cert in certs:
            if cert.violated_by(rates):
                ok = False
            checked += 1
    report(9, ok, f"{checked} certificates checked against {len(cases)} verified schemes, none violated")
