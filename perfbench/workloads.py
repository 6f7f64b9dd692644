"""The four benchmark workloads: inputs made from a seed, job lists, and checks.

Each workload is a fixed job list run by one client, the next job starting
when the previous one returns.  A job's ``run`` is timed; its ``judge`` is not.
``judge`` turns the raw result into an outcome (compared with the outcome
pinned in ``expected.json``) and a list of cross-check problems that must hold
for any seed.  Jobs marked ``seeded`` have inputs that depend on the seed, so
their pin is compared only at the default seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from icx import alignment, bounds, model, oracle, symmetric, unicast
from icx import scheme as schemes
from icx.errors import BudgetExceeded
from icx.galois import Matrix, PrimeField
from icx.model import Destination, Instance

DEFAULT_SEED = 0
RANDOM_STRUCTURES_SEED = 20240


@dataclass
class Job:
    name: str
    run: Callable[[dict], Any]
    judge: Callable[[Any, dict], tuple]  # (raw, run-wide cache) -> (outcome, problems)
    seeded: bool = False


@dataclass
class CliCall:
    """One ``python -m icx.cli`` invocation of the cli-small list.

    `group` names the library workload whose layer the call exercises; that
    workload replays its group as its CLI probe.
    """

    name: str
    argv: list
    group: str
    seeded: bool = False
    check: str = "bytes"  # "bytes" | "bounds" | "minrank" | "feasibility"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _need(cond, problems, text):
    if not cond:
        problems.append(text)


def _memo(cache, key, fn):
    if key not in cache:
        cache[key] = fn()
    return cache[key]


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------


def random_invertible(field: PrimeField, n: int, rnd: random.Random) -> Matrix:
    """A seeded invertible n x n matrix: unit lower times unit upper triangular."""
    p = field.p
    lower = [[1 if i == j else (rnd.randrange(p) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rnd.randrange(p) if j > i else 0) for j in range(n)] for i in range(n)]
    rows = [[sum(lower[i][k] * upper[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
    return Matrix.from_rows(field, rows)


def change_basis(sch: schemes.LinearScheme, T: Matrix) -> schemes.LinearScheme:
    """The same scheme seen through an invertible change of basis T."""
    return schemes.LinearScheme(sch.field, sch.n, {m: T @ v for m, v in sch.V.items()})


def random_groupcast(rnd: random.Random):
    """Criterion-5 style instance: M in 2..6, K in 1..6, uniform demand L in {1, 2}."""
    while True:
        M = rnd.randrange(2, 7)
        K = rnd.randrange(1, 7)
        L = rnd.choice([1, 2])
        if M < L:
            continue
        dests = []
        for k in range(1, K + 1):
            wants = frozenset(rnd.sample(range(1, M + 1), L))
            has = frozenset(m for m in range(1, M + 1) if m not in wants and rnd.random() < 0.45)
            dests.append(Destination(k, wants, has))
        return Instance(M, tuple(dests)), L


def relabel(inst: Instance, rnd: random.Random) -> Instance:
    """The same instance with messages renamed and destinations reordered at random."""
    perm = list(range(1, inst.num_messages + 1))
    rnd.shuffle(perm)
    rename = dict(zip(range(1, inst.num_messages + 1), perm))
    dests = list(inst.destinations)
    rnd.shuffle(dests)
    return Instance(inst.num_messages, tuple(
        Destination(k, frozenset(rename[m] for m in d.wants), frozenset(rename[m] for m in d.has))
        for k, d in enumerate(dests, start=1)
    ))


# ----------------------------------------------------------------------
# verify-large: galois elimination under the scheme checks
# ----------------------------------------------------------------------


def _judge_valid(what):
    """Judge of a verify job whose scheme must be valid."""

    def judge(rep, cache):
        problems = []
        _need(rep.valid, problems, f"{what}: not valid")
        return {"valid": rep.valid, "mode": rep.mode, "diagnostics": [d.describe() for d in rep.diagnostics]}, problems

    return judge


def verify_large(seed: int, tiny: bool):
    # (K, U, D, run dimension_audit): the K=32 audit alone would take 4 s a pass
    antidotes = [(8, 1, 2, True)] if tiny else [(32, 2, 4, False), (24, 1, 3, True)]
    xnet = (6, 2) if tiny else (15, 4)
    rnd = random.Random(seed)
    jobs = []
    for K, U, D, audit in antidotes:
        probe = symmetric.build_antidote_scheme(K, U, D)
        T = random_invertible(probe.field, probe.n, rnd)
        jobs += _scheme_chain(
            f"antidotes-K{K}-U{U}-D{D}",
            lambda K=K, U=U, D=D: (model.gen_neighboring_antidotes(K, U, D), symmetric.build_antidote_scheme(K, U, D)),
            T,
            audit=audit,
        )
    K, L = xnet
    T = random_invertible(PrimeField(2), L * (L + 1) // 2, rnd)
    p = f"xnetwork-K{K}-L{L}"
    jobs += _scheme_chain(p, lambda: (model.gen_x_network(K, L), symmetric.build_x_scheme(K, L)), T, audit=False)
    jobs += _unicast_round_trip(p, L)
    return jobs


def _scheme_chain(p, build, T, audit):
    def run_build(ctx):
        inst, sch = build()
        ctx[p] = {"inst": inst, "sch": change_basis(sch, T)}
        return ctx[p]["sch"]

    def judge_build(sch, cache):
        return {"n": sch.n, "field": repr(sch.field), "rates": sorted({frac(r) for r in sch.rates().values()})}, []

    def run_synth(ctx):
        ctx[p]["dec"] = schemes.synthesize_decoders(ctx[p]["inst"], ctx[p]["sch"])
        return ctx[p]["dec"]

    def judge_synth(dec, cache):
        return {"decoders": len(dec.U), "rows": sum(u.rows for u in dec.U.values())}, []

    def judge_audit(a, cache):
        problems = []
        _need(a.holds, problems, "dimension audit does not hold for a family scheme")
        return {"alpha": list(a.alpha), "holds": a.holds, "final_slack": frac(a.final_slack)}, problems

    jobs = [
        Job(f"{p}/build", run_build, judge_build),
        Job(f"{p}/verify-rank", lambda ctx: schemes.verify(ctx[p]["inst"], ctx[p]["sch"], mode="rank"),
            _judge_valid("family scheme, rank mode")),
        Job(f"{p}/synthesize", run_synth, judge_synth),
        Job(f"{p}/verify-decoder", lambda ctx: schemes.verify(ctx[p]["inst"], ctx[p]["dec"], mode="decoder"),
            _judge_valid("synthesized decoders, decoder mode")),
    ]
    if audit:
        jobs.append(Job(f"{p}/audit", lambda ctx: schemes.dimension_audit(ctx[p]["inst"], ctx[p]["sch"]), judge_audit))
    return jobs


def _unicast_round_trip(p, L):
    def run_to_unicast(ctx):
        ctx[p]["umap"] = unicast.to_unicast(ctx[p]["inst"], L)
        return ctx[p]["umap"]

    def run_s2u(ctx):
        ctx[p]["uni"] = unicast.scheme_to_unicast(ctx[p]["umap"], ctx[p]["dec"])
        return ctx[p]["uni"]

    def run_s2g(ctx):
        ctx[p]["grp"] = unicast.scheme_to_groupcast(ctx[p]["umap"], ctx[p]["uni"])
        return ctx[p]["grp"]

    def judge_umap(umap, cache):
        t = umap.transformed
        return {"messages": t.num_messages, "destinations": t.num_destinations}, []

    def judge_scheme(sch, cache):
        return {"n": sch.n, "streams": sum(v.cols for v in sch.V.values()),
                "rates": sorted({frac(r) for r in sch.rates().values()})}, []

    def judge_chain(steps, cache):
        problems = []
        rows = [[s.message, s.copies_used, s.dim, s.lower_bound, s.slack] for s in steps]
        _need(all(s.slack >= 0 for s in steps), problems, "rank chain below its bound")
        return {"steps": len(rows), "dims": sorted({s.dim for s in steps}),
                "sha256": sha256(json.dumps(rows).encode())}, problems

    return [
        Job(f"{p}/to-unicast", run_to_unicast, judge_umap),
        Job(f"{p}/scheme-to-unicast", run_s2u, judge_scheme),
        Job(f"{p}/verify-unicast", lambda ctx: schemes.verify(ctx[p]["umap"].transformed, ctx[p]["uni"]),
            _judge_valid("unicast translation")),
        Job(f"{p}/scheme-to-groupcast", run_s2g, judge_scheme),
        Job(f"{p}/verify-groupcast", lambda ctx: schemes.verify(ctx[p]["umap"].original, ctx[p]["grp"]),
            _judge_valid("groupcast translation")),
        Job(f"{p}/rank-chain", lambda ctx: unicast.groupcast_rank_chain(ctx[p]["umap"], ctx[p]["uni"]), judge_chain),
    ]


# ----------------------------------------------------------------------
# simulate: the four encode/decode loops
# ----------------------------------------------------------------------


def _flip(sch, key, index):
    """Scheme with one entry of the combiner U[key] flipped over GF(2)."""
    U = dict(sch.U)
    u = U[key]
    entries = list(u.entries)
    entries[index] ^= 1
    U[key] = Matrix(u.field, u.rows, u.cols, tuple(entries))
    return schemes.LinearScheme(sch.field, sch.n, sch.V, U)


def simulate(seed: int, tiny: bool):
    ex_k = 9 if tiny else 24
    sa_k, sa_u, sa_d, count = (8, 1, 2, 20) if tiny else (32, 2, 4, 50)
    co_k = 6 if tiny else 15
    np_k = 6 if tiny else 18

    ex = (model.gen_neighboring_interference(ex_k, 1, 2), symmetric.build_interference_scheme(ex_k, 1, 2))
    sa = (model.gen_neighboring_antidotes(sa_k, sa_u, sa_d), symmetric.build_antidote_scheme(sa_k, sa_u, sa_d))
    co_inst = model.gen_neighboring_interference(co_k, 1, 2)
    co_base = symmetric.build_interference_scheme(co_k, 1, 2)
    co_v = dict(co_base.V)
    co_v[1] = co_v[2]
    co = (co_inst, schemes.LinearScheme(co_base.field, co_base.n, co_v))
    np_inst = model.gen_neighboring_interference(np_k, 1, 2)
    np_dec = schemes.synthesize_decoders(np_inst, symmetric.build_interference_scheme(np_k, 1, 2))
    nx = (np_inst, _flip(np_dec, (1, 1), 2))

    def judge(inputs, want_ok):
        def fn(res, cache):
            problems = []
            valid = _memo(cache, id(inputs), lambda: schemes.verify(*inputs).valid)
            _need(res.ok == valid, problems, f"simulation ok={res.ok} but verify valid={valid}")
            _need(res.ok == want_ok, problems, f"simulation ok={res.ok}")
            return res.to_json(), problems

        return fn

    return [
        Job(f"exhaustive-interference-K{ex_k}-U1-D2", lambda ctx: schemes.simulate_exhaustive(*ex), judge(ex, True)),
        Job(f"sampled-antidotes-K{sa_k}-U{sa_u}-D{sa_d}-n{count}",
            lambda ctx: schemes.simulate_sampled(*sa, count, seed=seed), judge(sa, True)),
        Job(f"collision-interference-K{co_k}-U1-D2-V1=V2", lambda ctx: schemes.simulate_exhaustive(*co),
            judge(co, False)),
        Job(f"counterexample-interference-K{np_k}-U1-D2-flip", lambda ctx: schemes.simulate_exhaustive(*nx),
            judge(nx, False)),
    ]


# ----------------------------------------------------------------------
# certify-small: certificates, random feasibility, brute-force oracles
# ----------------------------------------------------------------------


def _family(kind, *params):
    if kind == "interference":
        return model.gen_neighboring_interference(*params), symmetric.build_interference_scheme(*params)
    if kind == "antidotes":
        return model.gen_neighboring_antidotes(*params), symmetric.build_antidote_scheme(*params)
    return model.gen_x_network(*params), symmetric.build_x_scheme(*params)


def certify_small(seed: int, tiny: bool):
    families = (
        [("interference", 6, 1, 2), ("antidotes", 6, 0, 2), ("xnetwork", 6, 2)]
        if tiny
        else [("interference", 12, 2, 3), ("interference", 20, 3, 4), ("antidotes", 12, 0, 4), ("xnetwork", 8, 3)]
    )
    # The structures come from one fixed draw, so every seed does the same
    # amount of work; the seed renames messages and reorders destinations.
    base = random.Random(RANDOM_STRUCTURES_SEED)
    rnd = random.Random(seed)
    randoms = [(relabel(inst, rnd), L) for inst, L in (random_groupcast(base) for _ in range(20 if tiny else 200))]
    minrank_params = (4, 1, 1) if tiny else (5, 1, 2)
    scalar_params, q, n_max = ((4, 0, 1), 2, 2) if tiny else ((5, 0, 1), 3, 3)

    jobs = []
    for fam in families:
        jobs += _certify_family(fam)

    def run_random(ctx):
        out = []
        for inst, L in randoms:
            verdict = alignment.check_feasibility(inst, L)
            if verdict.feasible:
                sch = alignment.build_scalar_scheme(inst, L)
                out.append((verdict, schemes.verify(model.normalize(inst, L), sch).valid))
            else:
                try:
                    certs = bounds.chain_bounds(inst, L, maxN=inst.num_messages)
                except BudgetExceeded as exc:
                    certs = exc.partial
                uniform = {m: Fraction(1, L + 1) for m in range(1, inst.num_messages + 1)}
                out.append((verdict, any(c.violated_by(uniform) for c in certs)))
        return out

    def judge_random(results, cache):
        problems = []
        for i, (verdict, ok) in enumerate(results):
            what = "scalar scheme does not verify" if verdict.feasible else "no chain certificate is violated"
            _need(ok, problems, f"random instance {i}: {what}")
        witnesses = [list(v.witness) if v.witness else None for v, _ in results]
        return {
            "feasible": sum(1 for v, _ in results if v.feasible),
            "infeasible": sum(1 for v, _ in results if not v.feasible),
            "witnesses_sha256": sha256(json.dumps(witnesses).encode()),
        }, problems

    jobs.append(Job(f"random-groupcast-{len(randoms)}", run_random, judge_random, seeded=True))

    mr_inst = model.gen_neighboring_antidotes(*minrank_params)
    sc_inst = model.gen_neighboring_antidotes(*scalar_params)

    def judge_minrank(res, cache):
        problems = []
        w = res.witness_scheme
        _need(w is not None and w.n == res.value, problems, "minrank witness length differs from the value")
        _need(w is not None and schemes.verify(mr_inst, w).valid, problems, "minrank witness does not verify")
        return {"value": res.value, "search_space_size": res.search_space_size}, problems

    def judge_scalar(res, cache):
        problems = []
        if res.witness_scheme is not None:
            _need(schemes.verify(sc_inst, res.witness_scheme).valid, problems, "scalar witness does not verify")
        return {"value": res.value, "search_space_size": res.search_space_size}, problems

    K, U, D = minrank_params
    jobs.append(Job(f"minrank-antidotes-K{K}-U{U}-D{D}", lambda ctx: oracle.minrank_gf2(mr_inst), judge_minrank))
    K, U, D = scalar_params
    jobs.append(Job(f"scalar-search-antidotes-K{K}-U{U}-D{D}-q{q}-n{n_max}",
                    lambda ctx: oracle.best_scalar_scheme(sc_inst, q, n_max), judge_scalar))
    return jobs


def _certify_family(fam):
    p = "-".join([fam[0]] + [f"{k}{v}" for k, v in zip(("K", "U", "D") if len(fam) == 4 else ("K", "L"), fam[1:])])
    inst, sch = _family(*fam)
    L = next(iter(inst.demand_sizes()))

    def run_simple(ctx):
        ctx[p] = {"simple": bounds.simple_bounds(inst)}
        return ctx[p]["simple"]

    def run_capacity(ctx):
        ctx[p]["capacity"] = bounds.symmetric_capacity(inst)
        return ctx[p]["capacity"]

    def run_chain(ctx):
        try:
            ctx[p]["chain"] = bounds.chain_bounds(inst, L, maxN=3)
        except BudgetExceeded as exc:
            ctx[p]["chain"] = exc.partial
        return ctx[p]["chain"]

    def run_evaluate(ctx):
        c = ctx[p]
        rates = sch.rates()
        return [cert for cert in c["simple"] + c["chain"] + [c["capacity"][1]] if cert.violated_by(rates)]

    def judge_chain(certs, cache):
        problems = []
        _need(all(c.kind == "chain" for c in certs), problems, "chain_bounds returned a non-chain certificate")
        return {}, problems

    def judge_capacity(cap, cache):
        value, cert = cap
        problems = []
        _need(set(sch.rates().values()) == {value}, problems, f"capacity {value} differs from the scheme's rate")
        return {"capacity": frac(value), "certificate": cert.to_json()}, problems

    def judge_evaluate(violated, cache):
        problems = [f"certificate {c.to_json()} violated by a verified scheme" for c in violated]
        return {"violated": len(violated)}, problems

    return [
        Job(f"{p}/verify", lambda ctx: schemes.verify(inst, sch), _judge_valid("family scheme")),
        Job(f"{p}/simple", run_simple, lambda certs, cache: ({"certificates": len(certs)}, [])),
        Job(f"{p}/capacity", run_capacity, judge_capacity),
        Job(f"{p}/chain", run_chain, judge_chain),
        Job(f"{p}/evaluate", run_evaluate, judge_evaluate),
    ]


# ----------------------------------------------------------------------
# cli-small: the icx command on small inputs
# ----------------------------------------------------------------------


def write_cli_inputs(workdir: str, seed: int) -> dict:
    """Write the input files of the CLI calls; returns the placeholders they fill."""
    os.makedirs(workdir, exist_ok=True)

    def path(name):
        return os.path.join(workdir, name)

    fixed = {
        "antidotes-K8.json": model.gen_neighboring_antidotes(8, 1, 2),
        "antidotes-K5-U1-D2.json": model.gen_neighboring_antidotes(5, 1, 2),
        "antidotes-K5-U0-D1.json": model.gen_neighboring_antidotes(5, 0, 1),
        "interference-K9.json": model.gen_neighboring_interference(9, 1, 2),
        "interference-K12.json": model.gen_neighboring_interference(12, 2, 3),
        "xnetwork-K6.json": model.gen_x_network(6, 2),
    }
    for name, inst in fixed.items():
        model.save_instance(inst, path(name))
    ex2 = symmetric.builtin_example(2)
    model.save_instance(ex2.instance, path("example-2-instance.json"))
    schemes.save_scheme(ex2.scheme, path("example-2-scheme.json"))

    rnd = random.Random(seed)
    base = symmetric.build_antidote_scheme(8, 1, 2)
    schemes.save_scheme(change_basis(base, random_invertible(base.field, base.n, rnd)),
                        path("antidotes-K8-scheme.json"))
    co = symmetric.build_interference_scheme(9, 1, 2)
    v = dict(co.V)
    v[1] = v[2]
    schemes.save_scheme(schemes.LinearScheme(co.field, co.n, v), path("interference-K9-collide.json"))

    # Seeded random instances, picked by verdict so every call has a fixed kind.
    wanted = {"feasible-L1": 2, "feasible-L2": 1, "infeasible": 2}
    found = {k: [] for k in wanted}
    while any(len(found[k]) < n for k, n in wanted.items()):
        inst, L = random_groupcast(rnd)
        feasible = alignment.check_feasibility(inst, L).feasible
        kind = f"feasible-L{L}" if feasible else "infeasible"
        if len(found[kind]) < wanted[kind]:
            found[kind].append((inst, L))
    fill = {"w": workdir}
    for kind, items in found.items():
        for i, (inst, L) in enumerate(items, start=1):
            model.save_instance(inst, path(f"random-{kind}-{i}.json"))
            fill[f"L_{kind}_{i}"] = str(L)
    return fill


def cli_calls():
    I, C, S = "verify-large", "certify-small", "simulate"
    calls = [
        CliCall("gen-antidotes-K8", ["gen", "--family", "antidotes", "--K", "8", "--U", "1", "--D", "2"], I),
        CliCall("gen-interference-K12", ["gen", "--family", "interference", "--K", "12", "--U", "1", "--D", "2"], I),
        CliCall("gen-xnetwork-K6", ["gen", "--family", "xnetwork", "--K", "6", "--L", "2"], I),
        CliCall("validate-antidotes-K8", ["validate", "{w}/antidotes-K8.json"], I),
        CliCall("validate-xnetwork-K6", ["validate", "{w}/xnetwork-K6.json"], I),
        CliCall("validate-random", ["validate", "{w}/random-feasible-L2-1.json"], I, seeded=True),
        CliCall("check-feasibility-feasible-1", ["check-feasibility", "{w}/random-feasible-L1-1.json", "--L", "1"], C,
                seeded=True, check="feasibility"),
        CliCall("check-feasibility-feasible-2", ["check-feasibility", "{w}/random-feasible-L2-1.json", "--L", "2"], C,
                seeded=True, check="feasibility"),
        CliCall("check-feasibility-infeasible-1",
                ["check-feasibility", "{w}/random-infeasible-1.json", "--L", "{L_infeasible_1}"], C,
                seeded=True, check="feasibility"),
        CliCall("check-feasibility-infeasible-2",
                ["check-feasibility", "{w}/random-infeasible-2.json", "--L", "{L_infeasible_2}"], C,
                seeded=True, check="feasibility"),
        CliCall("scheme-antidotes-K8-sample",
                ["scheme", "--family", "antidotes", "--K", "8", "--U", "1", "--D", "2", "--verify", "--simulate",
                 "--sample", "200"], S),
        CliCall("scheme-interference-K12",
                ["scheme", "--family", "interference", "--K", "12", "--U", "1", "--D", "2", "--verify", "--simulate"],
                S),
        CliCall("scheme-xnetwork-K6", ["scheme", "--family", "xnetwork", "--K", "6", "--L", "2", "--verify"], I),
        CliCall("scheme-spread-random",
                ["scheme", "--instance", "{w}/random-feasible-L1-2.json", "--construction", "spread", "--verify"], I,
                seeded=True),
        CliCall("scheme-scalar-random",
                ["scheme", "--instance", "{w}/random-feasible-L2-1.json", "--L", "2", "--verify", "--simulate"], S,
                seeded=True),
        CliCall("verify-example-2", ["verify", "{w}/example-2-instance.json", "{w}/example-2-scheme.json"], I),
        CliCall("verify-example-2-rank",
                ["verify", "{w}/example-2-instance.json", "{w}/example-2-scheme.json", "--mode", "rank"], I),
        CliCall("verify-antidotes-K8", ["verify", "{w}/antidotes-K8.json", "{w}/antidotes-K8-scheme.json"], I),
        CliCall("simulate-example-2", ["simulate", "{w}/example-2-instance.json", "{w}/example-2-scheme.json"], S),
        CliCall("simulate-antidotes-K8-sample",
                ["simulate", "{w}/antidotes-K8.json", "{w}/antidotes-K8-scheme.json", "--sample", "100"], S),
        CliCall("simulate-collision-K9",
                ["simulate", "{w}/interference-K9.json", "{w}/interference-K9-collide.json"], S),
        CliCall("transform-xnetwork-K6", ["transform", "{w}/xnetwork-K6.json", "--L", "2"], I),
        CliCall("transform-random", ["transform", "{w}/random-feasible-L2-1.json", "--L", "2"], I, seeded=True),
        CliCall("bounds-antidotes-K8", ["bounds", "{w}/antidotes-K8.json"], C, check="bounds"),
        CliCall("bounds-xnetwork-K6-chain", ["bounds", "{w}/xnetwork-K6.json", "--chain", "--L", "2", "--maxN", "3"],
                C, check="bounds"),
        CliCall("bounds-interference-K12-simple-family",
                ["bounds", "{w}/interference-K12.json", "--simple", "--family"], C, check="bounds"),
        CliCall("bounds-random-infeasible",
                ["bounds", "{w}/random-infeasible-1.json", "--chain", "--L", "{L_infeasible_1}"], C, seeded=True,
                check="bounds"),
        CliCall("oracle-minrank-antidotes-K5", ["oracle", "--minrank", "{w}/antidotes-K5-U1-D2.json"], C,
                check="minrank"),
        CliCall("oracle-scalar-search-antidotes-K5",
                ["oracle", "--scalar-search", "--q", "2", "--n-max", "3", "{w}/antidotes-K5-U0-D1.json"], C),
        CliCall("example-1", ["example", "1", "--verify", "--simulate"], S),
        CliCall("example-2", ["example", "2", "--verify", "--simulate"], S),
        CliCall("example-3", ["example", "3", "--verify", "--simulate"], S),
        CliCall("example-1-gf8", ["example", "1", "--field", "gf2m=3", "--verify", "--simulate"], S),
        CliCall("example-3-p5", ["example", "3", "--field", "p=5", "--verify"], I),
    ]
    return calls


TINY_CLI = ("gen-antidotes-K8", "check-feasibility-infeasible-1", "verify-example-2", "simulate-collision-K9",
            "bounds-xnetwork-K6-chain", "oracle-minrank-antidotes-K5", "example-1-gf8")


def resolve(call: CliCall, fill: dict) -> list:
    return [a.format(**fill) for a in call.argv]


def spawn_cli(argv, env):
    """Run one CLI call to completion; returns (exit code, stdout bytes)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "icx.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def _cli_rates_for(path):
    """Rates of a verified scheme for the instance a bounds call reads, or None.

    Family instances get their family scheme; any other instance gets one
    dimension per message over GF(2), which always decodes.
    """
    inst = model.load_instance(path)
    fam = inst.family
    if fam is not None and fam.kind == "neighboring-antidotes":
        sch = symmetric.build_antidote_scheme(fam.param("K"), fam.param("U"), fam.param("D"))
    elif fam is not None and fam.kind == "neighboring-interference":
        sch = symmetric.build_interference_scheme(fam.param("K"), fam.param("U"), fam.param("D"))
    elif fam is not None and fam.kind == "x-network":
        sch = symmetric.build_x_scheme(fam.param("K"), fam.param("L"))
    else:
        M = inst.num_messages
        eye = Matrix.identity(PrimeField(2), M)
        sch = schemes.LinearScheme(PrimeField(2), M, {m: eye.take_cols([m - 1]) for m in range(1, M + 1)})
    return sch.rates() if schemes.verify(inst, sch).valid else None


def judge_cli(call: CliCall, argv, code, out: bytes, cache):
    """Outcome and cross-check problems of one CLI call's exit code and stdout."""
    problems = []
    try:
        obj = json.loads(out) if out else None
    except ValueError:
        return {"exit": code, "sha256": sha256(out)}, ["stdout is not JSON"]
    outcome = {"exit": code, "sha256": sha256(out)}
    if call.check == "bounds":
        outcome = {"exit": code}
        rates = _memo(cache, ("rates", argv[1]), lambda: _cli_rates_for(argv[1]))
        _need(rates is not None, problems, "no verified scheme to check certificates against")
        certs = []
        for group in ("simple", "chain"):
            certs += (obj or {}).get(group, [])
        if obj and "family" in obj:
            certs.append(obj["family"]["certificate"])
        outcome["sound"] = bool(rates) and all(
            sum(rates[m] for m in c["terms"]) <= Fraction(c["rhs"]) for c in certs
        )
        _need(outcome["sound"], problems, "a certificate is violated by a verified scheme")
        if "infeasible" in argv[1]:
            L = int(argv[argv.index("--L") + 1])
            uniform = Fraction(1, L + 1)
            _need(any(uniform * len(c["terms"]) > Fraction(c["rhs"]) for c in certs), problems,
                  "no chain certificate is violated at the uniform rate of an infeasible instance")
    elif call.check == "minrank":
        outcome = {"exit": code, "value": obj["value"], "search_space_size": obj["search_space_size"]}
        inst = model.load_instance(argv[-1])
        witness = schemes.scheme_from_json(obj["witness_scheme"])
        _need(witness.n == obj["value"] and schemes.verify(inst, witness).valid, problems,
              "minrank witness does not verify")
    elif call.check == "feasibility":
        inst = model.load_instance(argv[1])
        verdict = alignment.check_feasibility(inst, int(argv[3]))
        _need(obj == verdict.to_json(), problems, "CLI verdict differs from the library verdict")
        _need(code == (0 if verdict.feasible else 1), problems, f"exit code {code}")
    if obj and "verification" in obj and "simulation" in obj and "ok" in obj["simulation"]:
        _need(obj["simulation"]["ok"] == obj["verification"]["valid"], problems,
              "simulation verdict differs from verify")
    if obj and "verification" in obj and argv[0] in ("scheme", "example"):
        _need(obj["verification"]["valid"], problems, "constructed scheme does not verify")
    return outcome, problems


WORKLOADS = {
    "verify-large": verify_large,
    "simulate": simulate,
    "certify-small": certify_small,
}
