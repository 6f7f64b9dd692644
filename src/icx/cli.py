"""Command-line interface: one verb per invocation, JSON on stdout.

Exit codes: 0 success; 1 the artifact is invalid/infeasible or a
counterexample was found; 2 usage error; 3 budget exceeded.  Identical
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

# Each handler imports the modules its verb needs, so a call loads no others.
from .errors import (
    BudgetExceeded, IcxError, Infeasible, ParseError, UnsupportedFamily, dump_json, fraction_text, parse_json,
    read_file, write_file,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# --family name -> (its options, generator in model, scheme builder in symmetric)
_FAMILIES = {
    "antidotes": (("K", "U", "D"), "gen_neighboring_antidotes", "build_antidote_scheme"),
    "interference": (("K", "U", "D"), "gen_neighboring_interference", "build_interference_scheme"),
    "xnetwork": (("K", "L"), "gen_x_network", "build_x_scheme"),
}
_FAMILY_DEFAULTS = {"K": None, "U": 0, "D": 0, "L": 1}


def _parse_field(text):
    from .galois import BinaryField, PrimeField

    kind, _, value = text.partition("=")
    if kind not in ("p", "gf2m"):
        raise argparse.ArgumentTypeError(f"field must be p=<prime> or gf2m=<m>, got {text!r}")
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{kind}={value!r} is not an integer") from None
    try:
        return PrimeField(number) if kind == "p" else BinaryField(number)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text):
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return count


def _given(args, *names) -> dict:
    """The named options set on the command line, with their values; the rest keep the library's defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _build_parser():
    top = argparse.ArgumentParser(prog="icx", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def add_family(p, required):
        p.add_argument("--family", required=required, choices=list(_FAMILIES))
        p.add_argument("--K", type=int, required=required)
        for name in "UDL":  # no default here, so _family_options sees which were given
            p.add_argument(f"--{name}", type=int)

    def add_sample(p):
        p.add_argument(
            "--sample", type=_positive_int, metavar="N", help="check N seeded random tuples, not every tuple"
        )

    p = sub.add_parser("gen", help="generate a symmetric family instance")
    add_family(p, required=True)

    p = sub.add_parser("validate", help="check instance file invariants")
    p.add_argument("instance")

    p = sub.add_parser("check-feasibility", help="decide rate 1/(L+1) feasibility")
    p.add_argument("instance")
    p.add_argument("--L", type=int, required=True)

    p = sub.add_parser("scheme", help="construct a scheme (family or alignment based)")
    add_family(p, required=False)
    p.add_argument("--instance", help="build for an instance file instead of a family")
    p.add_argument(
        "--construction",
        choices=["scalar", "spread"],
        help="with --instance: scalar (n=L+1, prime field) or spread (GF(2), L=1)",
    )
    p.add_argument("--verify", action="store_true")
    p.add_argument("--simulate", action="store_true")
    add_sample(p)

    p = sub.add_parser("verify", help="verify a scheme file against an instance file")
    p.add_argument("instance")
    p.add_argument("scheme")
    p.add_argument("--mode", choices=["auto", "rank", "decoder"], default="auto")

    p = sub.add_parser("simulate", help="exhaustive zero-error simulation")
    p.add_argument("instance")
    p.add_argument("scheme")
    add_sample(p)

    p = sub.add_parser("transform", help="groupcast -> equivalent multiple unicast")
    p.add_argument("instance")
    p.add_argument("--L", type=int, required=True)

    p = sub.add_parser("bounds", help="emit outer-bound certificates")
    p.add_argument("instance")
    p.add_argument("--simple", action="store_true")
    p.add_argument("--chain", action="store_true")
    p.add_argument("--family", action="store_true")
    p.add_argument("--L", type=int, help="demand size for chain bounds")
    p.add_argument("--maxN", type=_positive_int)
    p.add_argument("--budget", type=_positive_int)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    p.add_argument("instance")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--minrank", action="store_true")
    g.add_argument("--scalar-search", action="store_true")
    # no defaults here, so --minrank sees which were given; --scalar-search fills in 2 and 3
    p.add_argument("--q", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--budget", type=_positive_int)

    p = sub.add_parser("example", help="built-in worked examples 1..3")
    p.add_argument("id", type=int, choices=[1, 2, 3])
    p.add_argument("--field", type=_parse_field, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--simulate", action="store_true")

    for p in sub.choices.values():  # last, so every verb's usage ends with it
        p.add_argument("--out", help="write JSON here instead of stdout")
    return top


def _family_options(args) -> list:
    """The family options the call reads, defaults filled in; one given that it does not read is refused."""
    reads = _FAMILIES[args.family][0] if args.family else ("L",)  # --instance reads --L alone
    unread = ", ".join(f"--{n}" for n in _given(args, *(n for n in _FAMILY_DEFAULTS if n not in reads)))
    if unread:
        raise IcxError(f"{'--family ' + args.family if args.family else '--instance'} does not read {unread}")
    return [_FAMILY_DEFAULTS[name] if getattr(args, name) is None else getattr(args, name) for name in reads]


def _family_call(args, module, builder=False):
    """The --family's instance from model, or with builder=True its scheme from symmetric."""
    _, gen, build = _FAMILIES[args.family]
    return getattr(module, build if builder else gen)(*_family_options(args))


def _cmd_gen(args):
    from . import model

    return model.instance_to_json(_family_call(args, model)), EXIT_OK


def _cmd_validate(args):
    from . import model

    messages, dests, family = read_file(args.instance, lambda text: model._instance_parts(parse_json(text)))
    problems = model.validate(messages, dests)
    if not problems and family is not None and family.kind != "custom":
        try:
            model.check_family(model.Instance(messages, dests, family))
        except UnsupportedFamily as exc:
            problems.append(str(exc))
    out = {"valid": not problems, "violations": problems, "messages": messages}
    return out, EXIT_OK if not problems else EXIT_NEGATIVE


def _cmd_check_feasibility(args):
    from . import alignment, model

    inst = model.load_instance(args.instance)
    verdict = alignment.check_feasibility(inst, args.L)
    return verdict.to_json(), EXIT_OK if verdict.feasible else EXIT_NEGATIVE


def _cmd_scheme(args):
    from . import model, scheme as schemes

    if bool(args.family) == bool(args.instance):
        raise IcxError("pass exactly one of --family or --instance")
    if args.construction and not args.instance:
        raise IcxError("--construction needs --instance")
    if args.sample and not args.simulate:
        raise IcxError("--sample needs --simulate")
    if args.family:
        if args.K is None:
            raise IcxError("--family needs --K")
        from . import symmetric

        inst = _family_call(args, model)  # the instance caps refuse first
        built = _family_call(args, symmetric, builder=True)
    else:
        from . import alignment

        (L,) = _family_options(args)
        inst = model.load_instance(args.instance)
        if args.construction == "spread":
            if L != 1:
                raise IcxError("the spread construction is stated for single demands (L=1)")
            built = alignment.build_rate_half_vector_scheme(inst)
        else:
            built = alignment.build_scalar_scheme(inst, L)
    out = {"scheme": schemes.scheme_to_json(built)}
    code = EXIT_OK
    if args.verify or args.simulate:
        target = inst if args.family else model.normalize(inst, L)
    if args.verify:
        report = schemes.verify(target, built)
        out["verification"] = report.to_json()
        if not report.valid:
            code = EXIT_NEGATIVE
    if args.simulate:
        out["simulation"], ok = _simulate(target, built, args)
        if not ok:
            code = EXIT_NEGATIVE
    return out, code


def _simulate(inst, sch, args):
    """Exhaustive simulation, or with --sample N that many seeded tuples:
    the result's JSON, labelled with its mode, and whether it passed."""
    from . import scheme as schemes

    if args.sample is None:
        result, mode = schemes.simulate_exhaustive(inst, sch), "exhaustive"
    else:
        result, mode = schemes.simulate_sampled(inst, sch, args.sample), "sampled"
    return dict(result.to_json(), mode=mode), result.ok


def _cmd_verify(args):
    from . import model, scheme as schemes

    inst = model.load_instance(args.instance)
    sch = schemes.load_scheme(args.scheme)
    report = schemes.verify(inst, sch, mode=args.mode)
    return report.to_json(), EXIT_OK if report.valid else EXIT_NEGATIVE


def _cmd_simulate(args):
    from . import model, scheme as schemes

    inst = model.load_instance(args.instance)
    sch = schemes.load_scheme(args.scheme)
    out, ok = _simulate(inst, sch, args)
    return out, EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_transform(args):
    from . import model, unicast

    inst = model.load_instance(args.instance)
    umap = unicast.to_unicast(inst, args.L)
    return umap.to_json(), EXIT_OK


def _cmd_bounds(args):
    from . import alignment, bounds, model

    chain_options = ", ".join(f"--{name}" for name in _given(args, "L", "maxN", "budget"))
    if chain_options and (args.simple or args.family) and not args.chain:  # only the chain search reads them
        asked = " ".join(f"--{name}" for name in ("simple", "family") if getattr(args, name))
        raise IcxError(f"{asked} without --chain does not read {chain_options}")
    inst = model.load_instance(args.instance)
    want_all = not (args.simple or args.chain or args.family)
    L = None
    if args.chain or want_all:
        L = args.L
        if L is None:
            sizes = inst.demand_sizes()
            if len(sizes) == 1:
                L = sizes.pop()
        if L is None and (args.chain or chain_options):
            raise IcxError("chain bounds need --L for non-uniform instances")
    out = {}
    if args.simple or want_all:
        if L is not None:  # the chain search's edge cap refuses before any simple certificate is built
            alignment.edge_count(model.normalize(inst, L))
        out["simple"] = [c.to_json() for c in bounds.simple_bounds(inst)]
    if L is not None:
        found = bounds.chain_bounds(inst, L, **_given(args, "maxN", "budget"))
        out["chain"] = [c.to_json() for c in found]
    if args.family or (want_all and inst.family is not None and inst.family.kind != "custom"):
        value, cert = bounds.symmetric_capacity(inst)
        out["family"] = {
            "capacity_per_message": fraction_text(value),
            "certificate": cert.to_json(),
        }
    return out, EXIT_OK


def _cmd_oracle(args):
    from . import model, oracle

    unread = ", ".join(f"--{name}".replace("_", "-") for name in _given(args, "q", "n_max"))
    if args.minrank and unread:
        raise IcxError(f"--minrank does not read {unread}")
    inst = model.load_instance(args.instance)
    budget = _given(args, "budget")
    if args.minrank:
        res = oracle.minrank_gf2(inst, **budget)
    else:
        q, n_max = 2 if args.q is None else args.q, 3 if args.n_max is None else args.n_max
        res = oracle.best_scalar_scheme(inst, q, n_max, **budget)
    code = EXIT_OK if res.value is not None else EXIT_NEGATIVE
    return res.to_json(), code


def _cmd_example(args):
    from . import model, scheme as schemes, symmetric

    ex = symmetric.builtin_example(args.id, args.field)
    out = {
        "id": ex.id,
        "claimed_rate": fraction_text(ex.claimed_rate),
        "instance": model.instance_to_json(ex.instance),
        "scheme": schemes.scheme_to_json(ex.scheme),
    }
    code = EXIT_OK
    if args.verify:
        report = schemes.verify(ex.instance, ex.scheme)
        out["verification"] = report.to_json()
        if not report.valid:
            code = EXIT_NEGATIVE
    if args.simulate:
        result = schemes.simulate_exhaustive(ex.instance, ex.scheme)
        out["simulation"] = result.to_json()
        if not result.ok:
            code = EXIT_NEGATIVE
    return out, code


_HANDLERS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "check-feasibility": _cmd_check_feasibility,
    "scheme": _cmd_scheme,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "transform": _cmd_transform,
    "bounds": _cmd_bounds,
    "oracle": _cmd_oracle,
    "example": _cmd_example,
}


def run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            obj, code = _HANDLERS[args.verb](args)
        except Infeasible as exc:
            # infeasibility carries a verdict and its witness, not a crash
            obj, code = {"feasible": False, "witness": list(exc.witness)}, EXIT_NEGATIVE
        text = dump_json(obj)
        if args.out:
            write_file(args.out, text)
        else:
            sys.stdout.write(text)
        return code
    except (IcxError, OSError) as exc:
        # a file that cannot be opened or written is a usage error
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceeded):
            return EXIT_BUDGET
        return EXIT_NEGATIVE if isinstance(exc, ParseError) else EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
