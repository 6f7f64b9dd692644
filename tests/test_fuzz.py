"""Mutated instance and scheme files through every verb that reads them.

Every call must end with exit code 0, 1, 2 or 3 and at most one line on
stderr, never a traceback.  Where `icx verify` and `icx simulate` both reach
a verdict, they agree: an exhaustive simulation passes iff verification does,
and a sampled counterexample is only ever reported for a scheme that
verification rejects.  Every scheme that verifies for an instance (an
oracle's witness, or the alignment construction at rate 1/(L+1)) violates
no certificate that `icx bounds` prints for it: simple, chain at the same L,
or family when the tag holds.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from icx.cli import run
from icx.galois import BinaryField
from icx.model import gen_neighboring_antidotes, gen_neighboring_interference, gen_x_network, instance_to_json
from icx.scheme import LinearScheme, scheme_to_json
from icx.symmetric import build_antidote_scheme, build_interference_scheme, builtin_example


def _bases():
    """(instance JSON, scheme JSON) pairs, with and without combiners."""
    out = []
    for ex in (builtin_example(1), builtin_example(2), builtin_example(1, BinaryField(3))):
        v_only = LinearScheme(ex.scheme.field, ex.scheme.n, ex.scheme.V)
        out.append((instance_to_json(ex.instance), scheme_to_json(ex.scheme)))
        out.append((instance_to_json(ex.instance), scheme_to_json(v_only)))
    out.append((instance_to_json(gen_neighboring_antidotes(5, 1, 1)), scheme_to_json(build_antidote_scheme(5, 1, 1))))
    out.append(
        (instance_to_json(gen_neighboring_interference(6, 0, 1)), scheme_to_json(build_interference_scheme(6, 0, 1)))
    )
    return out


BASES = _bases()

INSTANCES = [
    instance_to_json(gen_neighboring_antidotes(5, 1, 1)),
    # two more unicast bases, so more examples reach the minrank witness check
    instance_to_json(gen_neighboring_antidotes(6, 1, 1)),
    instance_to_json(builtin_example(2).instance),
    instance_to_json(gen_neighboring_interference(6, 0, 1)),
    instance_to_json(gen_x_network(4, 1)),
    {  # demands of one and two messages
        "messages": 4,
        "destinations": [
            {"id": 1, "wants": [1, 2], "has": [3]},
            {"id": 2, "wants": [3], "has": []},
            {"id": 3, "wants": [2, 4], "has": [1]},
            {"id": 4, "wants": [4], "has": [1, 2]},
        ],
    },
]

json_scalars = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([2**31 - 1, 2**31, 10**12, -(10**12)]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=3),
)
json_values = st.one_of(
    json_scalars,
    st.lists(st.integers(-2, 4), max_size=3),
    st.lists(st.lists(st.integers(-2, 4), min_size=1, max_size=3), max_size=3),
    st.just({}),
)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, obj):
    """A copy of a JSON object with one to three edits.  Most set a number to
    another small one, which usually keeps the file readable and changes the
    verdict; the rest drop a key or item, replace any value or add a key."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))[1:]
        numbers = [p for p in paths if type(_at(obj, p)) is int]
        action = draw(st.sampled_from(["number"] * 8 + ["drop"] * 2 + ["replace", "extra"]))
        if action == "number" and numbers:
            path = draw(st.sampled_from(numbers))
        elif paths:
            path = draw(st.sampled_from(paths))
        else:
            break
        parent, key = _at(obj, path[:-1]), path[-1]
        if action == "number":
            parent[key] = draw(st.integers(-1, 4))
        elif action == "drop":
            del parent[key]
        elif action == "extra" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["x", "U", "family", "1@9"]))] = draw(json_values)
        else:
            parent[key] = draw(json_values)
    return obj


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def file_pair(draw):
    inst, sch = draw(st.sampled_from(BASES))
    which = draw(st.sampled_from(["scheme"] * 3 + ["instance", "both"]))
    if which != "scheme":
        inst = draw(mutated(inst))
    if which != "instance":
        sch = draw(mutated(sch))
    texts = [json.dumps(inst), json.dumps(sch)]
    if draw(st.integers(0, 9)) == 0:  # a truncated file
        i = draw(st.integers(0, 1))
        texts[i] = texts[i][: draw(st.integers(0, len(texts[i])))]
    return texts


@st.composite
def has_toggled(draw, inst):
    """A copy of an instance file with one to three messages put into or taken
    out of some destination's `has`.  Ids and demands stay, so a unicast base
    stays unicast and most copies reach the oracles."""
    inst = copy.deepcopy(inst)
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from(inst["destinations"]))
        m = draw(st.integers(1, inst["messages"]))
        if m not in d["wants"]:
            d["has"] = sorted(set(d["has"]) ^ {m})
    return inst


@st.composite
def instance_text(draw):
    base = draw(st.sampled_from(INSTANCES))
    inst = draw(st.one_of(mutated(base), has_toggled(base)))
    text = json.dumps(inst)
    if draw(st.integers(0, 9)) == 0:  # a truncated file
        text = text[: draw(st.integers(0, len(text)))]
    return text


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def verdict(code, out, key):
    return json.loads(out)[key] if code in (0, 1) and out else None


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(texts=file_pair())
def test_mutated_files_through_verify_and_simulate(tmp_path, texts):
    inst_path, scheme_path = tmp_path / "inst.json", tmp_path / "scheme.json"
    inst_path.write_text(texts[0], encoding="utf-8")
    scheme_path.write_text(texts[1], encoding="utf-8")
    files = [str(inst_path), str(scheme_path)]
    results = {}
    for name, argv in [
        ("verify", ["verify", *files]),
        ("exhaustive", ["simulate", *files]),
        ("sampled", ["simulate", *files, "--sample", "5"]),
    ]:
        code, out, err = call(argv)
        assert code in (0, 1, 2, 3), (name, code)
        assert len(err.splitlines()) <= 1 and "Traceback" not in err, (name, err)
        results[name] = (code, out)
    valid = verdict(*results["verify"], "valid")
    if valid is None:
        return
    code, out = results["exhaustive"]
    ok = verdict(code, out, "ok")
    assert ok is None or ok == valid
    code, out = results["sampled"]
    ok = verdict(code, out, "ok")
    if ok is False:
        assert not valid


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(text=instance_text(), L=st.integers(1, 2))
def test_mutated_instances_through_instance_verbs(tmp_path, text, L):
    path = tmp_path / "inst.json"
    path.write_text(text, encoding="utf-8")
    inst, L = str(path), str(L)
    outputs = {}
    for argv in [
        ["validate", inst],
        ["check-feasibility", inst, "--L", L],
        ["transform", inst, "--L", L],
        ["bounds", inst, "--maxN", "2", "--budget", "2000"],
        ["scheme", "--instance", inst, "--L", L, "--verify"],
        ["oracle", inst, "--minrank"],
        ["oracle", inst, "--scalar-search", "--q", "2", "--n-max", "2"],
    ]:
        code, out, err = call(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert len(err.splitlines()) <= 1 and "Traceback" not in err, (argv, err)
        outputs[" ".join(argv[2:])] = code, out
    # every scheme that verified, as its per-message rates: the oracles'
    # witnesses (a scalar scheme of length n has rate 1/n per message) and
    # the alignment construction at 1/(L+1)
    scheme_path = tmp_path / "scheme.json"
    rate_vectors = []
    for key in ("--minrank", "--scalar-search --q 2 --n-max 2"):
        code, out = outputs[key]
        if code != 0:
            continue
        found = json.loads(out)
        scheme_path.write_text(json.dumps(found["witness_scheme"]), encoding="utf-8")
        code, out, _ = call(["verify", inst, str(scheme_path)])
        assert (code, json.loads(out)["valid"]) == (0, True)
        rates = {int(m): Fraction(r) for m, r in json.loads(out)["rates"].items()}
        assert set(rates.values()) == {Fraction(1, found["value"])}
        rate_vectors.append(rates)
    code, out = outputs[f"{inst} --L {L} --verify"]
    if code == 0:
        report = json.loads(out)["verification"]
        assert report["valid"]
        rate_vectors.append({int(m): Fraction(r) for m, r in report["rates"].items()})
    if not rate_vectors:
        return
    # every certificate bounds prints for the file at the same L violates none
    certs = []
    for argv, codes in [(["--simple"], (0,)), (["--chain", "--L", L], (0, 2, 3)), (["--family"], (0, 2))]:
        code, out, err = call(["bounds", inst, *argv])
        assert code in codes and len(err.splitlines()) <= 1 and "Traceback" not in err, (argv, code, err)
        if code == 0:
            found = json.loads(out)
            certs += found.get("simple", []) + found.get("chain", [])
            certs += [found["family"]["certificate"]] if "family" in found else []
    for rates in rate_vectors:
        for cert in certs:
            assert sum(rates[m] for m in cert["terms"]) <= Fraction(cert["rhs"]), (rates, cert)
