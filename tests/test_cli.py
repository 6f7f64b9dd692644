"""End-to-end CLI behaviour: verbs, exit codes, JSON shape, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import icx
from icx import model
from icx.cli import run
from icx.model import (
    FamilyTag,
    gen_neighboring_antidotes,
    gen_neighboring_interference,
    gen_x_network,
    load_instance,
    save_instance,
    serialize_instance,
)
from icx.scheme import LinearScheme, load_scheme, save_scheme, scheme_from_json, serialize_scheme
from icx.symmetric import build_antidote_scheme, build_interference_scheme

from conftest import make_instance, x_network_windows


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return str(path)


def test_gen_validate_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    code, _, _ = invoke(capsys, "gen", "--family", "antidotes", "--K", "5", "--U", "1", "--D", "1", "--out", str(out_path))
    assert code == 0
    code, out, _ = invoke(capsys, "validate", str(out_path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"messages": 2, "destinations": [{"id": 1, "wants": [1], "has": [1]}]}\n',
        encoding="utf-8",
    )
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 1
    obj = json.loads(out)
    assert obj["valid"] is False
    assert any("both desired and held" in v for v in obj["violations"])


def test_validate_checks_a_family_tag_against_the_destinations(tmp_path, capsys):
    """An antidotes K=5 U=1 D=1 tag on destinations that hold every other
    message is a violation, as it is an error for bounds; a custom tag names
    no family and is not checked."""
    dests = [({k}, {1, 2, 3, 4, 5} - {k}) for k in range(1, 6)]
    path = write_instance(tmp_path, make_instance(5, dests, FamilyTag.make("neighboring-antidotes", K=5, U=1, D=1)))
    code, out, err = invoke(capsys, "validate", path)
    assert (code, err) == (1, "")
    violation = "instance is not the neighboring-antidotes family K=5 U=1 D=1 that its tag names"
    assert json.loads(out) == {"valid": False, "violations": [violation], "messages": 5}
    custom = write_instance(tmp_path, make_instance(5, dests, FamilyTag.make("custom", K=5)), "custom.json")
    code, out, _ = invoke(capsys, "validate", custom)
    assert (code, json.loads(out)["violations"]) == (0, [])


def test_check_feasibility_feasible(tmp_path, capsys, feasible_m4k3):
    path = write_instance(tmp_path, feasible_m4k3)
    code, out, _ = invoke(capsys, "check-feasibility", path, "--L", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["feasible"] is True
    assert obj["partition"]["Z"] == 3
    assert obj["partition"]["subsets"] == [[1], [2], [3, 4]]


def test_check_feasibility_infeasible(tmp_path, capsys, infeasible_m4k3):
    path = write_instance(tmp_path, infeasible_m4k3)
    code, out, _ = invoke(capsys, "check-feasibility", path, "--L", "2")
    assert code == 1
    assert json.loads(out)["witness"] == [1, 4, 3]


def test_scheme_family_verify_simulate_sampled(capsys):
    code, out, _ = invoke(
        capsys,
        "scheme", "--family", "antidotes", "--K", "8", "--U", "1", "--D", "2",
        "--verify", "--simulate", "--sample", "500",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verification"]["valid"] is True
    assert set(obj["verification"]["rates"].values()) == {"2/7"}
    assert obj["simulation"]["ok"] is True and obj["simulation"]["mode"] == "sampled"


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
@pytest.mark.parametrize("verb", ["scheme", "simulate"])
def test_sample_must_be_positive(tmp_path, capsys, verb, value):
    if verb == "scheme":
        argv = ["scheme", "--family", "antidotes", "--K", "8", "--U", "1", "--D", "2", "--simulate"]
    else:
        _, out, _ = invoke(capsys, "example", "1")
        ex = json.loads(out)
        inst_path, scheme_path = tmp_path / "inst.json", tmp_path / "scheme.json"
        inst_path.write_text(json.dumps(ex["instance"]) + "\n", encoding="utf-8")
        scheme_path.write_text(json.dumps(ex["scheme"]) + "\n", encoding="utf-8")
        argv = ["simulate", str(inst_path), str(scheme_path)]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--sample", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --sample: expected an integer >= 1" in captured.err.splitlines()[-1]
    assert "Traceback" not in captured.err


def test_scheme_simulate_answers_every_tuple(capsys):
    """11^16 tuples: simulation decides them all exactly, with no budget."""
    code, out, _ = invoke(
        capsys,
        "scheme", "--family", "antidotes", "--K", "8", "--U", "1", "--D", "2",
        "--verify", "--simulate",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["simulation"] == {"ok": True, "tuples_checked": 11**16, "mode": "exhaustive"}


def test_sample_is_a_request(capsys):
    """--sample samples even where every tuple could be checked: 2^6 here."""
    code, out, _ = invoke(
        capsys, "scheme", "--family", "interference", "--K", "6", "--U", "0", "--D", "1",
        "--simulate", "--sample", "10",
    )
    assert code == 0
    assert json.loads(out)["simulation"] == {"ok": True, "tuples_checked": 10, "mode": "sampled"}


def test_scheme_sample_needs_simulate(capsys):
    """--sample without --simulate would check nothing, so it is refused."""
    argv = ["scheme", "--family", "antidotes", "--K", "5", "--U", "1", "--D", "1", "--verify", "--sample", "10"]
    assert_one_line_error(*invoke(capsys, *argv), 2, "--sample needs --simulate")


@pytest.mark.parametrize(
    "sources", [[], ["--family", "antidotes", "--K", "5", "--instance", "{i}"]], ids=["neither", "both"]
)
def test_scheme_needs_one_source(tmp_path, capsys, sources):
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    argv = ["scheme", *(a.format(i=path) for a in sources)]
    assert_one_line_error(*invoke(capsys, *argv), 2, "pass exactly one of --family or --instance")


@pytest.mark.parametrize("construction", ["scalar", "spread"])
def test_scheme_construction_needs_instance(capsys, construction):
    """--construction picks how an instance file's scheme is built; with
    --family it would do nothing, so it is refused."""
    argv = ["scheme", "--family", "antidotes", "--K", "5", "--U", "1", "--D", "1", "--construction", construction]
    assert_one_line_error(*invoke(capsys, *argv), 2, "--construction needs --instance")


@pytest.mark.parametrize("option", ["--K", "--U", "--D"])
def test_scheme_instance_refuses_family_options(tmp_path, capsys, option):
    """An instance file's scheme reads --L alone; a family option would be ignored, so it is refused."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    argv = ["scheme", "--instance", path, option, "3"]
    assert_one_line_error(*invoke(capsys, *argv), 2, f"--instance does not read {option}")


@pytest.mark.parametrize(
    "family, option",
    [("antidotes", "--L"), ("interference", "--L"), ("xnetwork", "--U"), ("xnetwork", "--D")],
)
@pytest.mark.parametrize("verb", ["gen", "scheme"])
def test_family_refuses_options_it_does_not_read(capsys, verb, family, option):
    """--L is no parameter of the antidotes and interference families, and
    --U and --D none of the X-network; given, they are refused, not ignored."""
    params = ["--K", "6", "--L", "2"] if family == "xnetwork" else ["--K", "6", "--U", "0", "--D", "1"]
    argv = [verb, "--family", family, *params, option, "1"]
    assert_one_line_error(*invoke(capsys, *argv), 2, f"--family {family} does not read {option}")


def test_simulate_antidotes_k32_exactly(tmp_path, capsys):
    """Antidotes K=32 U=2 D=4 over GF(37), 96 streams: 37^96 tuples, each
    decided, and with V_1 moved onto V_2 the first counterexample, which
    ``verify`` places at the same destination."""
    inst_path, scheme_path = str(tmp_path / "inst.json"), str(tmp_path / "scheme.json")
    save_instance(gen_neighboring_antidotes(32, 2, 4), inst_path)
    built = build_antidote_scheme(32, 2, 4)
    save_scheme(built, scheme_path)
    code, out, err = invoke(capsys, "simulate", inst_path, scheme_path)
    assert (code, err) == (0, "")
    assert f'"tuples_checked": {37**96}' in out
    assert json.loads(out) == {"ok": True, "tuples_checked": 37**96, "mode": "exhaustive"}
    save_scheme(LinearScheme(built.field, built.n, {**built.V, 1: built.V[2]}), scheme_path)
    code, out, err = invoke(capsys, "simulate", inst_path, scheme_path)
    obj = json.loads(out)
    assert (code, err, obj["ok"], obj["mode"], obj["destination"], obj["message"]) == (1, "", False, "exhaustive", 4, 4)
    code, out, _ = invoke(capsys, "verify", inst_path, scheme_path)
    assert code == 1 and "resolvability, destination 4" in json.loads(out)["diagnostics"]


def test_example_3_over_gf5_simulates(capsys):
    """Example 3 over GF(5) has 5^15 tuples, all decided."""
    code, out, _ = invoke(capsys, "example", "3", "--field", "p=5", "--simulate")
    assert code == 0
    assert json.loads(out)["simulation"] == {"ok": True, "tuples_checked": 5**15}


def test_scheme_small_family_exhaustive(capsys):
    code, out, _ = invoke(
        capsys, "scheme", "--family", "interference", "--K", "6", "--U", "0", "--D", "1",
        "--verify", "--simulate",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["simulation"]["mode"] == "exhaustive"
    assert set(obj["verification"]["rates"].values()) == {"1/2"}


def test_scheme_from_instance(tmp_path, capsys, feasible_m4k3):
    path = write_instance(tmp_path, feasible_m4k3)
    code, out, _ = invoke(capsys, "scheme", "--instance", path, "--L", "2", "--verify", "--simulate")
    assert code == 0
    obj = json.loads(out)
    assert obj["scheme"]["n"] == 3
    assert obj["verification"]["valid"] is True
    assert obj["simulation"]["ok"] is True


def test_scheme_spread_refuses_l2(tmp_path, capsys, feasible_m4k3):
    path = write_instance(tmp_path, feasible_m4k3)
    code, out, err = invoke(capsys, "scheme", "--instance", path, "--construction", "spread", "--L", "2")
    assert code == 2 and out == ""
    assert err == "error: the spread construction is stated for single demands (L=1)\n"


def test_scheme_infeasible_instance_exit1(tmp_path, capsys, infeasible_m4k3):
    path = write_instance(tmp_path, infeasible_m4k3)
    code, out, _ = invoke(capsys, "scheme", "--instance", path, "--L", "2")
    assert code == 1
    assert json.loads(out)["witness"] == [1, 4, 3]


def example1_files(tmp_path, capsys, edit_scheme=None):
    """Paths of example 1's instance and scheme files, the scheme JSON edited in place."""
    code, out, _ = invoke(capsys, "example", "1")
    ex = json.loads(out)
    if edit_scheme is not None:
        edit_scheme(ex["scheme"])
    inst_path = tmp_path / "inst.json"
    scheme_path = tmp_path / "scheme.json"
    inst_path.write_text(json.dumps(ex["instance"]) + "\n", encoding="utf-8")
    scheme_path.write_text(json.dumps(ex["scheme"]) + "\n", encoding="utf-8")
    return str(inst_path), str(scheme_path)


def test_verify_validates_its_instance_file_once(tmp_path, capsys, monkeypatch):
    """The instance is validated where it is read, not again by the check."""
    inst_path, scheme_path = example1_files(tmp_path, capsys)
    calls = []
    real = model.validate
    monkeypatch.setattr(model, "validate", lambda *parts: calls.append(parts) or real(*parts))
    assert invoke(capsys, "verify", inst_path, scheme_path)[0] == 0
    assert len(calls) == 1


def test_verify_and_simulate_files(tmp_path, capsys):
    inst_path, scheme_path = example1_files(tmp_path, capsys)
    code, out, _ = invoke(capsys, "verify", inst_path, scheme_path)
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = invoke(capsys, "verify", inst_path, scheme_path, "--mode", "rank")
    assert code == 0 and json.loads(out)["mode"] == "rank"
    code, out, _ = invoke(capsys, "simulate", inst_path, scheme_path)
    assert code == 0 and json.loads(out)["ok"] is True


def test_simulate_singular_decoder_exit_1(tmp_path, capsys):
    inst_path, scheme_path = example1_files(tmp_path, capsys, lambda s: s["U"].update({"1@1": [[1, 0]]}))
    code, out, err = invoke(capsys, "simulate", inst_path, scheme_path)
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "mode": "exhaustive",
        "ok": False,
        "tuples_checked": 1,
        "counterexample": {"1": [1], "2": [0], "3": [0]},
        "destination": 1,
        "message": 1,
    }
    code, out, _ = invoke(capsys, "verify", inst_path, scheme_path)
    assert code == 1
    assert "property2, destination 1, message 1" in json.loads(out)["diagnostics"]


def test_simulate_missing_combiner_one_line_error(tmp_path, capsys):
    """verify reports the gap as a diagnostic; simulation has no decoder to run."""
    inst_path, scheme_path = example1_files(tmp_path, capsys, lambda s: s["U"].pop("1@1"))
    assert_one_line_error(
        *invoke(capsys, "simulate", inst_path, scheme_path), 2, "simulation needs the combiner U[1@1]"
    )
    code, out, _ = invoke(capsys, "verify", inst_path, scheme_path)
    assert code == 1 and "missing-decoder, destination 1, message 1" in json.loads(out)["diagnostics"]


@pytest.mark.parametrize(
    "spec",
    [{"kind": "prime", "p": "5"}, {"kind": "prime", "p": 5.0}, {"kind": "gf2m", "m": "3"}],
    ids=["p-string", "p-float", "m-string"],
)
def test_bad_field_spec_one_line_error(tmp_path, capsys, spec):
    inst_path, scheme_path = example1_files(tmp_path, capsys, lambda s: s.update(field=spec))
    code, out, err = invoke(capsys, "verify", inst_path, scheme_path)
    assert out == ""
    assert err.startswith(f"error: {scheme_path}: bad field spec: ") and err.count("\n") == 1
    _, garbage_path = example1_files(tmp_path, capsys, lambda s: s.update(n=0))
    garbage_code, _, _ = invoke(capsys, "verify", inst_path, garbage_path)
    assert code == garbage_code == 1


def test_verify_and_bounds_do_not_load_numpy(tmp_path):
    """Elimination is pure Python at every size, and simulation reads its
    verdict off the error map, so these CLI calls never load numpy."""
    inst_path, scheme_path = str(tmp_path / "inst.json"), str(tmp_path / "scheme.json")
    save_instance(gen_neighboring_antidotes(8, 1, 2), inst_path)
    save_scheme(build_antidote_scheme(8, 1, 2), scheme_path)
    script = (
        "import sys\n"
        "from icx.cli import run\n"
        "i, s = sys.argv[1:]\n"
        "codes = [run(['verify', i, s]), run(['verify', i, s, '--mode', 'rank']), run(['bounds', i]),\n"
        "         run(['simulate', i, s, '--sample', '100']), run(['simulate', i, s]),\n"
        "         run(['example', '1', '--simulate'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    src = pathlib.Path(icx.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, inst_path, scheme_path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"


def loaded_modules(argv):
    """Exit code of one CLI call in a fresh interpreter, and every module it loaded."""
    script = (
        "import json, sys\n"
        "from icx.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(icx.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.fixture(scope="module")
def interference_files(tmp_path_factory):
    """Interference K=6 U=0 D=1: feasible at L=1, with a scheme of 2^6 tuples."""
    tmp = tmp_path_factory.mktemp("interference")
    inst_path, scheme_path = str(tmp / "inst.json"), str(tmp / "scheme.json")
    save_instance(gen_neighboring_interference(6, 0, 1), inst_path)
    save_scheme(build_interference_scheme(6, 0, 1), scheme_path)
    return inst_path, scheme_path


# test id -> (argv, the modules it must not load); None means only the instance model
VERB_MODULE_CASES = {
    "gen": (["gen", "--family", "antidotes", "--K", "8", "--U", "1", "--D", "2"], None),
    "validate": (["validate", "{i}"], None),
    "check-feasibility": (["check-feasibility", "{i}", "--L", "1"], {"galois", "scheme", "oracle", "symmetric", "unicast"}),
    "bounds": (["bounds", "{i}"], {"galois", "scheme", "oracle", "symmetric", "unicast"}),
    "verify": (["verify", "{i}", "{s}"], {"alignment", "bounds", "oracle", "symmetric", "unicast"}),
    "simulate": (["simulate", "{i}", "{s}"], {"alignment", "bounds", "oracle", "symmetric", "unicast"}),
    "example": (["example", "2", "--verify", "--simulate"], {"alignment", "bounds", "oracle", "unicast"}),
    "transform": (["transform", "{i}", "--L", "1"], {"alignment", "bounds", "oracle", "symmetric"}),
    "oracle": (["oracle", "{i}", "--minrank"], {"alignment", "bounds", "symmetric", "unicast"}),
    "scheme-family": (
        ["scheme", "--family", "interference", "--K", "6", "--U", "0", "--D", "1"], {"alignment", "bounds", "oracle", "unicast"},
    ),
    "scheme-spread": (
        ["scheme", "--instance", "{i}", "--construction", "spread"], {"bounds", "oracle", "symmetric", "unicast"},
    ),
    "oracle-scalar-search": (["oracle", "{i}", "--scalar-search"], {"alignment", "bounds", "symmetric", "unicast"}),
}


@pytest.mark.parametrize("argv, absent", VERB_MODULE_CASES.values(), ids=list(VERB_MODULE_CASES))
def test_each_verb_loads_only_its_modules(interference_files, argv, absent):
    """A call imports its verb's icx modules only, and no verb loads
    dataclasses or inspect: the records are plain classes."""
    inst_path, scheme_path = interference_files
    code, loaded = loaded_modules([a.format(i=inst_path, s=scheme_path) for a in argv])
    modules = {m.removeprefix("icx.") for m in loaded if m.split(".")[0] == "icx"}
    assert code == 0
    if absent is None:
        assert modules == {"icx", "cli", "errors", "model"}
    else:
        assert {"icx", "cli", "errors", "model"} <= modules and not modules & absent
    assert not loaded & {"dataclasses", "inspect"}
    if argv[0] in ("gen", "validate", "check-feasibility"):  # only rates need fractions
        assert "fractions" not in loaded


def test_transform_verb(tmp_path, capsys, groupcast_m2k3):
    path = write_instance(tmp_path, groupcast_m2k3)
    code, out, _ = invoke(capsys, "transform", path, "--L", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["transformed"]["messages"] == 6
    assert len(obj["transformed"]["destinations"]) == 6
    assert obj["map"]["id_map"]["1,0"] == 1


def test_bounds_verb(tmp_path, capsys, infeasible_m4k3):
    path = write_instance(tmp_path, infeasible_m4k3)
    code, out, _ = invoke(capsys, "bounds", path)
    assert code == 0
    obj = json.loads(out)
    assert any(c["terms"] == [1, 2, 3, 4] for c in obj["chain"])
    assert all(set(c) == {"kind", "terms", "rhs", "provenance"} for c in obj["simple"])


def test_bounds_family_certificate(tmp_path, capsys):
    code, out, _ = invoke(capsys, "gen", "--family", "interference", "--K", "9", "--U", "1", "--D", "2", "--out", str(tmp_path / "i.json"))
    code, out, _ = invoke(capsys, "bounds", str(tmp_path / "i.json"), "--family")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"]["capacity_per_message"] == "1/3"
    assert obj["family"]["certificate"]["terms"] == [1, 2, 3]


def assert_one_line_error(code, out, err, expected_code, message):
    assert code == expected_code
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_bounds_family_rejects_tampered_tag(tmp_path, capsys):
    """An antidotes K=5 U=1 D=1 tag on destinations that hold every other
    message: the family certificate "sum R <= 2" would be violated by rate 1."""
    inst = make_instance(
        5, [({k}, {1, 2, 3, 4, 5} - {k}) for k in range(1, 6)],
        FamilyTag.make("neighboring-antidotes", K=5, U=1, D=1),
    )
    path = write_instance(tmp_path, inst)
    for argv in (["bounds", path, "--family"], ["bounds", path]):
        assert_one_line_error(
            *invoke(capsys, *argv), 2,
            "instance is not the neighboring-antidotes family K=5 U=1 D=1 that its tag names",
        )


@pytest.mark.parametrize("K, L", [(1, 2), (2, 2), (2, 4), (3, 3), (3, 4), (4, 4)])
def test_x_network_tag_needs_K_above_L(tmp_path, capsys, K, L):
    """At K <= L the X-network windows cover every message, and the genie set
    of the family certificate repeats messages (K=2 L=4 claimed capacity 1/10,
    which the uncoded rate 1/8 violates): validate lists the tag as a
    violation, and bounds refuses it, as for any tag its destinations miss."""
    path = write_instance(tmp_path, x_network_windows(K, L))
    message = f"instance is not the x-network family K={K} L={L} that its tag names"
    code, out, err = invoke(capsys, "validate", path)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"valid": False, "violations": [message], "messages": K * L}
    assert_one_line_error(*invoke(capsys, "bounds", path, "--family"), 2, message)


@pytest.mark.parametrize("value", ['"5"', "true"], ids=["string", "bool"])
@pytest.mark.parametrize("verb", ["validate", "bounds"])
def test_family_parameter_must_be_integer(tmp_path, capsys, verb, value):
    text = serialize_instance(gen_neighboring_antidotes(5, 1, 1)).replace('"K": 5', f'"K": {value}')
    assert f'"K": {value}' in text
    path = tmp_path / "inst.json"
    path.write_text(text, encoding="utf-8")
    argv = [verb, str(path)] + (["--family"] if verb == "bounds" else [])
    assert_one_line_error(*invoke(capsys, *argv), 1, f"{path}: family parameter 'K' must be an integer")


@pytest.mark.parametrize(
    "edit, names",
    [(lambda tag: tag.update(Z=9), "D, K, U, Z"), (lambda tag: tag.pop("D"), "K, U")],
    ids=["extra-Z", "no-D"],
)
@pytest.mark.parametrize("verb", ["validate", "bounds"])
def test_family_tag_names_exactly_its_parameters(tmp_path, capsys, verb, edit, names):
    """An antidotes tag with a parameter its family lacks, or without one it
    has, is refused when the file is read, before any verb runs."""
    obj = model.instance_to_json(gen_neighboring_antidotes(5, 1, 1))
    edit(obj["family"])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    argv = [verb, str(path)] + (["--family"] if verb == "bounds" else [])
    message = f"{path}: neighboring-antidotes tag must name exactly K, U, D, got {names}"
    assert_one_line_error(*invoke(capsys, *argv), 1, message)


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("flag", ["--maxN", "--budget"])
def test_chain_search_flags_must_be_positive(tmp_path, capsys, infeasible_m4k3, flag, value):
    path = write_instance(tmp_path, infeasible_m4k3)
    with pytest.raises(SystemExit) as exc:
        run(["bounds", path, "--chain", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected an integer >= 1" in captured.err.splitlines()[-1]
    assert "Traceback" not in captured.err


def test_bounds_budget_reports_progress(tmp_path, capsys):
    # states 1-3 are [1], [1, 2] and [1, 3], which share one certificate;
    # the fourth would be message 2 on its own
    path = write_instance(tmp_path, make_instance(3, [({m}, set()) for m in (1, 2, 3)]))
    assert_one_line_error(
        *invoke(capsys, "bounds", path, "--chain", "--maxN", "1", "--budget", "3"), 3,
        "chain enumeration exceeded 3 states (1 certificates found, 1 of 3 start messages begun)",
    )


@pytest.mark.parametrize(
    "flags, options",
    [
        (["--simple"], ["--L", "7", "--maxN", "9", "--budget", "3"]),
        (["--family"], ["--maxN", "2"]),
        (["--simple", "--family"], ["--L", "1", "--budget", "5"]),
    ],
)
def test_bounds_without_a_chain_search_refuses_its_options(tmp_path, capsys, flags, options):
    """Only the chain search reads --L, --maxN and --budget: a call that runs
    none refuses them rather than print what it prints without them."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    message = f"{' '.join(flags)} without --chain does not read {', '.join(options[::2])}"
    assert_one_line_error(*invoke(capsys, "bounds", path, *flags, *options), 2, message)
    code, out, _ = invoke(capsys, "bounds", path, *flags)
    assert code == 0 and "chain" not in json.loads(out)


def test_bounds_chain_options_need_an_L_on_a_non_uniform_instance(tmp_path, capsys):
    """With no flags, a non-uniform instance without --L gets no chain
    search, so a --maxN or --budget meant for it is refused."""
    path = write_instance(tmp_path, make_instance(3, [({1}, {2}), ({2, 3}, set())]))
    code, out, _ = invoke(capsys, "bounds", path)
    assert code == 0 and "chain" not in json.loads(out)
    for option in ("--maxN", "--budget"):
        message = "chain bounds need --L for non-uniform instances"
        assert_one_line_error(*invoke(capsys, "bounds", path, option, "2"), 2, message)


@pytest.mark.parametrize("options", [["--q", "3"], ["--n-max", "9"], ["--q", "3", "--n-max", "9"]])
def test_oracle_minrank_refuses_scalar_search_options(tmp_path, capsys, options):
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    message = f"--minrank does not read {', '.join(options[::2])}"
    assert_one_line_error(*invoke(capsys, "oracle", path, "--minrank", *options), 2, message)


def test_oracle_scalar_search_defaults_to_q2_n_max3(tmp_path, capsys):
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    explicit = invoke(capsys, "oracle", path, "--scalar-search", "--q", "2", "--n-max", "3")
    assert explicit[0] == 0
    assert invoke(capsys, "oracle", path, "--scalar-search") == explicit


def test_oracle_minrank_verb(tmp_path, capsys):
    invoke(capsys, "gen", "--family", "antidotes", "--K", "5", "--U", "1", "--D", "1", "--out", str(tmp_path / "p.json"))
    code, out, _ = invoke(capsys, "oracle", str(tmp_path / "p.json"), "--minrank")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 3
    assert obj["witness_scheme"]["n"] == 3


def test_oracle_scalar_search_verb(tmp_path, capsys):
    inst = make_instance(3, [({k}, set()) for k in (1, 2, 3)])
    path = write_instance(tmp_path, inst)
    code, out, _ = invoke(capsys, "oracle", path, "--scalar-search", "--q", "2", "--n-max", "2")
    assert code == 1  # not found
    assert json.loads(out)["value"] is None


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_oracle_scalar_search_n_max_must_be_positive(tmp_path, capsys, n_max):
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    assert_one_line_error(
        *invoke(capsys, "oracle", path, "--scalar-search", "--n-max", n_max), 2,
        f"n_max must be at least 1, got {n_max}",
    )


def test_example_verb_all(capsys):
    for eid, rate in [(1, "1/2"), (2, "2/5"), (3, "1/6")]:
        code, out, _ = invoke(capsys, "example", str(eid), "--verify")
        assert code == 0
        obj = json.loads(out)
        assert obj["claimed_rate"] == rate
        assert obj["verification"]["valid"] is True


def test_example_field_flag(capsys):
    code, out, _ = invoke(capsys, "example", "1", "--field", "gf2m=3", "--verify", "--simulate")
    assert code == 0
    obj = json.loads(out)
    assert obj["scheme"]["field"] == {"kind": "gf2m", "m": 3, "poly": 11}
    assert obj["simulation"]["ok"] is True


@pytest.mark.parametrize(
    "spec, reason",
    [
        ("p=4", "p=4 is not a prime in [2, 2^31)"),
        ("p=x", "p='x' is not an integer"),
        ("gf2m=40", "extension degree m=40 out of range [1, 32]"),
        ("q=3", "field must be p=<prime> or gf2m=<m>, got 'q=3'"),
    ],
    ids=["p-not-prime", "p-not-integer", "m-out-of-range", "kind-unknown"],
)
def test_example_bad_field_says_why(capsys, spec, reason):
    with pytest.raises(SystemExit) as exc:
        run(["example", "1", "--field", spec])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"icx example: error: argument --field: {reason}"


def test_example_3_over_gf8_verifies(capsys):
    """Its combiners hold -1, which over GF(2^3) is 1: the scheme is valid
    there, and the file shows only field elements."""
    code, out, _ = invoke(capsys, "example", "3", "--field", "gf2m=3", "--verify")
    assert code == 0
    obj = json.loads(out)
    assert obj["verification"]["valid"] is True
    assert obj["scheme"]["U"]["6@2"] == [[1, 0, 0, 1, 0, 1]]


def test_outputs_byte_identical(capsys, tmp_path):
    _, out1, _ = invoke(capsys, "example", "2", "--verify")
    _, out2, _ = invoke(capsys, "example", "2", "--verify")
    assert out1 == out2
    path = write_instance(tmp_path, make_instance(3, [({1}, {2}), ({2}, {1}), ({3}, {1, 2})]))
    _, b1, _ = invoke(capsys, "bounds", path)
    _, b2, _ = invoke(capsys, "bounds", path)
    assert b1 == b2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bogus-verb"])
    assert exc.value.code == 2
    code, _, err = invoke(capsys, "scheme", "--family", "antidotes")
    assert code == 2  # missing --K
    code, _, err = invoke(capsys, "verify", "/nonexistent/a.json", "/nonexistent/b.json")
    assert code == 2


def test_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = invoke(capsys, "check-feasibility", str(bad), "--L", "1")
    assert code == 1
    assert "error" in err


def test_help_text_is_pinned(capsys, monkeypatch):
    """Every help page, byte for byte.  Defaults left to the handlers must not
    show: argparse prints a default only where a help string asks for it."""
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for verb in ("", "gen", "validate", "check-feasibility", "scheme", "verify", "simulate",
                 "transform", "bounds", "oracle", "example"):
        argv = [verb, "--help"] if verb else ["--help"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        pages.append(f"$ icx {' '.join(argv)}\n{capsys.readouterr().out}")
    expected = (pathlib.Path(__file__).parent / "cli_help.txt").read_text(encoding="utf-8")
    assert "".join(pages) == expected


ONE_MESSAGE = '{"messages": 1, "destinations": [{"id": 1, "wants": [1], "has": []}]}\n'


@pytest.mark.parametrize(
    "n, V, message",
    [
        ("1", "[[1.5]]", "V[1]: entry 1.5 is not an integer"),
        ("1", "[[true]]", "V[1]: entry true is not an integer"),
        ("true", "[[1]]", "'n' must be a positive integer, got true"),
        ("1.0", "[[1]]", "'n' must be a positive integer, got 1.0"),
    ],
    ids=["entry-float", "entry-bool", "n-bool", "n-float"],
)
@pytest.mark.parametrize("verb", ["verify", "simulate"])
def test_scheme_numbers_must_be_integers(tmp_path, capsys, verb, n, V, message):
    inst_path, scheme_path = tmp_path / "inst.json", tmp_path / "scheme.json"
    inst_path.write_text(ONE_MESSAGE, encoding="utf-8")
    scheme_path.write_text(
        f'{{"field": {{"kind": "prime", "p": 3}}, "n": {n}, "V": {{"1": {V}}}}}\n', encoding="utf-8"
    )
    assert_one_line_error(*invoke(capsys, verb, str(inst_path), str(scheme_path)), 1, f"{scheme_path}: {message}")


@pytest.mark.parametrize("poly", [-7, -1, 0])
def test_scheme_poly_must_be_a_polynomial(tmp_path, poly):
    """A negative poly once sent the irreducibility test into an endless loop,
    and 0 was read as "the default", so the file read back as another poly.
    Run in a subprocess so a hang fails on the timeout."""
    inst_path, scheme_path = tmp_path / "inst.json", tmp_path / "scheme.json"
    inst_path.write_text(ONE_MESSAGE, encoding="utf-8")
    scheme_path.write_text(
        f'{{"field": {{"kind": "gf2m", "m": 2, "poly": {poly}}}, "n": 1, "V": {{"1": [[1]]}}}}\n', encoding="utf-8"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(icx.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "icx.cli", "verify", str(inst_path), str(scheme_path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    message = f"{scheme_path}: bad field spec: 'poly' must be a positive integer, got {poly}"
    assert_one_line_error(proc.returncode, proc.stdout, proc.stderr, 1, message)


@pytest.mark.parametrize(
    "verb, instance, scheme, message",
    [
        ("validate", {"messages": 100_000_000, "destinations": []}, None,
         "'messages' is 100000000, more than the limit of 10000"),
        ("validate", {"messages": 1, "destinations": [{"id": 1, "wants": [1], "has": []}] * 10_001},
         None, "10001 destinations, more than the limit of 10000"),
        ("verify", None, {"n": 10_001, "V": {"1": [[1]]}}, "'n' is 10001, more than the limit of 10000"),
        ("verify", None, {"n": 1, "V": {"1": [[0] * 1_000_001]}},
         "more than 1000000 matrix entries"),
        ("verify", None, {"n": 1, "V": [[1]]}, "'V' and 'U' must be objects"),
    ],
    ids=["messages", "destinations", "n", "matrix-entries", "V-list"],
)
def test_oversized_or_misshapen_files_one_line_error(tmp_path, capsys, verb, instance, scheme, message):
    inst_path, scheme_path = tmp_path / "inst.json", tmp_path / "scheme.json"
    inst_path.write_text(json.dumps(instance) if instance else ONE_MESSAGE, encoding="utf-8")
    if scheme is not None:
        scheme_path.write_text(json.dumps({"field": {"kind": "prime", "p": 2}, **scheme}), encoding="utf-8")
    argv = [verb, str(inst_path)] + ([str(scheme_path)] if verb == "verify" else [])
    bad_path = scheme_path if scheme is not None else inst_path
    assert_one_line_error(*invoke(capsys, *argv), 1, f"{bad_path}: {message}")


# argv ({t} is a directory holding inst.json, scheme.json, latin1.json and
# nested.json), the exit code and a piece of the one error line
UNREADABLE_CASES = {
    "instance-is-a-directory": (["validate", "{t}"], 2, "Is a directory"),
    "out-in-missing-directory": (["example", "1", "--out", "{t}/missing/out.json"], 2, "No such file or directory"),
    "out-is-a-directory": (["gen", "--family", "antidotes", "--K", "5", "--out", "{t}"], 2, "Is a directory"),
    "not-utf8": (["verify", "{t}/latin1.json", "{t}/scheme.json"], 1, "'utf-8' codec can't decode byte 0xe9"),
    "nested-instance": (["check-feasibility", "{t}/nested.json", "--L", "1"], 1, "invalid JSON: nested too deeply"),
    "nested-scheme": (["simulate", "{t}/inst.json", "{t}/nested.json"], 1, "invalid JSON: nested too deeply"),
}


@pytest.mark.parametrize("argv, code, message", UNREADABLE_CASES.values(), ids=UNREADABLE_CASES)
def test_unreadable_files_one_line_error(tmp_path, capsys, argv, code, message):
    save_instance(gen_neighboring_antidotes(5, 1, 1), str(tmp_path / "inst.json"))
    save_scheme(build_antidote_scheme(5, 1, 1), str(tmp_path / "scheme.json"))
    (tmp_path / "latin1.json").write_bytes('{"messages": "caf\u00e9"}'.encode("latin-1"))
    (tmp_path / "nested.json").write_text("[" * 200_000, encoding="utf-8")
    got, out, err = invoke(capsys, *[a.format(t=tmp_path) for a in argv])
    assert (got, out) == (code, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, err


def test_sampled_v_only_collision_exit_1(tmp_path, capsys):
    """Interference K=9 U=1 D=2 with V_1 moved onto V_2 has no decoders: the
    sampled run reports a colliding tuple, as the exhaustive run does."""
    inst_path, scheme_path = str(tmp_path / "inst.json"), str(tmp_path / "scheme.json")
    save_instance(gen_neighboring_interference(9, 1, 2), inst_path)
    built = build_interference_scheme(9, 1, 2)
    save_scheme(LinearScheme(built.field, built.n, {**built.V, 1: built.V[2]}), scheme_path)
    code, out, err = invoke(capsys, "simulate", inst_path, scheme_path)
    assert (code, err, json.loads(out)["ok"]) == (1, "", False)
    code, out, err = invoke(capsys, "simulate", inst_path, scheme_path, "--sample", "10")
    assert (code, err) == (1, "")
    obj = json.loads(out)
    assert obj["mode"] == "sampled" and obj["ok"] is False and obj["tuples_checked"] <= 10


SIMULATE_CALLS = {
    "simulate": ["simulate", "{i}", "{s}"],
    "scheme": ["scheme", "--family", "antidotes", "--K", "8", "--U", "1", "--D", "2", "--simulate"],
    "example": ["example", "1", "--simulate"],
}
BUDGET_CALLS = {"oracle": ["oracle", "{i}", "--minrank"]}


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("verb", sorted(BUDGET_CALLS))
def test_budget_must_be_positive(interference_files, capsys, verb, value):
    inst_path, scheme_path = interference_files
    argv = [a.format(i=inst_path, s=scheme_path) for a in BUDGET_CALLS[verb]]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--budget", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"argument --budget: expected an integer >= 1, got '{value}'")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("verb", sorted(SIMULATE_CALLS))
def test_simulation_takes_no_budget(interference_files, capsys, verb):
    """Simulation searches nothing, so its verbs have no --budget to pass."""
    inst_path, scheme_path = interference_files
    argv = [a.format(i=inst_path, s=scheme_path) for a in SIMULATE_CALLS[verb]]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--budget", "100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("unrecognized arguments: --budget 100")


@pytest.mark.parametrize("q", ["0", "1"])
def test_scalar_search_field_must_have_two_elements(tmp_path, capsys, q):
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 0, 1))
    assert_one_line_error(
        *invoke(capsys, "oracle", path, "--scalar-search", "--q", q), 2,
        f"q must be a prime in [2, 2^31), got {q}",
    )


@pytest.mark.parametrize("q", ["4", str(2**31 + 11)], ids=["not-prime", "past-2^31"])
def test_scalar_search_field_must_be_prime(tmp_path, capsys, q):
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 0, 1))
    assert_one_line_error(
        *invoke(capsys, "oracle", path, "--scalar-search", "--q", q), 2, f"q must be a prime in [2, 2^31), got {q}"
    )


def test_scalar_search_budget_stops_only_an_undecided_length(tmp_path, capsys):
    """The witness is the first scheme the search finds, so a budget that
    decides a length also answers; past the budget no length is decided, and
    none shorter has a scheme.  The pentagon over GF(3) answers 3 at node 19."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    argv = ["oracle", path, "--scalar-search", "--q", "3", "--n-max", "3", "--budget"]
    code, out, err = invoke(capsys, *argv, "48")
    assert (code, err) == (0, "")
    assert (json.loads(out)["value"], json.loads(out)["search_space_size"]) == (3, 1 + 4**4 + 13**4)
    assert_one_line_error(
        *invoke(capsys, *argv, "18"), 3, "scalar search exceeded 18 nodes (at n = 3; no scheme is shorter)"
    )


def test_scalar_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    """1,100 messages, one search level each: the search is a loop, not a recursion."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(1100, 0, 1098))
    code, out, err = invoke(capsys, "oracle", path, "--scalar-search", "--q", "2", "--n-max", "2")
    assert (code, err, json.loads(out)["value"]) == (0, "", 2)


def test_minrank_deeper_than_the_recursion_limit(tmp_path, capsys):
    """1,100 rows with one candidate each need 1,100 nodes: one fewer stops the search."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(1100, 0, 0))
    assert_one_line_error(
        *invoke(capsys, "oracle", path, "--minrank", "--budget", "1099"), 3,
        "minrank search exceeded 1099 nodes (no full matrix yet)",
    )


def test_long_search_space_size_is_written_exactly(tmp_path, capsys):
    """1 + 2004^1399 has 4,620 digits, past Python's default limit on int to
    str conversion; the output holds it exactly, and reading a file keeps the limit."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(1400, 0, 1398))
    code, out, err = invoke(capsys, "oracle", path, "--scalar-search", "--q", "2003", "--n-max", "2")
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        obj = json.loads(out)  # one JSON document
    finally:
        sys.set_int_max_str_digits(limit)
    assert (obj["value"], obj["search_space_size"]) == (2, 1 + 2004**1399)
    big = tmp_path / "big.json"
    big.write_text('{"messages": 1' + "0" * limit + ', "destinations": []}', encoding="utf-8")
    assert_one_line_error(
        *invoke(capsys, "validate", str(big)), 1, f"{big}: invalid JSON: an integer has more than {limit} digits"
    )


# argv with {i} and {s} for good instance and scheme files, and the bad file:
# {latin1}, an instance that is not UTF-8, or {cut}, a scheme cut short
NAMED_FILE_CASES = {
    "validate": ["validate", "{latin1}"],
    "check-feasibility": ["check-feasibility", "{latin1}", "--L", "1"],
    "transform": ["transform", "{latin1}", "--L", "1"],
    "bounds": ["bounds", "{latin1}"],
    "scheme": ["scheme", "--instance", "{latin1}", "--L", "1"],
    "oracle": ["oracle", "{latin1}", "--minrank"],
    "verify-instance": ["verify", "{latin1}", "{s}"],
    "simulate-instance": ["simulate", "{latin1}", "{s}"],
    "verify-scheme": ["verify", "{i}", "{cut}"],
    "simulate-scheme": ["simulate", "{i}", "{cut}"],
}
BAD_FILE_ERRORS = {
    "latin1": "'utf-8' codec can't decode byte 0xe9",
    "cut": "invalid JSON at line 1, column 11: Expecting value",
}


@pytest.mark.parametrize("argv", NAMED_FILE_CASES.values(), ids=NAMED_FILE_CASES)
def test_file_errors_name_the_file(tmp_path, capsys, argv):
    paths = {name: str(tmp_path / f"{name}.json") for name in ("i", "s", "latin1", "cut")}
    save_instance(gen_neighboring_antidotes(5, 1, 1), paths["i"])
    save_scheme(build_antidote_scheme(5, 1, 1), paths["s"])
    (tmp_path / "latin1.json").write_bytes('{"messages": "caf\u00e9"}'.encode("latin-1"))
    (tmp_path / "cut.json").write_text('{"field": ', encoding="utf-8")
    bad = next(a[1:-1] for a in argv if a[1:-1] in BAD_FILE_ERRORS)
    code, out, err = invoke(capsys, *[a.format(**paths) for a in argv])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {paths[bad]}: {BAD_FILE_ERRORS[bad]}"), err


@pytest.mark.parametrize(
    "argv, size",
    [
        (["gen", "--family", "interference", "--K", "30000000"], "30000000 messages, 30000000 destinations and 899999970000000"),
        (["gen", "--family", "antidotes", "--K", "100000000"], "100000000 messages, 100000000 destinations and 0"),
        (["gen", "--family", "xnetwork", "--K", "3000", "--L", "2"], "6000 messages, 3000 destinations and 17988000"),
        (["scheme", "--family", "antidotes", "--K", "20000", "--U", "1", "--D", "1"],
         "20000 messages, 20000 destinations and 40000"),
    ],
    ids=["gen-interference", "gen-antidotes", "gen-xnetwork", "scheme-antidotes"],
)
def test_family_generators_are_capped(capsys, argv, size):
    """Refused before anything is built, so no MemoryError even for K = 10^8."""
    assert_one_line_error(
        *invoke(capsys, *argv), 2,
        f"the instance would have {size} side-information entries; the limits are 10000, 10000 and 2000000",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["antidotes", "--K", "7", "--U", "1", "--D", "2"],
        ["antidotes", "--K", "6", "--U", "1", "--D", "3"],
        ["antidotes", "--K", "5", "--U", "2", "--D", "2"],
        ["interference", "--K", "6", "--U", "1", "--D", "2"],
        ["xnetwork", "--K", "6", "--L", "2"],
    ],
    ids=["antidotes", "antidotes-n2", "antidotes-n1", "interference", "xnetwork"],
)
def test_family_scheme_matrix_entries_are_capped(capsys, monkeypatch, argv):
    """scheme --family counts its entries from the options before building:
    at a limit of exactly that count the scheme is written and reads back,
    and one entry short it is refused."""
    code, out, _ = invoke(capsys, "scheme", "--family", *argv)
    assert code == 0
    obj = json.loads(out)["scheme"]
    entries = sum(len(row) for part in ("V", "U") for rows in obj.get(part, {}).values() for row in rows)
    monkeypatch.setattr("icx.scheme.MAX_MATRIX_ENTRIES", entries)
    code, out, _ = invoke(capsys, "scheme", "--family", *argv)
    assert code == 0 and scheme_from_json(json.loads(out)["scheme"]).n == obj["n"]
    monkeypatch.setattr("icx.scheme.MAX_MATRIX_ENTRIES", entries - 1)
    message = f"the scheme would have {entries} matrix entries, more than the limit of {entries - 1}"
    assert_one_line_error(*invoke(capsys, "scheme", "--family", *argv), 2, message)


@pytest.mark.parametrize(
    "argv, entries",
    [(["--K", "600", "--U", "2", "--D", "2"], 1_080_000), (["--K", "9000", "--U", "2", "--D", "2", "--verify"], 243_000_000)],
    ids=["K600", "K9000-verify"],
)
def test_family_scheme_past_the_file_cap_is_refused(capsys, argv, entries):
    """A scheme that load_scheme would refuse is not written: antidotes
    K=600 U=2 D=2 has n = 600 and 1,800 streams."""
    message = f"the scheme would have {entries} matrix entries, more than the limit of 1000000"
    assert_one_line_error(*invoke(capsys, "scheme", "--family", "antidotes", *argv), 2, message)


def test_alignment_edge_list_is_capped(tmp_path, capsys, monkeypatch):
    """Antidotes K=8 U=0 D=1 has 8 * C(6, 2) = 120 edges: listed at a limit of
    120, refused past it, and not needed for the verdict itself.  The bounds
    verb reads the cap from the instance, with no partition built."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(8, 0, 1))
    monkeypatch.setattr("icx.alignment.MAX_ALIGNMENT_EDGES", 120)
    code, out, _ = invoke(capsys, "check-feasibility", path, "--L", "1")
    assert code == 1 and len(json.loads(out)["partition"]["edges"]) == 120
    monkeypatch.setattr("icx.alignment.MAX_ALIGNMENT_EDGES", 119)
    message = "the alignment relation has 120 edges, more than the limit of 119"
    assert_one_line_error(*invoke(capsys, "check-feasibility", path, "--L", "1"), 2, message)
    code, out, _ = invoke(capsys, "scheme", "--instance", path, "--L", "1")
    assert (code, json.loads(out)) == (1, {"feasible": False, "witness": [1, 2, 2]})

    def built(*args):
        raise AssertionError("a partition was built")

    monkeypatch.setattr("icx.alignment.partition", built)
    assert_one_line_error(*invoke(capsys, "bounds", path, "--chain"), 2, message)
    assert_one_line_error(*invoke(capsys, "bounds", path), 2, message)


def test_simple_bound_pairs_are_capped(tmp_path, capsys, monkeypatch):
    """Antidotes K=8 U=0 D=1 has 8 * 7 = 56 ordered destination pairs:
    answered at a limit of 56, refused past it, also by bounds with no flags."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(8, 0, 1))
    monkeypatch.setattr("icx.bounds.MAX_SIMPLE_PAIRS", 56)
    code, out, _ = invoke(capsys, "bounds", path, "--simple")
    assert code == 0 and json.loads(out)["simple"]
    monkeypatch.setattr("icx.bounds.MAX_SIMPLE_PAIRS", 55)
    message = "simple bounds: 56 destination pairs, more than the limit of 55"
    assert_one_line_error(*invoke(capsys, "bounds", path, "--simple"), 2, message)
    assert_one_line_error(*invoke(capsys, "bounds", path), 2, message)
    code, out, _ = invoke(capsys, "bounds", path, "--family")
    assert code == 0 and "simple" not in json.loads(out)


def test_bounds_refuses_past_the_edge_cap_before_simple_bounds(tmp_path, capsys, monkeypatch):
    """With no flags, the chain search's edge cap is checked before any simple
    certificate is built: past both caps, the edge cap's error is the one printed."""
    from icx import bounds

    path = write_instance(tmp_path, gen_neighboring_antidotes(8, 0, 1))
    built, simple_bounds = [], bounds.simple_bounds
    monkeypatch.setattr(bounds, "simple_bounds", lambda inst: built.append(inst) or simple_bounds(inst))
    monkeypatch.setattr("icx.alignment.MAX_ALIGNMENT_EDGES", 119)
    monkeypatch.setattr("icx.bounds.MAX_SIMPLE_PAIRS", 55)
    message = "the alignment relation has 120 edges, more than the limit of 119"
    assert_one_line_error(*invoke(capsys, "bounds", path), 2, message)
    assert built == []


def test_bounds_lists_the_alignment_relation_once(tmp_path, capsys, monkeypatch):
    """With no flags, the pre-check before the simple section counts the
    relation from set sizes; only the chain search lists it."""
    from icx import alignment, bounds

    path = write_instance(tmp_path, gen_neighboring_antidotes(6, 0, 1))
    listed, edges = [], alignment.edges

    def counting(inst):
        listed.append(inst)
        return edges(inst)

    monkeypatch.setattr(alignment, "edges", counting)
    monkeypatch.setattr(bounds, "edges", counting)
    code, out, _ = invoke(capsys, "bounds", path)
    assert code == 0 and json.loads(out)["chain"] and len(listed) == 1


def test_validate_refuses_a_file_past_the_held_entries(tmp_path, capsys, monkeypatch):
    """Antidotes K=5 U=1 D=1 holds 10 messages in all: valid at a limit of 10, unread at 9."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    monkeypatch.setattr("icx.model.MAX_HELD_ENTRIES", 10)
    assert invoke(capsys, "validate", path)[0] == 0
    monkeypatch.setattr("icx.model.MAX_HELD_ENTRIES", 9)
    assert_one_line_error(*invoke(capsys, "validate", path), 1, f"{path}: more than 9 side-information entries")


def test_transform_counts_before_it_builds(tmp_path, capsys, monkeypatch):
    """Antidotes K=5 U=1 D=1 at L = 1 becomes 10 messages whose destinations
    hold 75 in all: printed at a limit of 75, refused at 74 before any of its
    destinations is built."""
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    monkeypatch.setattr("icx.model.MAX_HELD_ENTRIES", 75)
    code, out, _ = invoke(capsys, "transform", path, "--L", "1")
    transformed = json.loads(out)["transformed"]
    assert code == 0 and sum(len(d["has"]) for d in transformed["destinations"]) == 75
    monkeypatch.setattr("icx.model.MAX_HELD_ENTRIES", 74)
    built = []
    monkeypatch.setattr("icx.unicast.Destination", lambda *args: built.append(args))
    message = (
        "the instance would have 10 messages, 10 destinations and 75 side-information entries; "
        "the limits are 10000, 10000 and 74"
    )
    assert_one_line_error(*invoke(capsys, "transform", path, "--L", "1"), 2, message)
    assert built == []


@pytest.mark.parametrize(
    "inst, argv, message",
    [
        (lambda: gen_neighboring_antidotes(5001, 0, 0), ["transform", "{i}", "--L", "1"],
         "the instance would have 10002 messages, 10002 destinations and 75020001 side-information entries"),
        (lambda: gen_neighboring_antidotes(9000, 2, 2), ["transform", "{i}", "--L", "1"],
         "the instance would have 18000 messages, 18000 destinations and 243018000 side-information entries"),
        (lambda: gen_neighboring_antidotes(5, 0, 1), ["transform", "{i}", "--L", str(10**12)],
         "the instance would have 5 messages, 5000000000000 destinations and 5000000000000 side-information"),
        (lambda: make_instance(1000, [(set(range(1, 1001)), set())]), ["scheme", "--instance", "{i}", "--L", "1000"],
         "the scheme would have 1001000 matrix entries, more than the limit of 1000000"),
        *(
            (lambda: make_instance(5001, [(set(range(1, 5002)), set())] * 2), argv,
             "the instance would have 5001 messages, 10002 destinations and 0 side-information entries")
            for argv in (
                ["check-feasibility", "{i}", "--L", "1"],
                ["bounds", "{i}", "--chain", "--L", "1"],
                ["scheme", "--instance", "{i}", "--L", "1"],
            )
        ),
        *(
            (lambda: make_instance(10_000, [({k}, set()) for k in range(1, 10_001)]), argv,
             "the alignment relation has 499850010000 edges, more than the limit of 1000000")
            for argv in (["check-feasibility", "{i}", "--L", "1"], ["bounds", "{i}", "--chain", "--L", "1"])
        ),
    ],
    ids=[
        "transform-K5001", "transform-K9000", "transform-L1e12", "scheme-instance-L1000",
        "check-feasibility-normalized", "bounds-chain-normalized", "scheme-instance-normalized",
        "check-feasibility-sparse", "bounds-chain-sparse",
    ],
)
def test_verbs_on_an_instance_refuse_past_the_caps_within_a_second(tmp_path, capsys, inst, argv, message):
    """transform counts the instance it would print, scheme --instance the
    scheme, and every verb that normalizes the normalized instance, before
    building any of them.  One destination wanting all of 1,000 messages is
    feasible at L = 1000 with 1,000 singleton subsets, so its scalar scheme
    would take 1,000 MDS columns of length 1,001; two wanting all of 5,001
    normalize at L = 1 to 10,002 destinations.  10,000 destinations each
    wanting one of 10,000 messages and holding none have 10,000 * C(9999, 2)
    edges: the subsets are found in one walk over what the destinations list,
    and the edges counted from set sizes."""
    path = write_instance(tmp_path, inst())
    start = time.perf_counter()
    code, out, err = invoke(capsys, *[a.format(i=path) for a in argv])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


def _instance_sizes(obj) -> dict:
    return {
        "icx.model.MAX_MESSAGES": obj["messages"],
        "icx.model.MAX_DESTINATIONS": len(obj["destinations"]),
        "icx.model.MAX_HELD_ENTRIES": sum(len(d["has"]) for d in obj["destinations"]),
    }


def _scheme_sizes(obj) -> dict:
    # MAX_BLOCK_LENGTH is left alone: within the instance caps no builder's n
    # passes it unless its entries pass MAX_MATRIX_ENTRIES first
    rows = [row for part in ("V", "U") for mat in obj.get(part, {}).values() for row in mat]
    return {"icx.scheme.MAX_MATRIX_ENTRIES": sum(map(len, rows))}


INSTANCE, SCHEME = (load_instance, _instance_sizes), (load_scheme, _scheme_sizes)
FAMILY_SCHEME = {"scheme": SCHEME}
# argv ({i}: the instance beside it, written to a file) -> each key of the output
# that holds an instance or a scheme (None: the whole output), with its reader
# and the sizes that its caps bound
ARTEFACT_CASES = {
    "gen-antidotes": (["gen", "--family", "antidotes", "--K", "7", "--U", "1", "--D", "2"], None, {None: INSTANCE}),
    "gen-interference": (["gen", "--family", "interference", "--K", "6", "--U", "1", "--D", "2"], None, {None: INSTANCE}),
    "gen-xnetwork": (["gen", "--family", "xnetwork", "--K", "6", "--L", "2"], None, {None: INSTANCE}),
    "scheme-antidotes": (["scheme", "--family", "antidotes", "--K", "7", "--U", "1", "--D", "2"], None, FAMILY_SCHEME),
    "scheme-antidotes-n2": (["scheme", "--family", "antidotes", "--K", "6", "--U", "1", "--D", "3"], None, FAMILY_SCHEME),
    "scheme-antidotes-n1": (["scheme", "--family", "antidotes", "--K", "5", "--U", "2", "--D", "2"], None, FAMILY_SCHEME),
    "scheme-interference": (["scheme", "--family", "interference", "--K", "6", "--U", "1", "--D", "2"], None, FAMILY_SCHEME),
    "scheme-xnetwork": (["scheme", "--family", "xnetwork", "--K", "6", "--L", "2"], None, FAMILY_SCHEME),
    "scheme-scalar": (
        ["scheme", "--instance", "{i}", "--L", "2"],
        make_instance(4, [({1, 2}, set()), ({1, 3}, {4}), ({2, 4}, {3})]),
        {"scheme": SCHEME},
    ),
    "scheme-spread": (  # each destination holds the other four messages: five subsets, n = 4
        ["scheme", "--instance", "{i}", "--construction", "spread"],
        make_instance(5, [({k}, {1, 2, 3, 4, 5} - {k}) for k in range(1, 6)]),
        {"scheme": SCHEME},
    ),
    "transform": (
        ["transform", "{i}", "--L", "1"], gen_neighboring_antidotes(5, 1, 1), {"original": INSTANCE, "transformed": INSTANCE}
    ),
    "transform-L2": (["transform", "{i}", "--L", "2"], gen_x_network(6, 2), {"original": INSTANCE, "transformed": INSTANCE}),
}


@pytest.mark.parametrize("argv, inst, parts", ARTEFACT_CASES.values(), ids=ARTEFACT_CASES)
def test_what_a_verb_writes_reads_back_at_and_around_each_cap(tmp_path, capsys, monkeypatch, argv, inst, parts):
    """With each cap on what the verb writes set one below, at and one above
    the size of its output: at or above, the verb writes a file whose parts
    load_instance or load_scheme read back under the same cap; below, it exits
    2 with one line and writes nothing."""
    if inst is not None:
        argv = [a.format(i=write_instance(tmp_path, inst)) for a in argv]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    sizes = {}
    for key, (_, measure) in parts.items():
        for cap, size in measure(obj if key is None else obj[key]).items():
            sizes[cap] = max(size, sizes.get(cap, 0))
    out_path, part_path = tmp_path / "out.json", tmp_path / "part.json"
    for cap, size in sizes.items():
        for limit in (size - 1, size, size + 1):
            with monkeypatch.context() as patch:
                patch.setattr(cap, limit)
                code, out, err = invoke(capsys, *argv, "--out", str(out_path))
                if limit < size:
                    assert (code, out, len(err.splitlines()), out_path.exists()) == (2, "", 1, False), (cap, limit)
                    continue
                assert (code, out, err) == (0, "", ""), (cap, limit)
                written = json.loads(out_path.read_text(encoding="utf-8"))
                for key, (load, _) in parts.items():
                    part_path.write_text(json.dumps(written if key is None else written[key]), encoding="utf-8")
                    load(str(part_path))
                out_path.unlink()


@pytest.mark.parametrize("writer", ["--out", "save_instance", "save_scheme"])
def test_files_hold_exactly_the_serialized_text(tmp_path, capsys, writer):
    """--out writes the bytes the same call prints, and save_* the bytes of
    serialize_*: UTF-8 with "\\n" line ends only, over a longer old file."""
    path = tmp_path / "out.json"
    path.write_text("x" * 100_000, encoding="utf-8")
    if writer == "--out":
        argv = ["example", "2", "--verify", "--field", "gf2m=3"]
        _, text, _ = invoke(capsys, *argv)
        assert invoke(capsys, *argv, "--out", str(path)) == (0, "", "")
    elif writer == "save_instance":
        inst = gen_neighboring_antidotes(5, 1, 1)
        save_instance(inst, str(path))
        text = serialize_instance(inst)
    else:
        sch = build_antidote_scheme(5, 1, 1)
        save_scheme(sch, str(path))
        text = serialize_scheme(sch)
    data = path.read_bytes()
    assert data == text.encode("utf-8") and b"\r" not in data


def one_message_scheme(V, U='{"1@1": [[1]]}'):
    return f'{{"field": {{"kind": "prime", "p": 3}}, "n": 1, "V": {V}, "U": {U}}}\n'


# the file that is at fault, its text, and the error that follows its path
STRICT_KEY_CASES = {
    "instance-key-repeated": (
        "instance", '{"messages": 2, "destinations": [{"id": 1, "wants": [1], "has": []}], "messages": 1}',
        'invalid JSON: key "messages" repeated in one object',
    ),
    "destination-key-repeated": (
        "instance", '{"messages": 1, "destinations": [{"id": 1, "wants": [1], "has": [], "has": [1]}]}',
        'invalid JSON: key "has" repeated in one object',
    ),
    "V-key-repeated": (
        "scheme", one_message_scheme('{"1": [[1]], "1": [[0]]}'), 'invalid JSON: key "1" repeated in one object',
    ),
    "V-key-leading-zero": ("scheme", one_message_scheme('{"1": [[1]], "01": [[0]]}'), "V key '01' is not a message id"),
    "V-key-space": ("scheme", one_message_scheme('{" 1": [[1]]}'), "V key ' 1' is not a message id"),
    "V-key-plus": ("scheme", one_message_scheme('{"+1": [[1]]}'), "V key '+1' is not a message id"),
    "V-key-underscore": ("scheme", one_message_scheme('{"1_0": [[1]]}'), "V key '1_0' is not a message id"),
    "U-key-space": (
        "scheme", one_message_scheme('{"1": [[1]]}', '{"1@1": [[1]], " 1@1": [[2]]}'),
        "U key ' 1@1' is not of the form 'm@k'",
    ),
    "U-key-leading-zero": (
        "scheme", one_message_scheme('{"1": [[1]]}', '{"1@01": [[1]]}'), "U key '1@01' is not of the form 'm@k'",
    ),
    "instance-not-object": ("instance", "[]", "instance file must be a JSON object"),
    "destinations-not-list": ("instance", '{"messages": 1, "destinations": {}}', "'destinations' must be a list"),
    "family-without-kind": (
        "instance", '{"messages": 1, "destinations": [{"id": 1, "wants": [1], "has": []}], "family": {"K": 1}}',
        "family needs 'kind'",
    ),
    "destination-not-object": ("instance", '{"messages": 1, "destinations": [5]}', "destination #1 must be a JSON object"),
    "scheme-not-object": ("scheme", "[]", "scheme file must be a JSON object"),
    "scheme-key-unknown": (
        "scheme", '{"field": {"kind": "prime", "p": 3}, "n": 1, "V": {"1": [[1]]}, "W": 1}',
        "scheme file has unknown keys ['W']",
    ),
    "V-not-rows": ("scheme", one_message_scheme('{"1": 5}'), "V[1] must be a list of rows"),
    "V-ragged-rows": ("scheme", one_message_scheme('{"1": [[1], [1, 0]]}'), "V[1]: ragged rows"),
    "field-kind-unknown": (
        "scheme", '{"field": {"kind": "nope"}, "n": 1, "V": {"1": [[1]]}}', "bad field spec: unknown field kind 'nope'",
    ),
    "prime-spec-with-m": (
        "scheme", '{"field": {"kind": "prime", "p": 3, "m": 2}, "n": 1, "V": {"1": [[1]]}}',
        "bad field spec: prime spec has unknown keys ['m']",
    ),
    "gf2m-spec-with-p": (
        "scheme", '{"field": {"kind": "gf2m", "m": 3, "p": 7}, "n": 1, "V": {"1": [[1]]}}',
        "bad field spec: gf2m spec has unknown keys ['p']",
    ),
    "prime-spec-without-p": (
        "scheme", '{"field": {"kind": "prime"}, "n": 1, "V": {"1": [[1]]}}', "bad field spec: prime spec needs 'p'",
    ),
}


@pytest.mark.parametrize("bad, text, message", STRICT_KEY_CASES.values(), ids=STRICT_KEY_CASES)
def test_file_keys_are_strict(tmp_path, capsys, bad, text, message):
    """A repeated key, or a scheme id not written as icx writes it, would
    otherwise name a message the file does not show; a file whose shape is
    not an instance's or a scheme's (not an object, a list or a field that is
    not one, ragged rows, an unknown key or field kind) is refused by name."""
    paths = {"instance": tmp_path / "inst.json", "scheme": tmp_path / "scheme.json"}
    paths["instance"].write_text(ONE_MESSAGE, encoding="utf-8")
    paths["scheme"].write_text(one_message_scheme('{"1": [[1]]}'), encoding="utf-8")
    paths[bad].write_text(text, encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(paths["instance"]), str(paths["scheme"]))
    assert_one_line_error(code, out, err, 1, f"{paths[bad]}: {message}")


@pytest.mark.parametrize(
    "argv",
    [["check-feasibility", "--L", "0"], ["transform", "--L", "0"], ["bounds", "--chain", "--L", "0"]],
    ids=["check-feasibility", "transform", "bounds-chain"],
)
def test_demand_size_must_be_positive(tmp_path, capsys, argv):
    path = write_instance(tmp_path, gen_neighboring_antidotes(5, 1, 1))
    assert_one_line_error(*invoke(capsys, argv[0], path, *argv[1:]), 2, "L must be >= 1")


def test_decoder_mode_needs_combiners(tmp_path, capsys):
    inst_path, scheme_path = example1_files(tmp_path, capsys, lambda s: s.pop("U"))
    assert_one_line_error(
        *invoke(capsys, "verify", inst_path, scheme_path, "--mode", "decoder"), 2,
        "decoder mode requires combining matrices",
    )


@pytest.mark.parametrize(
    "dests, message",
    [
        ([({1, 2}, set())], "oracle requires single-demand destinations"),
        ([({1}, set())], "every message must be desired by exactly one destination"),
        ([({1}, set()), ({1}, {2})], "oracle requires a multiple unicast instance"),
        ([({1, 2}, set()), ({1}, set())], "oracle requires a multiple unicast instance"),
        ([], "every message must be desired by exactly one destination"),
    ],
    ids=["two-wanted", "one-unwanted", "wanted-twice", "wanted-twice-and-two-wanted", "no-destination"],
)
def test_minrank_needs_one_destination_per_message(tmp_path, capsys, dests, message):
    path = write_instance(tmp_path, make_instance(2, dests))
    assert_one_line_error(*invoke(capsys, "oracle", path, "--minrank"), 2, message)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda U: U.update({"9@1": U["1@1"]}), "U[9@1] refers to unknown message 9"),
        (lambda U: U.update({"1@1": U["1@1"][:1]}), "U[1@1] must be 2x5 over GF(2)"),
    ],
    ids=["unknown-message", "wrong-shape"],
)
def test_combiner_must_fit_its_message(tmp_path, capsys, edit, message):
    """Example 2: five messages, each sent on two streams of a length-5 code over GF(2)."""
    ex = json.loads(invoke(capsys, "example", "2")[1])
    edit(ex["scheme"]["U"])
    inst_path, scheme_path = tmp_path / "inst.json", tmp_path / "scheme.json"
    inst_path.write_text(json.dumps(ex["instance"]), encoding="utf-8")
    scheme_path.write_text(json.dumps(ex["scheme"]), encoding="utf-8")
    assert_one_line_error(
        *invoke(capsys, "verify", str(inst_path), str(scheme_path)), 1, f"{scheme_path}: {message}"
    )
