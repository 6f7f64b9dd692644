"""Tests of the benchmark itself (not of icx): run from the repository root with

    python -m pytest perfbench/tests -q

They use the --tiny inputs, so each workload finishes in a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tampered_pin_drives_fail_frac_above_zero(tmp_path, monkeypatch, capsys):
    with open(worker.EXPECTED, encoding="utf-8") as fh:
        pins = json.load(fh)
    name = next(n for n in pins["simulate"] if n.startswith("collision-interference-K6"))
    pins["simulate"][name]["tuples_checked"] += 1
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(pins))
    monkeypatch.setattr(worker, "EXPECTED", str(tampered))
    monkeypatch.chdir(ROOT)

    assert worker.main(["--workload", "simulate", "--seconds", "0", "--trace", "1", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["metrics"]["fail_frac"][0] > 0
    assert any(p.startswith(name) for p in result["problems"])


def test_tracer_patches_imported_bindings_and_restores_them():
    from icx import oracle, scheme, unicast

    original = scheme._independent_rows
    assert unicast._independent_rows is original
    t = tracer.Tracer()
    handle = tracer.install(t)
    try:
        assert unicast._independent_rows is not original
        assert scheme._independent_rows is unicast._independent_rows
        assert hasattr(oracle.LinearScheme.__init__, "__wrapped_by_perfbench__")
        t.job = 0
        inst, sch = _small_case()
        scheme.verify(inst, scheme.synthesize_decoders(inst, sch))
        t.job = None
    finally:
        handle.restore()
    assert unicast._independent_rows is original
    assert not hasattr(oracle.LinearScheme.__init__, "__wrapped_by_perfbench__")
    assert tracer.check_restored() == []
    names = {s[0] for s in t.spans}
    assert {"scheme.verify", "scheme._independent_rows", "scheme.LinearScheme.__init__",
            "galois.Matrix.rank"} <= names
    metrics, problems, _ = tracer.layer_metrics(t.spans, {0: max(s[3] for s in t.spans) - min(s[2] for s in t.spans)})
    assert problems == []
    assert metrics["scheme.verify_calls"][0] == 1
    assert metrics["galois.elim_calls"][0] > 0


def _small_case():
    from icx import model, symmetric

    return model.gen_neighboring_antidotes(6, 1, 2), symmetric.build_antidote_scheme(6, 1, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
