"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

A tiny-size pass of every workload must print every metric that
BENCHMARK.json names, with its unit, and end with no failed run.
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads
from calibrate import REFERENCE_S, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_pass_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "screw-eval", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs():
    a = workloads.generate("session-mix", 11)
    b = workloads.generate("session-mix", 11)
    c = workloads.generate("session-mix", 12)
    configs = [[case.config for case in s] for s in a]
    assert configs == [[case.config for case in s] for s in b]
    assert configs != [[case.config for case in s] for s in c]


@pytest.fixture(scope="module")
def screw_report():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from movingframes import cli
    finally:
        sys.path.pop(0)
    case = workloads.generate("screw-eval", 5, "tiny")[0][0]
    report, code = cli.run_pipeline(cli.load_config(case.config))
    return case, report, code


def test_oracle_accepts_correct_report(screw_report):
    case, report, code = screw_report
    assert workloads.check(case, report, code) == ([], [])


@pytest.mark.parametrize("mutation, failed, wrong", [
    ("flag", False, True), ("lambda", False, True), ("riemann", False, True),
    ("verdict", True, False), ("code", True, False)])
def test_oracle_rejects_wrong_report(screw_report, mutation, failed, wrong):
    case, report, code = screw_report
    report = copy.deepcopy(report)
    if mutation == "flag":
        report["tasks"]["classify"]["flat"] = False
    elif mutation == "lambda":
        report["tasks"]["herglotz"]["lambda"]["values_at_points"][1] *= 1 + 1e-6
    elif mutation == "verdict":
        report["tasks"]["herglotz"]["verdict"] = "inconsistent"
    elif mutation == "riemann":
        report["tasks"]["curvature"]["components_at_points"][0]["riemann"]["R_1212"] = 0.01
    else:
        code = 1
    failures, wrong_values = workloads.check(case, report, code)
    assert (bool(failures), bool(wrong_values)) == (failed, wrong)


def test_self_time_excludes_children_and_eval():
    spans = [
        {"id": 0, "name": "run", "start": 0.0, "end": 10.0, "parent": None,
         "run": "pass0", "leaf": {}, "points": None},
        {"id": 1, "name": "submersion.analyze_flow", "start": 1.0, "end": 9.0,
         "parent": 0, "run": "pass0", "leaf": {"eval_at.s": 2.0, "eval_at.calls": 4},
         "points": None},
        {"id": 2, "name": "submersion.covariant_derivative", "start": 2.0, "end": 5.0,
         "parent": 1, "run": "pass0", "leaf": {}, "points": None},
        {"id": 3, "name": "submersion.covariant_derivative", "start": 2.0, "end": 5.0,
         "parent": 0, "run": "pass1", "leaf": {}, "points": None},
    ]
    m = tracer.layer_metrics({"spans": spans, "extra": {}})
    assert m["submersion.analyze_flow.eval_s"] == 2.0
    assert m["submersion.analyze_flow.build_s"] == 8.0 - 3.0 - 2.0
    assert m["submersion.covariant_derivative.s"] == 3.0     # warm pass excluded
    assert m["submersion.covariant_derivative.calls"] == 1
    assert m["expression.eval_at.calls"] == 4


def _sample(results):
    return run.Sample({"setup_s": 0.1, "results": [
        dict(zip(("pass", "config", "pipeline_s", "probes", "code", "error", "digest",
                  "report"), r)) for r in results]}, 40.0)


def test_time_is_converted_at_the_sampled_speed():
    half = 2 * REFERENCE_S                  # probes at half the reference speed
    sample = _sample([(0, 0, 1.5, [half, half], 0, None, "d", None),
                      (1, 0, 2.0, [REFERENCE_S, half], 0, None, "d", None)])
    assert sample.pass_total(0) == pytest.approx(0.75)
    assert sample.pass_total(1) == pytest.approx(2.0 * 0.75)
    assert sample.pass_total(1, "pipeline_s") == 2.0


def test_speedometer_leaves_probing_out_of_the_elapsed_time():
    with Speedometer() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
    assert len(speed.probes) >= 5
    assert speed.elapsed == pytest.approx(0.3 - sum(speed.probes), abs=0.02)


def test_a_failing_config_counts_once_however_often_it_runs():
    verdicts = run.Verdicts(workloads.generate("screw-eval", 5, "tiny"))
    error = "PathError: integration path leaves the domain box"
    for _ in range(3):
        verdicts.check(1, _sample([(0, 0, 1.0, [0.1], 2, error, "e", None),
                                   (1, 0, 1.0, [0.1], 2, error, "e", None)]), "untraced")
    assert (verdicts.attempted, verdicts.failed, verdicts.wrong) == (1, 1, 0)
    assert len(verdicts.problems()) == 3   # the error, no report, exit code on pass 1


def test_balanced_weighs_every_session_alike():
    samples = []
    for session, value in [(0, 1.0), (0, 1.0), (0, 1.0), (1, 3.0)]:
        samples.append(_sample([]))
        samples[-1].session = session
        samples[-1].rss_mb = value
    assert run.balanced(samples, lambda s: s.rss_mb) == 2.0
