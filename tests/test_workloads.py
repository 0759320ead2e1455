"""The benchmark's workloads through the pipeline: its oracle, lambda accuracy
and the Herglotz stage's call budget.

``perfbench/workloads.py`` is loaded from its file, read-only, the way the
benchmark loads it, so an oracle break shows here before benchmark time.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import movingframes
from movingframes import herglotz
from movingframes.cli import load_config, run_pipeline, serialize_report

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def runs(workloads):
    """seed -> [(workload, case, report as written, exit code)] at full size,
    each session's configs in order in this process."""
    cache = {}

    def get(seed):
        if seed not in cache:
            cache[seed] = []
            for name in workloads.WORKLOADS:
                for session in workloads.generate(name, seed):
                    for case in session:
                        report, code = run_pipeline(load_config(case.config))
                        cache[seed].append((name, case, json.loads(serialize_report(report)),
                                            code))
        return cache[seed]

    return get


def test_oracle_accepts_every_seed_11_run(workloads, runs):
    for name, case, report, code in runs(11):
        assert workloads.check(case, report, code) == ([], []), (name, case.label)


@pytest.mark.parametrize("seed", [11, 23])
def test_lambda_matches_the_flow_norm(workloads, runs, seed):
    """Every flow here is Killing, so lambda = |V|_g / |V|_g(basepoint)."""
    checked = 0
    for name, case, report, _ in runs(seed):
        if "herglotz" not in case.config["tasks"]:
            continue
        num = workloads._Numeric(case.config)
        base = num.flow_norm(case.config["basepoint"])
        values = report["tasks"]["herglotz"]["lambda"]["values_at_points"]
        points = workloads.sample_points(case.config, case.exclusions)
        assert len(values) == len(points)
        for value, p in zip(values, points):
            want = num.flow_norm(p) / base
            assert abs(value - want) <= 1e-11 * want, (name, case.label, list(p))
        checked += 1
    assert checked >= 10


def test_screw_herglotz_call_budget(workloads, monkeypatch):
    """One screw run: three RK4 stages and at most two quadrature chunks
    evaluate, and every path check is one pass."""
    calls = {"evaluate": 0, "_path_faults": 0}
    for name in calls:
        original = getattr(herglotz, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(herglotz, name, counted)
    case = workloads.generate("screw-eval", 11)[0][0]
    report, code = run_pipeline(load_config(case.config))
    assert code == 0 and report["tasks"]["herglotz"]["verdict"] == "isometric-verified"
    assert calls["evaluate"] <= 5
    assert calls["_path_faults"] == 1


# runs the configs given as one JSON list in order, one report per line
_SESSION = ("import json, sys\n"
            "from movingframes.cli import load_config, run_pipeline, serialize_report\n"
            "for cfg in json.loads(sys.argv[1]):\n"
            "    print(json.dumps(serialize_report(run_pipeline(load_config(cfg))[0])))\n")


def _fresh_process(configs: list) -> list:
    """The report text of each config, run in order in one new interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(movingframes.__path__[0])] + sys.path))
    out = subprocess.run([sys.executable, "-c", _SESSION, json.dumps(configs)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_session_mix_reports_do_not_depend_on_process_history(workloads):
    """Each session-mix config of seeds 11 and 23 gives the same report bytes
    after the configs before it in one process as alone in a fresh one.
    add and mul still order terms by creation uid (ROADMAP item 4), so this
    holds only while no stage interns a node, first made by an earlier
    config of these sessions, whose term order a later report shows."""
    moved = []
    for seed in (11, 23):
        (session,) = workloads.generate("session-mix", seed)
        configs = [case.config for case in session]
        for case, report in zip(session, _fresh_process(configs)):
            if _fresh_process([case.config]) != [report]:
                moved.append((seed, case.label))
    assert not moved
