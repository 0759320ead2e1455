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
import threading
from fractions import Fraction
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


def _herglotz_calls(monkeypatch) -> dict:
    """Counts of the Herglotz stage's evaluate calls, the rows of each
    _path_faults pass and the leaf steps taken, as a run makes them."""
    calls = {"evaluate": 0, "_path_faults": [], "leaf_steps": []}
    real_evaluate, real_faults, real_step = (herglotz.evaluate, herglotz._path_faults,
                                             herglotz._rk4_step)

    def evaluate(*args):
        calls["evaluate"] += 1
        return real_evaluate(*args)

    def path_faults(chart, pts):
        calls["_path_faults"].append(len(pts))
        return real_faults(chart, pts)

    def rk4_step(*args):
        rows, moved = real_step(*args)
        calls["leaf_steps"].append(len(rows))
        return rows, moved

    monkeypatch.setattr(herglotz, "evaluate", evaluate)
    monkeypatch.setattr(herglotz, "_path_faults", path_faults)
    monkeypatch.setattr(herglotz, "_rk4_step", rk4_step)
    return calls


def test_screw_herglotz_call_budget(workloads, monkeypatch):
    """One screw run: three RK4 stages and at most two quadrature chunks
    evaluate, and every path check is one pass, over the 17 + 9n rows of
    each sample's two paths, 17 per leaf step and the 17 central-stencil
    rows of each sample and axis."""
    calls = _herglotz_calls(monkeypatch)
    case = workloads.generate("screw-eval", 11)[0][0]
    report, code = run_pipeline(load_config(case.config))
    assert code == 0 and report["tasks"]["herglotz"]["verdict"] == "isometric-verified"
    assert calls["evaluate"] <= 5
    count, n = case.config["samples"]["count"], 3
    (steps,) = calls["leaf_steps"]
    assert calls["_path_faults"] == [(17 + 9 * n) * count + 17 * steps + 17 * n * count]


def test_stencil_off_the_box_face_takes_a_second_pass(workloads, monkeypatch):
    """The conformal-4D sample of seed 843326373 at w = 0.999914 has no room
    for a central stencil along w: a second _path_faults pass tests its
    49-offset line alone, and the backward stencil still verifies the
    isometry."""
    calls = _herglotz_calls(monkeypatch)
    case = workloads.conformal4(Fraction(4), 8, 843326373)
    report, code = run_pipeline(load_config(case.config))
    assert code == 0 and report["tasks"]["herglotz"]["verdict"] == "isometric-verified"
    assert any(abs(p[3] - 0.999914) < 5e-7 for p in workloads.sample_points(case.config, []))
    count, n = 8, 4
    (steps,) = calls["leaf_steps"]
    assert calls["_path_faults"] == [(17 + 9 * n) * count + 17 * steps + 17 * n * count, 49]


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


_BUILDERS = ("diff", "mul", "add", "pow_")


def _count_builders(monkeypatch) -> dict:
    """Calls of the node builders and of the program compiler, counted in
    every package module that holds them."""
    calls = dict.fromkeys(_BUILDERS + ("_compile",), 0)
    for name in calls:
        real = getattr(movingframes.expression, name)

        def counting(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("movingframes")
                    and getattr(module, name, None) is real):
                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("name", ["screw-eval", "conformal4-build", "curvature-generic",
                                  "session-mix"])
def test_a_warm_pass_builds_nothing(workloads, monkeypatch, name):
    """A second pass over a workload's loaded configs, as the benchmark's
    warm pass, makes no diff, mul, add, pow_ or _compile call and interns no
    node: each metric keeps what was derived from it, and each root set its
    program.  Its reports equal the first pass's byte for byte."""
    configs = [load_config(case.config) for session in workloads.generate(name, 41, "tiny")
               for case in session]
    cold = [serialize_report(run_pipeline(config)[0]) for config in configs]
    calls, table = _count_builders(monkeypatch), len(movingframes.expression._TABLE)
    assert [serialize_report(run_pipeline(config)[0]) for config in configs] == cold
    assert calls == dict.fromkeys(_BUILDERS + ("_compile",), 0)
    assert len(movingframes.expression._TABLE) == table


@pytest.mark.parametrize("name", ["screw-eval", "conformal4-build", "curvature-generic",
                                  "session-mix"])
def test_workload_reports_are_json_dumps_text(workloads, name):
    """Every cold and warm report of a workload's configs is written as
    json.dumps(indent=2, sort_keys=True) writes it, and a newline."""
    configs = [load_config(case.config) for session in workloads.generate(name, 41, "tiny")
               for case in session]
    for _ in range(2):
        for config in configs:
            report = run_pipeline(config)[0]
            assert serialize_report(report) == json.dumps(report, indent=2,
                                                          sort_keys=True) + "\n"


def test_a_fresh_load_derives_the_same_nodes(workloads):
    """Loading a config's JSON again gives a new metric whose first run
    derives the very nodes of the first one: the derivatives of g and, keyed
    by the flow, g(V, V), u, the candidates and F."""
    for name in ("screw-eval", "session-mix"):
        for case in workloads.generate(name, 41, "tiny")[0]:
            first, again = load_config(case.config), load_config(case.config)
            assert first.metric is not again.metric
            run_pipeline(first)
            run_pipeline(again)
            assert again.metric._derived.keys() == first.metric._derived.keys()
            assert again.metric._derived == first.metric._derived   # Expr == is identity
            assert len(first.metric._derived) == (1 if first.flow is None else 2)


def test_threads_sharing_a_config_share_its_derivations(workloads, monkeypatch):
    """Four threads run one fresh config at once with a 1 us switch
    interval: every report has the same bytes as a run alone, and every
    thread's stages read the one value stored per key."""
    from movingframes import cli
    case = workloads.generate("conformal4-build", 41, "tiny")[0][0]
    alone = serialize_report(run_pipeline(load_config(case.config))[0])
    config, seen = load_config(case.config), []

    def recording(real, pick):
        def wrapper(*args):
            out = real(*args)
            seen.append(pick(out))
            return out
        return wrapper

    monkeypatch.setattr(cli, "curvature_package",
                        recording(cli.curvature_package, lambda fd: fd.dmetric))
    monkeypatch.setattr(cli, "analyze_flow",
                        recording(cli.analyze_flow, lambda fl: fl.adapted.f))
    barrier, reports = threading.Barrier(4), [None] * 4

    def run(k):
        barrier.wait(timeout=60)
        reports[k] = serialize_report(run_pipeline(config)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert reports == [alone] * 4
    store = config.metric._derived
    assert len(store) == 2 and len(seen) == 8
    assert all(s is store["dg"] or s is store[tuple(config.flow)][3] for s in seen)
    assert sum(s is store["dg"] for s in seen) == 4
