"""Workbench benchmark: time to verdict on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/`` of the checkout that holds this file.  The seed draws the configs
(``workloads.py``), which are written to a scratch directory in the checkout
before timing starts.  Each sample is a fresh interpreter (``child.py``)
that runs every config twice: a cold pass, as ``workbench run`` gets it, and
a warm pass that reuses the symbolic caches.  Samples run one at a time, in
a closed loop, while another one fits into S seconds, and every config runs
at least once; with ``--trace 0`` the rest of S goes to set-up-only spawns,
so ``setup_s`` is a median over several set-ups.

Pipeline times are calibrated (``calibrate.py``): the child samples the
machine's speed with a small fixed reference workload every 50 ms while a
pipeline runs, and the run's time is converted to seconds at a fixed
reference speed.  On a shared host this removes most of the drift in
machine speed, which is several times larger than the changes the
benchmark should see.  ``setup_s`` (mostly process start and imports) is
reported as measured.

Every report goes through the oracle in ``workloads.py``.  An operation is
one generated config: ``attempted`` counts the configs, ``failed`` those with
a problem in any of their runs, and ``correct`` is false when an output is
wrong, that is a value the oracle refutes or a report digest that differs
between runs of one config.  The program is deterministic, so repeated runs
of a config repeat its verdict, and the counts depend on the seed alone.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced samples and prints the per-layer metrics
(``tracer.py``) and the layer shares of the traced cold pass.  The last line
of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads
from calibrate import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170.0     # a run must end within 180 s
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(SRC),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
END_TO_END = [("pipeline_s", "s"), ("warm_pipeline_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


class Sample:
    """What one child process reported, plus its peak RSS."""

    def __init__(self, out: dict, rss_mb: float):
        self.setup_s = out["setup_s"]
        self.results = out["results"]
        self.rss_mb = rss_mb
        self.layers = None      # per-layer metrics of a traced sample
        self.session = None     # index of the session it ran
        for r in self.results:
            r["calibrated_s"] = reference_seconds(r["pipeline_s"], r["probes"])

    def pass_total(self, k: int, key: str = "calibrated_s") -> float:
        return sum(r[key] for r in self.results if r["pass"] == k)


def spawn(work: Path, configs: list, passes: int, trace_file: str, deadline: float) -> Sample:
    """Run child.py once and wait for it; BenchError if it did not finish cleanly."""
    timeout = max(1.0, deadline - time.monotonic())
    env = dict(os.environ, **CHILD_ENV)
    with open(work / "child-stderr.txt", "w+", encoding="utf-8") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(spawned_at), str(passes),
             trace_file, *map(str, configs)],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:           # interrupted: take the child down too
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"child exited with {proc.returncode}:\n{err.read()[-2000:]}")
    result = json.loads(out)
    if not Path(result["source"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported movingframes from {result['source']}, not {SRC}")
    return Sample(result, usage.ru_maxrss / 1024.0)


class Verdicts:
    """Oracle results over every pipeline run of one benchmark run.

    An operation is one config of one session; all of its runs must pass.
    ``failed`` counts the configs with any problem.  ``wrong`` counts those
    whose output itself is refuted: a value or flag the oracle contradicts,
    or a report digest that differs between runs of the config.  A config
    whose runs only ended without the expected verdict (exit code, Herglotz
    verdict, an exception) is failed but not wrong.
    """

    def __init__(self, sessions: list):
        self.sessions = sessions
        self.digests: dict = {}         # (session, config) -> first digest seen
        self.failures: dict = {}        # (session, config) -> problems, once each
        self.wrongs: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.digests)

    @property
    def failed(self) -> int:
        return sum(bool(self.failures[key] or self.wrongs[key]) for key in self.digests)

    @property
    def wrong(self) -> int:
        return sum(bool(self.wrongs[key]) for key in self.digests)

    def problems(self) -> list:
        lines = []
        for (j, i) in sorted(self.digests):
            label = self.sessions[j][i].label
            lines += [f"FAILED {label}: {p}" for p in self.failures[j, i]]
            lines += [f"WRONG {label}: {p}" for p in self.wrongs[j, i]]
        return lines

    def check(self, session: int, sample: Sample, kind: str):
        for r in sample.results:
            key = (session, r["config"])
            case = self.sessions[session][r["config"]]
            failures, wrong = [], []
            if r["error"] is not None:
                failures.append(r["error"])
            if r["pass"] == 0:
                f, w = workloads.check(case, r["report"], r["code"])
                failures += f
                wrong += w
            elif r["code"] != 0:
                failures.append(f"exit code {r['code']} on pass {r['pass']}")
            first = self.digests.setdefault(key, r["digest"])
            if r["digest"] != first:
                wrong.append(f"report digest {r['digest']} differs from {first} "
                             f"({kind} sample, pass {r['pass']})")
            for seen, new in ((self.failures.setdefault(key, []), failures),
                              (self.wrongs.setdefault(key, []), wrong)):
                seen += [p for p in new if p not in seen]


def balanced(samples: list, value) -> float:
    """Mean over sessions of the median of ``value`` over each session's
    samples, so every session weighs the same whatever its sample count."""
    by_session: dict = {}
    for sample in samples:
        by_session.setdefault(sample.session, []).append(value(sample))
    return statistics.fmean(statistics.median(v) for v in by_session.values())


def measure(args, work: Path, sessions: list) -> tuple:
    files = []
    for j, session in enumerate(sessions):
        files.append([])
        for i, case in enumerate(session):
            path = work / f"config-{j}-{i}.json"
            path.write_text(json.dumps(case.config, indent=2), encoding="utf-8")
            files[j].append(path)

    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    deadline = started + args.seconds
    spawn(work, files[0], 0, "-", limit)           # warm the bytecode and file caches
    setups = []
    verdicts = Verdicts(sessions)
    untraced, traced = [], []
    while True:
        t0 = time.monotonic()
        j = len(untraced) % len(sessions)
        sample = spawn(work, files[j], 2, "-", limit)
        sample.session = j
        verdicts.check(j, sample, "untraced")
        untraced.append(sample)
        setups.append(sample.setup_s)
        if args.trace:
            trace_file = work / f"trace-{len(traced)}.json"
            sample = spawn(work, files[j], 2, str(trace_file), limit)
            verdicts.check(j, sample, "traced")
            sample.layers = tracer.layer_metrics(json.loads(trace_file.read_text()))
            traced.append(sample)
        now = time.monotonic()
        # stop when the next iteration would overrun, once every session ran
        if len(untraced) >= len(sessions) and now + (now - t0) > deadline:
            break
    # the time no further sample fits into goes to set-up-only spawns
    while not args.trace and time.monotonic() + 2 * statistics.median(setups) < deadline:
        setups.append(spawn(work, files[0], 0, "-", limit).setup_s)

    if args.trace:
        metrics = {name: statistics.median(s.layers[name] for s in traced)
                   for name, _ in tracer.metric_names() if name != "trace.overhead_s"}
        # traced and untraced samples of one iteration ran the same configs
        metrics["trace.overhead_s"] = statistics.median(
            t.pass_total(0) - u.pass_total(0) for t, u in zip(traced, untraced))
        units = dict(tracer.metric_names())
        # span times are as measured, so their shares are of the measured pass
        notes = [tracer.shares(metrics, statistics.median(
            s.pass_total(0, "pipeline_s") for s in traced))]
    else:
        metrics = {
            "pipeline_s": balanced(untraced, lambda s: s.pass_total(0)),
            "warm_pipeline_s": balanced(untraced, lambda s: s.pass_total(1)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": balanced(untraced, lambda s: s.rss_mb),
        }
        units = dict(END_TO_END)
        notes = []
    samples = len(untraced) + len(traced)
    return {k: (v, units[k]) for k, v in metrics.items()}, verdicts, samples, len(setups), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' shrinks the sample counts for the self-test")
    args = parser.parse_args(argv)
    # a terminated run unwinds, so it kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "movingframes" / "cli.py").is_file():
        print(f"perfbench: no movingframes sources under {SRC}", file=sys.stderr)
        return 2

    sessions = workloads.generate(args.workload, args.seed, args.size)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            metrics, verdicts, samples, setups, notes = measure(args, Path(tmp), sessions)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {samples} samples, "
          f"{setups} set-ups, {verdicts.attempted} configs, {verdicts.failed} failed "
          f"(failed_frac {verdicts.failed / verdicts.attempted:.4g}), {verdicts.wrong} wrong")
    for (j, i), digest in sorted(verdicts.digests.items()):
        print(f"  config {j}.{i} {sessions[j][i].label}: report sha256 {digest}")
    for line in verdicts.problems() + notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": verdicts.wrong == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
