"""Report digests of the benchmark workloads, to check that a change keeps
every report byte-identical.

    python3 tools/report_digests.py run --seeds 1-30 --out DIGESTS.json
                                    [--src SRC] [--workloads W,...] [--size full|tiny]
    python3 tools/report_digests.py compare BEFORE.json AFTER.json
    python3 tools/report_digests.py check A_SRC B_SRC [--seeds 1-30]
                                    [--workloads W,...] [--size full|tiny]
    python3 tools/report_digests.py fields A_SRC B_SRC [--seeds 1-30]
                                    [--workloads W,...] [--size full|tiny]

``run`` draws the sessions of every seed of every workload from
``perfbench/workloads.generate`` (default: all four workloads) and runs each
session in a fresh interpreter with ``PYTHONHASHSEED=0``, one BLAS thread and
the package imported from SRC (default: ``src/`` of this checkout).  As the
benchmark's child process does, the interpreter loads every config of the
session once and runs them all twice through ``cli.run_pipeline``: a cold
pass, then a warm pass over the same loaded configs, which reuses the
symbolic caches and what each metric stored.  For each run it records
the exit code and the sha256 of ``cli.serialize_report``; a run that raises
records exit code 2, as ``workbench run`` gives, and the sha256 of the
exception's class name and message, so a changed first error shows too.
The output maps ``workload:seed:session`` to the runs' ``[pass, config,
code, sha256]`` in order.

``compare`` prints every session whose runs differ between two such files,
or that only one of them has, and exits 1 if there is any, else 0.
``check`` does both steps for a change: it runs the sessions of A_SRC and of
B_SRC with the same seeds, workloads and size, then compares them as
``compare`` does, with the same output and exit code.

``fields`` runs the same sessions of both sources, keeping each run's
report text, and prints for every session that differs each report field
that moved (a path such as ``tasks.flow.two_path_residual`` or
``checks[flow:rigidity].value``) with its largest |difference| and the
number of runs it moved in, then whether any exit code, verdict, flag or
string moved (a non-numeric field, a missing one, or a changed error
message).  The last lines sum every moved number over all sessions.  It
exits 0 when no session differs, 1 when only numbers moved (a roundoff-only
change) and 2 when an exit code, verdict, flag or string moved.  When the
comparison itself fails (a session interpreter that exits non-zero, a
source that cannot be read) it prints the error and exits 3, so that a
crash cannot read as the roundoff-only 1 that Python gives an uncaught
exception.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

# one session's runs, in a fresh interpreter: configs as JSON on stdin, the
# [pass, config, code, sha256] rows as JSON on stdout
_SESSION = """
import hashlib, json, sys
from movingframes import cli
configs = [cli.load_config(data) for data in json.load(sys.stdin)]
rows = []
for k in range(2):
    for i, config in enumerate(configs):
        try:
            report, code = cli.run_pipeline(config)
            text = cli.serialize_report(report)
        except Exception as exc:
            code, text = 2, f"{type(exc).__name__}: {exc}"
        rows.append([k, i, code, text if sys.argv[1:] == ["text"]
                     else hashlib.sha256(text.encode()).hexdigest()])
json.dump(rows, sys.stdout)
"""
_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}


def _seeds(text: str) -> list:
    """'1-3,7' -> [1, 2, 3, 7]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_session(src: Path, configs: list, text: bool = False) -> list:
    """The session's rows; with ``text`` each holds the report text itself."""
    env = dict(os.environ, PYTHONPATH=str(src), **_ENV)
    done = subprocess.run([sys.executable, "-c", _SESSION, *(["text"] if text else [])],
                          input=json.dumps(configs), env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"session interpreter exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def run(src: Path, names: list, seeds: list, size: str) -> dict:
    sessions = {}
    for name in names:
        for seed in seeds:
            for index, cases in enumerate(workloads.generate(name, seed, size)):
                key = f"{name}:{seed}:{index}"
                sessions[key] = run_session(src, [case.config for case in cases])
                print(key, file=sys.stderr)
    return {"src": str(src), "size": size, "sessions": sessions}


def _moved(a, b, path: str, numbers: dict, other: set):
    """Walk two parsed reports: the |difference| of every moved number goes
    to ``numbers[path]``, the path of every other moved value to ``other``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                _moved(a[key], b[key], sub, numbers, other)
            else:
                other.add(sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            label = (f"{x['task']}:{x['name']}" if isinstance(x, dict) and "task" in x
                     and "name" in x else i)
            _moved(x, y, f"{path}[{label}]", numbers, other)
    elif (type(a) in (int, float) and type(b) in (int, float)):
        if a != b and not (a != a and b != b):
            numbers.setdefault(path, []).append(abs(a - b))
    elif a != b or type(a) is not type(b):
        other.add(path)


def field_moves(a_rows: list, b_rows: list) -> tuple:
    """({path: [(|difference|, runs)]}, {non-numeric path: runs}) of one
    session's runs on two sources, report texts as ``run_session(text=True)``
    gives them; an exit code or a failing run's message is a non-numeric
    field of its own."""
    numbers, other = {}, {}
    if len(a_rows) != len(b_rows):
        return numbers, {"runs": 1}
    for (_, _, code_a, text_a), (_, _, code_b, text_b) in zip(a_rows, b_rows):
        run_numbers, run_other = {}, set()
        if code_a != code_b:
            run_other.add("exit code")
        try:
            _moved(json.loads(text_a), json.loads(text_b), "", run_numbers, run_other)
        except ValueError:                  # a failing run: its error message
            if text_a != text_b:
                run_other.add("error message")
        for path, deltas in run_numbers.items():
            largest, runs = numbers.get(path, (0.0, 0))
            numbers[path] = (max(largest, *deltas), runs + 1)
        for path in run_other:
            other[path] = other.get(path, 0) + 1
    return numbers, other


def fields(a_src: Path, b_src: Path, names: list, seeds: list, size: str) -> int:
    """Print the moved fields of every session that differs; 2 if anything
    non-numeric moved, else 1 if any session differs, else 0."""
    total, differ, sessions, moved_other = {}, 0, 0, False
    for name in names:
        for seed in seeds:
            for index, cases in enumerate(workloads.generate(name, seed, size)):
                configs = [case.config for case in cases]
                numbers, other = field_moves(run_session(a_src, configs, True),
                                             run_session(b_src, configs, True))
                sessions += 1
                if not (numbers or other):
                    continue
                differ += 1
                print(f"differs: {name}:{seed}:{index}")
                for path, (largest, runs) in sorted(numbers.items()):
                    print(f"  {path}  max |d| {largest:.3g}  runs {runs}")
                    was = total.get(path, (0.0, 0))
                    total[path] = (max(was[0], largest), was[1] + runs)
                for path, runs in sorted(other.items()):
                    print(f"  non-numeric moved: {path}  runs {runs}")
                moved_other = moved_other or bool(other)
    print("all sessions:")
    for path, (largest, runs) in sorted(total.items()):
        print(f"  {path}  max |d| {largest:.3g}  runs {runs}")
    print(f"{differ} of {sessions} sessions differ; exit codes, verdicts, flags and strings "
          f"{'moved' if moved_other else 'unchanged'}")
    return 2 if moved_other else 1 if differ else 0


def compare(before: dict, after: dict) -> list:
    """The sessions whose runs differ, or that only one side has."""
    a, b = before["sessions"], after["sessions"]
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def _sessions(parser: argparse.ArgumentParser):
    parser.add_argument("--seeds", default="1-30", help="e.g. 1-30 or 1,4,9")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")


def _run_args(src: Path, args) -> dict:
    return run(src.resolve(), args.workloads.split(","), _seeds(args.seeds), args.size)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="digest every run of the given seeds' sessions")
    _sessions(run_p)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--src", type=Path, default=ROOT / "src")
    cmp_p = sub.add_parser("compare", help="name every session that differs")
    cmp_p.add_argument("before")
    cmp_p.add_argument("after")
    chk_p = sub.add_parser("check", help="run two sources' sessions and compare them")
    chk_p.add_argument("a_src", type=Path)
    chk_p.add_argument("b_src", type=Path)
    _sessions(chk_p)
    fld_p = sub.add_parser("fields", help="print the report fields that moved between two sources")
    fld_p.add_argument("a_src", type=Path)
    fld_p.add_argument("b_src", type=Path)
    _sessions(fld_p)
    args = parser.parse_args(argv)
    if args.command == "fields":
        try:
            return fields(args.a_src.resolve(), args.b_src.resolve(), args.workloads.split(","),
                          _seeds(args.seeds), args.size)
        except Exception:
            traceback.print_exc()
            return 3
    if args.command == "run":
        result = _run_args(args.src, args)
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"{len(result['sessions'])} sessions, "
              f"{sum(map(len, result['sessions'].values()))} runs -> {args.out}")
        return 0
    if args.command == "check":
        sides = [_run_args(src, args) for src in (args.a_src, args.b_src)]
    else:
        sides = [json.loads(Path(p).read_text()) for p in (args.before, args.after)]
    differ = compare(*sides)
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(sides[0]['sessions'].keys() | sides[1]['sessions'].keys())} "
          "sessions differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
