"""Warm-pass A/B of two checkouts' packages in one interpreter.

    python3 tools/inprocess_ab.py A_SRC B_SRC --workload W --rounds K
                                  [--seed S] [--size full|tiny]

A_SRC and B_SRC are ``src`` directories.  Each package is loaded under its
own module name (``movingframes_a``, ``movingframes_b``; the package imports
itself relatively), so both live in this process at once.  The configs are
every session of ``perfbench/workloads.generate(W, S, size)``; each side
loads them with its own ``cli.load_config`` and runs them once to fill its
caches.  A run is ``cli.serialize_report(cli.run_pipeline(config)[0])``, the
work the benchmark's child times.  Then each round times one warm pass of
every config on both sides, in an order that alternates by round, and takes
the ratio B/A.  The output is each side's median pass time, the
median ratio with its lower and upper quartiles (inclusive method) and
the number of rounds in which B was faster.

Both sides share the interpreter, the allocator and the machine's drift
within a round, so the ratio shows what the code costs, apart from the
process layout that moves the benchmark's per-process timings.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def load(src: str, name: str):
    """The ``movingframes`` package of ``src`` imported as ``name``; its
    ``cli`` module."""
    init = Path(src).resolve() / "movingframes" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def warm_pass(cli, configs) -> float:
    """Seconds to run every config once and serialize its report."""
    start = time.perf_counter()
    for config in configs:
        cli.serialize_report(cli.run_pipeline(config)[0])
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES["full"]))
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    cases = [case for session in workloads.generate(args.workload, args.seed, args.size)
             for case in session]
    sides = []
    for src, name in ((args.a_src, "movingframes_a"), (args.b_src, "movingframes_b")):
        cli = load(src, name)
        configs = [cli.load_config(case.config) for case in cases]
        warm_pass(cli, configs)             # the cold pass fills the caches
        sides.append((cli, configs))
    times = ([], [])
    for k in range(args.rounds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[side].append(warm_pass(*sides[side]))
    ratios = [b / a for a, b in zip(*times)]
    print(f"{args.workload} seed {args.seed} ({args.size}, {len(cases)} configs), "
          f"{args.rounds} rounds")
    print(f"A median {statistics.median(times[0]) * 1e3:.3f} ms  "
          f"B median {statistics.median(times[1]) * 1e3:.3f} ms")
    low, median, high = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"median B/A {median:.4f} (quartiles {low:.4f}, {high:.4f}), "
          f"B lower in {sum(r < 1 for r in ratios)} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
