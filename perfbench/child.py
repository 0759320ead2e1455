"""One benchmark sample, run in a fresh interpreter.

    python3 child.py SPAWNED_AT PASSES TRACE_FILE CONFIG...

SPAWNED_AT is the parent's ``time.monotonic()`` just before the spawn, so the
set-up time covers interpreter start, ``import movingframes`` and
``cli.load_config`` of the first config.  PASSES is 0 for a set-up-only
spawn; otherwise every config runs through ``cli.run_pipeline`` and
``cli.serialize_report`` that many times in this one process.  TRACE_FILE is
``-`` for an untraced sample, else the path the layer trace is written to.
Each pipeline run is timed by ``calibrate.Speedometer``, which also samples
the machine's speed while it runs; in a traced sample the spans hold the
speed probes that land in them, a few per cent of their time.  The result
is one JSON line on stdout.
"""

import contextlib
import hashlib
import json
import sys
import time


def main(argv):
    spawned_at, passes, trace_file, paths = float(argv[0]), int(argv[1]), argv[2], argv[3:]
    from movingframes import cli, expression
    tracer = None
    if trace_file != "-":
        from tracer import CACHES, Tracer
        tracer = Tracer()
        tracer.install()
    root = tracer.root if tracer else lambda run: contextlib.nullcontext()
    configs = []
    setup_s = None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        with root("load"):
            configs.append(cli.load_config(data))
        if setup_s is None:
            setup_s = time.monotonic() - spawned_at
        if passes == 0:
            break
    from calibrate import Speedometer
    results = []
    for k in range(passes):
        for i, config in enumerate(configs):
            with Speedometer() as speed, root(f"pass{k}"):
                text, report, code, error = _run(cli, config)
            results.append({"pass": k, "config": i, "pipeline_s": speed.elapsed,
                            "probes": speed.probes, "code": code, "error": error,
                            "digest": hashlib.sha256(text.encode()).hexdigest(),
                            "report": report if k == 0 else None})
    if tracer is not None:
        tracer.write(trace_file, {name: len(getattr(expression, attr))
                                  for name, attr in CACHES.items()})
    json.dump({"source": cli.__file__, "setup_s": setup_s, "results": results}, sys.stdout)
    sys.stdout.write("\n")


def _run(cli, config):
    """(report text, report, exit code, error) as ``workbench run`` would give."""
    try:
        report, code = cli.run_pipeline(config)
        return cli.serialize_report(report), report, code, None
    except Exception as exc:  # any exception is a failed run, not a crash
        return "", None, 2, f"{type(exc).__name__}: {exc}"


if __name__ == "__main__":
    main(sys.argv[1:])
