"""Machine speed, sampled while the program runs.

On a shared host the same Python code runs at a speed that changes many
times a second, as other tenants load the cores: a fixed piece of work can
take 1.7 times as long from one tenth of a second to the next.  That drift
is several times larger than the changes the benchmark should see.

``probe`` times a small fixed reference workload, shaped like the
workbench's numeric evaluation (a recursive walk over an expression tree of
small objects, with a memo dict, ``isinstance`` dispatch, ``math.fsum`` and
``math.exp``).  It imports nothing from ``movingframes``, so a change to the
program cannot change it.  ``Speedometer`` runs the probe from a SIGALRM
handler every ``INTERVAL_S`` seconds of wall time while a pipeline runs, so
the probes sample the machine's speed uniformly over the run.  The run did
``elapsed * mean(REFERENCE_S / probe)`` seconds of work at the reference
speed, the speed at which the probe takes ``REFERENCE_S``: that is the
calibrated time (``reference_seconds``).  The time spent in the handler is
left out of ``elapsed``.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import time

POINTS = 8              # tree evaluations per probe
INTERVAL_S = 0.05       # wall time between probes
REFERENCE_S = 0.0015    # probe time at the reference speed


class _Leaf:
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index


class _Sum:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms


class _Product:
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors


class _Exp:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


def _tree(rng: random.Random, depth: int, shared: list):
    if depth == 0:
        return _Leaf(rng.randrange(4))
    if shared and rng.random() < 0.1:
        return rng.choice(shared)           # common subtrees, as interning gives
    kind = rng.randrange(3)
    if kind == 2:
        node = _Exp(_Product([_tree(rng, depth - 1, shared), _Leaf(rng.randrange(4))]))
    else:
        parts = [_tree(rng, depth - 1, shared) for _ in range(rng.randrange(2, 4))]
        node = _Sum(parts) if kind == 0 else _Product(parts)
    shared.append(node)
    return node


_ROOT = _tree(random.Random(1008), 9, [])


def _evaluate(root, point) -> float:
    memo = {}

    def rec(x):
        out = memo.get(x)
        if out is not None:
            return out
        if isinstance(x, _Leaf):
            out = point[x.index]
        elif isinstance(x, _Sum):
            out = math.fsum(rec(t) for t in x.terms)
        elif isinstance(x, _Product):
            out = 1.0
            for f in x.factors:
                out *= rec(f)
        else:
            out = math.exp(math.tanh(rec(x.arg)))
        memo[x] = out
        return out

    return rec(root)


def probe() -> float:
    """Wall time of the fixed reference workload, in seconds."""
    enabled = gc.isenabled()
    gc.disable()        # neither collect the program's heap nor shift its collections
    try:
        start = time.perf_counter()
        for k in range(POINTS):
            _evaluate(_ROOT, (0.1 + k / POINTS, 0.5, -0.3, 0.25 * math.sin(k)))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Probe the machine's speed while the ``with`` body runs.

    After the block, ``elapsed`` is its wall time less the time spent
    probing, and ``probes`` holds the probe times; the first probe runs as
    the block starts, so there is always one.
    """

    def __init__(self):
        self.probes: list = []
        self.elapsed = 0.0
        self._probing = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe())
        self._probing += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._start - self._probing
        signal.signal(signal.SIGALRM, self._previous)
        return False


def reference_seconds(elapsed: float, probes: list) -> float:
    """``elapsed`` seconds of work, in seconds at the reference speed."""
    return elapsed * statistics.fmean(REFERENCE_S / p for p in probes)
