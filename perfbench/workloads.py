"""Seeded workload configs and the independent output oracle.

Every workload is a list of ``Case`` objects drawn from a seed.  A case holds
the exact JSON config the workbench receives and the facts the oracle checks
its report against.  The oracle never imports ``movingframes``: it evaluates
the config's own expression strings with Python's ``math`` module and
re-derives everything from them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

ALL_TASKS = ["curvature", "classify", "flow", "herglotz", "ricci-flat"]


@dataclass
class Case:
    label: str
    config: dict
    flags: dict                 # expected classification flags
    exclusions: list = field(default_factory=list)   # point -> True if excluded


# --------------------------------------------------------------------------
# families: config plus the classification the geometry dictates
# --------------------------------------------------------------------------

def _rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"({q.numerator}/{q.denominator})"


def screw(omega: Fraction, count: int, seed: int) -> Case:
    """The README screw flow omega*(-y, x, 1) in flat R^3 (Killing)."""
    w = "" if omega == 1 else f"{_rational(omega)}*"
    config = {
        "schema_version": "1",
        "chart": {"coordinates": ["x", "y", "z"], "signature": [1, 1, 1],
                  "domain": {"x": [0.4, 1.6], "y": [-0.6, 0.6], "z": [-1.0, 1.0]},
                  "exclusions": ["x^2 + y^2 < 0.04"], "simply_connected": True},
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "flow": [f"-{w}y", f"{w}x", _rational(omega)],
        "samples": {"mode": "random", "count": count, "seed": seed},
        "tolerances": {"killing": 1e-7},
        "tasks": ALL_TASKS,
        "basepoint": [1.0, 0.0, 0.0],
        "coframe_order": ["x", "y", "z"],
    }
    flags = {"flat": True, "constant_curvature": True, "conformally_flat": None,
             "ricci_flat": True, "generic": False}
    return Case(f"screw(omega={omega})", config, flags,
                [lambda p: p[0] ** 2 + p[1] ** 2 < 0.04])


def hopf(a: Fraction, count: int, seed: int) -> Case:
    """The Killing field (0, 1, a) on the round 3-sphere in Hopf coordinates."""
    config = {
        "schema_version": "1",
        "chart": {"coordinates": ["eta", "xi1", "xi2"],
                  "domain": {"eta": [0.3, 1.2], "xi1": [0.1, 5.9], "xi2": [0.1, 5.9]}},
        "metric": [["1", "0", "0"], ["0", "cos(eta)^2", "0"], ["0", "0", "sin(eta)^2"]],
        "flow": ["0", "1", _rational(a)],
        "samples": {"mode": "random", "count": count, "seed": seed},
        "tasks": ALL_TASKS,
        "basepoint": [0.75, 3.0, 3.0],
    }
    flags = {"flat": False, "constant_curvature": True, "conformally_flat": None,
             "ricci_flat": False, "generic": False}
    return Case(f"hopf(a={a})", config, flags)


def conformal4(a: Fraction, count: int, seed: int) -> Case:
    """g = exp(a (x^2 + y^2) / 20) delta_4 with the Killing flow (-y, x, 1, 0)."""
    factor = f"exp({_rational(a)}*(x^2 + y^2)/20)"
    config = {
        "schema_version": "1",
        "chart": {"coordinates": ["x", "y", "z", "w"],
                  "domain": {"x": [0.5, 1.5], "y": [-0.5, 0.5],
                             "z": [-1.0, 1.0], "w": [-1.0, 1.0]}},
        "metric": [[factor if i == j else "0" for j in range(4)] for i in range(4)],
        "flow": ["-y", "x", "1", "0"],
        "samples": {"mode": "random", "count": count, "seed": seed},
        "tasks": ALL_TASKS,
        "basepoint": [1.0, 0.0, 0.0, 0.0],
    }
    flags = {"flat": False, "constant_curvature": False, "conformally_flat": True,
             "ricci_flat": False, "generic": False}
    return Case(f"conformal4(a={a})", config, flags)


def generic4(c: tuple, count: int, seed: int) -> Case:
    """A non-diagonal 4-D metric with no special curvature; curvature only.

    Positive definite on [-1, 1]^4 for 1 <= c1 <= 2, |c2| <= 1, 0 < c3 <= 1.
    """
    c1, c2, c3 = (_rational(q) for q in c)
    metric = [[f"1 + {c1}*x^2", f"{c2}*x*y", "0", "0"],
              [f"{c2}*x*y", "1 + y^2", "z/4", "0"],
              ["0", "z/4", f"exp({c3}*x)", "0"],
              ["0", "0", "0", "1 + w^2"]]
    config = {
        "schema_version": "1",
        "chart": {"coordinates": ["x", "y", "z", "w"]},
        "metric": metric,
        "samples": {"mode": "random", "count": count, "seed": seed},
        "tasks": ["curvature", "classify"],
    }
    flags = {"flat": False, "constant_curvature": False, "conformally_flat": False,
             "ricci_flat": False, "generic": True}
    return Case(f"generic4(c={c[0]},{c[1]},{c[2]})", config, flags)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

# sample counts per workload; "tiny" is the self-test size
SIZES = {
    "full": {"screw-eval": 32, "conformal4-build": 8, "curvature-generic": 160,
             "session-mix": 3},
    "tiny": {"screw-eval": 3, "conformal4-build": 2, "curvature-generic": 3,
             "session-mix": 2},
}
# a one-config workload draws this many configs (sample seeds) per run and
# its samples cycle through them, so a run's median spans several point sets
DRAWS = 3

OMEGAS = [Fraction(1, 2), Fraction(3, 4), Fraction(3, 2), Fraction(2)]
HOPF_A = [Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
CONFORMAL_A = [Fraction(2), Fraction(3), Fraction(4), Fraction(5)]
GENERIC_C1 = [Fraction(1), Fraction(3, 2), Fraction(2)]
GENERIC_C2 = [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
GENERIC_C3 = [Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def generate(workload: str, seed: int, size: str = "full") -> list:
    """The sessions of one workload, drawn deterministically from ``seed``.

    A session is a list of cases that one process runs in order.
    """
    rng = random.Random(f"{workload}:{seed}")
    n = SIZES[size][workload]

    def sample_seed() -> int:
        return rng.randrange(1, 2 ** 31)

    if workload == "screw-eval":
        return [[screw(Fraction(1), n, sample_seed())] for _ in range(DRAWS)]
    if workload == "conformal4-build":
        return [[conformal4(Fraction(4), n, sample_seed())] for _ in range(DRAWS)]
    if workload == "curvature-generic":
        c = (Fraction(1), Fraction(1), Fraction(1))
        return [[generic4(c, n, sample_seed())] for _ in range(DRAWS)]
    if workload == "session-mix":
        # two screw and two Hopf flows, one conformal and one generic metric,
        # with distinct seeded parameters, in a seeded order
        cases = [screw(w, n, sample_seed()) for w in rng.sample(OMEGAS, 2)]
        cases += [hopf(a, n, sample_seed()) for a in rng.sample(HOPF_A, 2)]
        cases.append(conformal4(rng.choice(CONFORMAL_A), n, sample_seed()))
        c = (rng.choice(GENERIC_C1), rng.choice(GENERIC_C2), rng.choice(GENERIC_C3))
        cases.append(generic4(c, n, sample_seed()))
        rng.shuffle(cases)
        return [cases]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("screw-eval", "conformal4-build", "curvature-generic", "session-mix")


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

_MATH = {name: getattr(math, name) for name in
         ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt")}


def _compile(text: str):
    return compile(text.replace("^", "**"), "<expr>", "eval")


class _Numeric:
    """Metric and flow of a config as plain float functions of a point."""

    def __init__(self, config: dict):
        self.coords = config["chart"]["coordinates"]
        self.metric = [[_compile(e) for e in row] for row in config["metric"]]
        self.flow = [_compile(e) for e in config.get("flow") or []]

    def _env(self, p):
        env = dict(_MATH)
        env.update(zip(self.coords, (float(v) for v in p)))
        return env

    def g(self, p) -> np.ndarray:
        env = self._env(p)
        return np.array([[eval(e, env) for e in row] for row in self.metric])

    def flow_norm(self, p) -> float:
        env = self._env(p)
        v = np.array([eval(e, env) for e in self.flow])
        return math.sqrt(v @ self.g(p) @ v)


def sample_points(config: dict, exclusions) -> list:
    """The documented sampling contract: numpy default_rng(seed).uniform over
    the chart box, one draw per point, rejecting excluded draws."""
    chart = config["chart"]
    coords = chart["coordinates"]
    domain = chart.get("domain", {})
    los = np.array([domain.get(c, [-1.0, 1.0])[0] for c in coords], dtype=float)
    his = np.array([domain.get(c, [-1.0, 1.0])[1] for c in coords], dtype=float)
    rng = np.random.default_rng(config["samples"]["seed"])
    points = []
    while len(points) < config["samples"]["count"]:
        draw = rng.uniform(los, his)
        if not any(ex(draw) for ex in exclusions):
            points.append(draw)
    return points


def _christoffel(num: _Numeric, p, h):
    n = len(p)
    ginv = np.linalg.inv(num.g(p))
    dg = []
    for mu in range(n):
        step = np.zeros(n)
        step[mu] = h
        dg.append((num.g(p + step) - num.g(p - step)) / (2 * h))
    dg = np.array(dg)          # dg[mu, a, b] = d_mu g_ab
    low = 0.5 * (np.einsum("bac->abc", dg) + np.einsum("cab->abc", dg) - dg)
    return np.einsum("ra,abc->rbc", ginv, low)   # Gamma^r_bc


def kretschmann(num: _Numeric, p, h: float = 1e-4) -> float:
    """R_abcd R^abcd by central differences of the metric."""
    p = np.asarray(p, dtype=float)
    n = len(p)
    gam = _christoffel(num, p, h)
    dgam = []
    for mu in range(n):
        step = np.zeros(n)
        step[mu] = h
        dgam.append((_christoffel(num, p + step, h) - _christoffel(num, p - step, h)) / (2 * h))
    dgam = np.array(dgam)      # dgam[m, r, b, c] = d_m Gamma^r_bc
    # R^r_smn = d_m Gamma^r_ns - d_n Gamma^r_ms + Gamma^r_ml Gamma^l_ns - Gamma^r_nl Gamma^l_ms
    r_up = (np.einsum("mrns->rsmn", dgam) - np.einsum("nrms->rsmn", dgam)
            + np.einsum("rml,lns->rsmn", gam, gam) - np.einsum("rnl,lms->rsmn", gam, gam))
    g = num.g(p)
    ginv = np.linalg.inv(g)
    r_down = np.einsum("ra,asmn->rsmn", g, r_up)
    r_raised = np.einsum("ar,bs,cm,dn,rsmn->abcd", ginv, ginv, ginv, ginv, r_down)
    return float(np.sum(r_down * r_raised))


def _report_kretschmann(components: dict) -> float:
    """Sum of squares over all index orders from the reported
    R_ijkl (i<j, k<l, (i,j) <= (k,l)) in an orthonormal Riemannian frame."""
    total = 0.0
    for name, value in components.items():
        d = name[2:]
        diagonal = d[:2] == d[2:]
        total += (4.0 if diagonal else 8.0) * value * value
    return total


def check(case: Case, report: dict | None, code: int) -> tuple:
    """(failures, wrong values) of one pipeline run; both empty when it is right.

    A failure is a run that gave no verdict or the wrong one: an exit code
    other than 0, a Herglotz verdict other than ``isometric-verified``, no
    report.  A wrong value is a reported number or flag the oracle refutes.
    """
    if report is None:
        return [f"no report (exit code {code})"], []
    failures, wrong = [], []
    if code != 0:
        failures.append(f"exit code {code}, expected 0")
    tasks = report.get("tasks", {})
    classify = tasks.get("classify", {})
    for key, want in case.flags.items():
        if classify.get(key) != want:
            wrong.append(f"classify.{key} = {classify.get(key)!r}, expected {want!r}")
    num = _Numeric(case.config)
    for entry in tasks.get("curvature", {}).get("components_at_points", []):
        got = _report_kretschmann(entry["riemann"])
        want = kretschmann(num, entry["point"])
        if abs(got - want) > 1e-5 * max(1.0, abs(want)):
            wrong.append(f"Kretschmann scalar {got!r} at {entry['point']}, "
                         f"finite differences give {want!r}")
    if "herglotz" in case.config["tasks"]:
        herglotz = tasks.get("herglotz", {})
        if herglotz.get("verdict") != "isometric-verified":
            failures.append(f"herglotz verdict {herglotz.get('verdict')!r} "
                            f"({herglotz.get('reason')}), expected 'isometric-verified'")
        values = herglotz.get("lambda", {}).get("values_at_points")
        if values is not None:
            # every flow here is Killing, so lambda = |V|_g / |V|_g(basepoint)
            base = num.flow_norm(case.config["basepoint"])
            points = sample_points(case.config, case.exclusions)
            worst = max(abs(v - num.flow_norm(p) / base) / (num.flow_norm(p) / base)
                        for v, p in zip(values, points))
            if len(values) != len(points) or worst > 1e-7:
                wrong.append(f"lambda differs from |V|_g/|V|_g(base) by {worst:.3e} "
                             f"(relative) over {len(values)} points")
    return failures, wrong
