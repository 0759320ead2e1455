"""Shared generators and small utilities for the test suite."""

from fractions import Fraction

import numpy as np

from movingframes.expression import Chart, add, call, mul, num, point_at, pow_, sym
from movingframes.exterior import PForm


def random_expr(rng: np.random.Generator, names, depth=3):
    """Random smooth expression, bounded on [-1, 1]^n style boxes.

    Leaves are small rationals and coordinates; interior nodes are sums,
    products, small integer powers and safe elementary functions.
    """
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return num(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))))
        return sym(str(rng.choice(names)))
    pick = rng.random()
    if pick < 0.30:
        return add(random_expr(rng, names, depth - 1),
                   random_expr(rng, names, depth - 1))
    if pick < 0.55:
        return mul(random_expr(rng, names, depth - 1),
                   random_expr(rng, names, depth - 1))
    if pick < 0.70:
        return pow_(random_expr(rng, names, depth - 1), int(rng.integers(2, 4)))
    u = random_expr(rng, names, depth - 1)
    fn = rng.choice(["sin", "cos", "exp", "tanh", "sqrt", "log"])
    if fn == "exp":
        return call("exp", mul(num(Fraction(3, 10)), u))
    if fn == "sqrt":
        return call("sqrt", add(num(1), pow_(u, 2)))
    if fn == "log":
        return call("log", add(num(2), pow_(u, 2)))
    return call(fn, u)


def random_pform(rng: np.random.Generator, chart: Chart, degree: int, terms=2, depth=2):
    n = chart.n
    coeffs = {}
    for _ in range(terms):
        idx = tuple(sorted(rng.choice(n, size=degree, replace=False))) if degree else ()
        coeffs[idx] = add(coeffs.get(idx, num(0)),
                          random_expr(rng, chart.coords, depth))
    return PForm(chart, degree, coeffs)


def columns(points) -> dict:
    """Sample columns (coordinate -> float64 array) from a list of point dicts."""
    return {c: np.array([p[c] for p in points], dtype=float) for c in points[0]}


def rows(points) -> list:
    """The point dicts of sample columns, in order."""
    return [point_at(points, k) for k in range(len(next(iter(points.values()))))]


def random_point(rng: np.random.Generator, chart: Chart) -> dict:
    return {c: float(rng.uniform(lo, hi)) for c, (lo, hi) in chart.domain.items()}


def max_abs_coeff(form: PForm, points) -> float:
    """Numeric sup of a form's coefficients over sample points."""
    from movingframes.expression import eval_at
    worst = 0.0
    for p in points:
        memo = {}
        for c in form.coeffs.values():
            worst = max(worst, abs(eval_at(c, p, memo)))
    return worst


def metric_fn(metric, chart):
    """Numeric callable point-array -> metric matrix, for the FD oracle."""
    from movingframes.expression import eval_at

    def f(arr):
        p = chart.point(arr)
        memo = {}
        return np.array([[eval_at(e, p, memo) for e in row] for row in metric.entries])

    return f


def frame_fn(coframe, chart):
    """Numeric callable point-array -> frame vector rows, for the FD oracle."""
    from movingframes.expression import eval_at

    def f(arr):
        p = chart.point(arr)
        memo = {}
        return np.array([[eval_at(c, p, memo) for c in row] for row in coframe.vectors])

    return f


def vector_fn(components, chart):
    from movingframes.expression import eval_at

    def f(arr):
        p = chart.point(arr)
        memo = {}
        return np.array([eval_at(c, p, memo) for c in components])

    return f
