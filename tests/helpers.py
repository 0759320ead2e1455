"""Shared generators and small utilities for the test suite."""

from fractions import Fraction

import numpy as np

from movingframes.expression import ZERO, Chart, add, call, mul, num, point_at, pow_, sym
from movingframes.exterior import PForm, contract, ext_d, matrix_curvature, pform_add, wedge
from movingframes.frames import (antisymmetry_residual, reconstruction_residual,
                                 solve_connection, torsion_residual)


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


def symbolic_riemann(coframe) -> list:
    """R_ijkl as expressions by the symbolic route: the curvature 2-forms
    Omega = d alpha + alpha ^ alpha of the coframe's connection, contracted
    on the frame vectors, R_ijkl = eta_i Omega^i_j(e_k, e_l)."""
    n = coframe.n
    omega = matrix_curvature(solve_connection(coframe))
    riemann = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k + 1, n):
                    comp = mul(num(coframe.eta[i]),
                               contract(omega[i, j], [coframe.vectors[k], coframe.vectors[l]]))
                    riemann[i][j][k][l] = comp
                    riemann[i][j][l][k] = mul(num(-1), comp)
    return riemann


def symbolic_torsion(coframe) -> tuple:
    """The two halves of the structure equation as 2-forms by the symbolic
    route: d theta^i and alpha^i_j ^ theta^j, alpha from solve_connection."""
    n = coframe.n
    alpha = solve_connection(coframe)
    alpha_theta = []
    for i in range(n):
        acc = wedge(alpha[i, 0], coframe.theta[0])
        for j in range(1, n):
            acc = pform_add(acc, wedge(alpha[i, j], coframe.theta[j]))
        alpha_theta.append(acc)
    return [ext_d(t) for t in coframe.theta], alpha_theta


def structure_checks(fd, points, values=None) -> tuple:
    """(torsion, metric reconstruction, connection antisymmetry) residuals at
    ``points``, from the same inputs as the pipeline's curvature section
    (``values``: the curvature values of ``fd`` there, evaluated if None)."""
    if values is None:
        values = fd.curvature_values(points)
    return (torsion_residual(fd, values), reconstruction_residual(fd, values),
            antisymmetry_residual(fd, values))


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
