"""Exterior algebra laws and the matrix curvature operator."""

import numpy as np
import pytest

from movingframes.expression import (Chart, call, eval_at, mul, num,
                                     sample_points, sym)
from movingframes.exterior import (ChartMismatchError, FormArityError,
                                   MatrixForm, PForm, contract,
                                   coordinate_differential, ext_d, form_eval,
                                   function_form, matrix_curvature, pform_add,
                                   pform_scale, wedge, zero_form)

import oracle
from helpers import max_abs_coeff, metric_fn, random_expr, random_pform, random_point, rows

CHART = Chart(["x", "y", "z"])
X, Y, Z = sym("x"), sym("y"), sym("z")
DX, DY, DZ = (coordinate_differential(CHART, i) for i in range(3))
ORIGIN = {"x": 0.0, "y": 0.0, "z": 0.0}


class TestWedge:
    def test_self_wedge_vanishes(self):
        assert wedge(DX, DX).is_zero()

    def test_sign_rule(self):
        assert pform_add(wedge(DX, DY), wedge(DY, DX)).is_zero()

    def test_bilinearity(self):
        w = wedge(pform_scale(X, DY), pform_scale(Y, DZ))
        assert w.coefficient((1, 2)) == X * Y

    def test_chart_mismatch(self):
        other = Chart(["u", "v"])
        with pytest.raises(ChartMismatchError):
            wedge(DX, coordinate_differential(other, 0))

    def test_degree_overflow_collapses_to_zero(self):
        vol = wedge(wedge(DX, DY), DZ)
        assert wedge(vol, DX).is_zero()


class TestExteriorDerivative:
    def test_d_of_x_dy(self):
        d = ext_d(pform_scale(X, DY))
        assert d.coefficient((0, 1)) is num(1)
        assert len(d.coeffs) == 1

    def test_dd_zero_on_function(self):
        f = function_form(CHART, X ** 2 * Y + call("sin", Z))
        assert ext_d(ext_d(f)).is_zero()

    def test_polar_example(self):
        pol = Chart(["r", "phi"], domain={"r": (0.5, 2.0), "phi": (0.1, 1.4)})
        d = ext_d(pform_scale(sym("r"), coordinate_differential(pol, 1)))
        assert d.coefficient((0, 1)) is num(1)

    def test_top_degree(self):
        vol = wedge(wedge(DX, DY), DZ)
        assert ext_d(vol).is_zero()


class TestFormEval:
    def test_unit(self):
        assert form_eval(wedge(DX, DY), [[1, 0, 0], [0, 1, 0]], ORIGIN) == 1.0

    def test_antisymmetry(self):
        assert form_eval(wedge(DX, DY), [[0, 1, 0], [1, 0, 0]], ORIGIN) == -1.0

    def test_degeneracy(self):
        assert form_eval(wedge(DX, DY), [[1, 0, 0], [1, 0, 0]], ORIGIN) == 0.0

    def test_arity_mismatch(self):
        with pytest.raises(FormArityError):
            form_eval(wedge(DX, DY), [[1, 0, 0]], ORIGIN)

    def test_symbolic_contract_matches_numeric(self):
        rng = np.random.default_rng(0)
        a = random_pform(rng, CHART, 2)
        vecs = [[num(1), num(2), num(-1)], [num(0), num(1), num(3)]]
        p = random_point(rng, CHART)
        sym_val = eval_at(contract(a, vecs), p)
        numeric = form_eval(a, [[1, 2, -1], [0, 1, 3]], p)
        assert sym_val == pytest.approx(numeric, rel=1e-12, abs=1e-12)


def test_exterior_algebra_laws_randomized():
    """d o d = 0, graded commutativity and Leibniz on random forms."""
    rng = np.random.default_rng(12)
    pts = [random_point(rng, CHART) for _ in range(3)]
    for _ in range(120):
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 3 - p)) if p < 3 else 0
        a = random_pform(rng, CHART, p)
        b = random_pform(rng, CHART, q)
        sign = (-1) ** (p * q)
        comm = pform_add(wedge(a, b), pform_scale(num(-sign), wedge(b, a)))
        assert max_abs_coeff(comm, pts) < 1e-10
        leib = pform_add(
            ext_d(wedge(a, b)),
            pform_add(pform_scale(num(-1), wedge(ext_d(a), b)),
                      pform_scale(num(-(-1) ** p), wedge(a, ext_d(b)))))
        assert max_abs_coeff(leib, pts) < 1e-10
        assert max_abs_coeff(ext_d(ext_d(a)), pts) < 1e-10


def test_wedge_associativity_randomized():
    rng = np.random.default_rng(13)
    pts = [random_point(rng, CHART) for _ in range(3)]
    for _ in range(60):
        degs = rng.integers(0, 2, size=3)
        a, b, c = (random_pform(rng, CHART, int(d)) for d in degs)
        gap = pform_add(wedge(wedge(a, b), c),
                        pform_scale(num(-1), wedge(a, wedge(b, c))))
        assert max_abs_coeff(gap, pts) < 1e-10


class TestMatrixCurvature:
    def test_zero_connection(self):
        zf = zero_form(CHART, 1)
        omega = MatrixForm([[zf, zf], [zf, zf]], eta=(1, 1))
        curv = matrix_curvature(omega)
        assert all(curv[i, j].is_zero() for i in range(2) for j in range(2))
        assert curv.eta == (1, 1)

    def test_non_square_rejected(self):
        zf = zero_form(CHART, 1)
        with pytest.raises(FormArityError):
            matrix_curvature(MatrixForm([[zf, zf]]))

    def test_flat_polar_connection(self, polar3_frame):
        """Curvature of the flat-plane connection vanishes; cross-checked
        against the finite-difference Christoffel oracle."""
        fd = polar3_frame["frame"]
        pts = rows(polar3_frame["points"])
        worst = 0.0
        for i in range(3):
            for j in range(3):
                worst = max(worst, max_abs_coeff(fd.omega[i, j], pts))
        assert worst < 1e-10
        g_fn = metric_fn(polar3_frame["metric"], polar3_frame["chart"])
        chart = polar3_frame["chart"]
        for p in pts[:5]:
            arr = np.array([p[c] for c in chart.coords])
            rd = oracle.riemann_down(g_fn, arr)
            assert np.max(np.abs(rd)) < 1e-7

    def test_sphere_curvature_form(self, sphere2_frame):
        """Omega^1_2 = (1/a^2) theta^1 ^ theta^2 for the radius-2 sphere."""
        fd = sphere2_frame["frame"]
        pts = rows(sphere2_frame["points"])
        target = pform_scale(num(1) / num(4),
                             wedge(fd.coframe.theta[0], fd.coframe.theta[1]))
        gap = pform_add(fd.omega[0, 1], pform_scale(num(-1), target))
        assert max_abs_coeff(gap, pts) < 1e-10

    def test_eta_tag_propagates(self, sphere2_frame):
        fd = sphere2_frame["frame"]
        assert fd.omega.eta == fd.coframe.eta
        assert fd.omega.eta_antisymmetry_residual(sphere2_frame["points"]) < 1e-10
