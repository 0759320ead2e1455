"""Coframes, connection solving, curvature and classification."""

import numpy as np
import pytest

from movingframes.expression import (Chart, call, eval_at, num, pow_,
                                     sample_points, sym)
from movingframes.frames import (Metric, SignatureError, SingularMetricError,
                                 build_coframe, classify_space,
                                 curvature_package, reconstruction_residual,
                                 solve_connection, torsion_residual)

import oracle
from helpers import frame_fn, max_abs_coeff, metric_fn, rows

RIEMANN_TOL = 1e-8


def _frame_values(coframe, p):
    memo = {}
    return np.array([[eval_at(c, p, memo) for c in row] for row in coframe.vectors])


class TestBuildCoframe:
    def test_flat_identity(self, flat3_frame):
        cf = flat3_frame["frame"].coframe
        for i in range(3):
            assert cf.theta[i].coefficient((i,)) is num(1)
            assert len(cf.theta[i].coeffs) == 1

    def test_polar_diagonal(self, polar3_frame):
        cf = polar3_frame["frame"].coframe
        for p in rows(polar3_frame["points"])[:10]:
            vals = [eval_at(cf.theta[1].coefficient((mu,)), p) for mu in range(3)]
            assert vals[0] == pytest.approx(0.0, abs=1e-14)
            assert vals[1] == pytest.approx(p["r"], rel=1e-12)
            assert vals[2] == pytest.approx(0.0, abs=1e-14)

    def test_zero_row_is_singular(self):
        chart = Chart(["x", "y"])
        g = Metric(chart, [[num(1), num(0)], [num(0), num(0)]])
        pts = sample_points(chart, "random", 5, seed=1)
        with pytest.raises(SingularMetricError) as err:
            build_coframe(g, samples=pts)
        assert err.value.point is not None

    def test_signature_mismatch_detected(self):
        chart = Chart(["t", "x"], signature=[1, 1])
        g = Metric(chart, [[num(-1), num(0)], [num(0), num(1)]])
        pts = sample_points(chart, "random", 5, seed=2)
        with pytest.raises(SignatureError):
            build_coframe(g, samples=pts)

    def test_lorentzian_accepted_structurally(self):
        chart = Chart(["t", "x"], signature=[-1, 1])
        g = Metric(chart, [[num(-1), num(0)], [num(0), num(1)]])
        pts = sample_points(chart, "random", 5, seed=3)
        cf = build_coframe(g, samples=pts)
        assert cf.eta == (-1, 1)
        fd = curvature_package(cf)
        assert torsion_residual(fd, pts) < 1e-12

    def test_metric_symmetry_enforced(self):
        chart = Chart(["x", "y"])
        with pytest.raises(ValueError):
            Metric(chart, [[num(1), sym("x")], [num(0), num(1)]])


class TestSolveConnection:
    def test_flat_connection_vanishes(self, flat3_frame):
        alpha = flat3_frame["frame"].alpha
        assert all(alpha[i, j].is_zero() for i in range(3) for j in range(3))

    def test_polar_alpha_matches_christoffel_oracle(self, polar3_frame):
        """alpha^1_2 = -dphi, validated against the coordinate-Christoffel
        connection transported to the frame."""
        fd = polar3_frame["frame"]
        chart = polar3_frame["chart"]
        for p in rows(polar3_frame["points"])[:5]:
            assert eval_at(fd.alpha[0, 1].coefficient((1,)), p) == pytest.approx(-1.0, rel=1e-12)
            arr = np.array([p[c] for c in chart.coords])
            w = oracle.frame_connection(metric_fn(polar3_frame["metric"], chart),
                                        frame_fn(fd.coframe, chart), arr)
            evec = _frame_values(fd.coframe, p)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        sym_val = sum(
                            eval_at(fd.alpha[i, j].coefficient((mu,)), p) * evec[k, mu]
                            for mu in range(3)
                            if (mu,) in fd.alpha[i, j].coeffs)
                        assert sym_val == pytest.approx(w[i, j, k], abs=5e-7)

    def test_sphere_alpha(self, sphere2_frame):
        """alpha^1_2 = -cos(phi) dpsi on the round sphere."""
        fd = sphere2_frame["frame"]
        for p in rows(sphere2_frame["points"])[:8]:
            got = eval_at(fd.alpha[0, 1].coefficient((1,)), p)
            assert got == pytest.approx(-np.cos(p["phi"]), rel=1e-10)

    def test_torsion_residuals(self, flat3_frame, polar3_frame, sphere2_frame,
                               hyperbolic3_frame):
        for bundle in (flat3_frame, polar3_frame, sphere2_frame, hyperbolic3_frame):
            fd = bundle["frame"]
            assert torsion_residual(fd, bundle["points"]) < 1e-9


class TestCurvature:
    def test_flat_riemann_vanishes(self, flat3_frame):
        cls = flat3_frame["classification"]
        assert cls.max_riemann < 1e-10

    def test_sphere_radius_two(self, sphere2_frame):
        """R_1212 = 1/a^2 = 0.25, cross-checked against the FD oracle."""
        fd = sphere2_frame["frame"]
        chart = sphere2_frame["chart"]
        g_fn = metric_fn(sphere2_frame["metric"], chart)
        e_fn = frame_fn(fd.coframe, chart)
        for p in rows(sphere2_frame["points"])[:5]:
            val = eval_at(fd.riemann[0][1][0][1], p)
            assert val == pytest.approx(0.25, abs=1e-6)
            arr = np.array([p[c] for c in chart.coords])
            orc = oracle.frame_riemann(g_fn, e_fn, arr)
            assert orc[0, 1, 0, 1] == pytest.approx(val, abs=5e-6)

    def test_hyperbolic_sectional_minus_one(self, hyperbolic3_frame):
        fd = hyperbolic3_frame["frame"]
        chart = hyperbolic3_frame["chart"]
        g_fn = metric_fn(hyperbolic3_frame["metric"], chart)
        e_fn = frame_fn(fd.coframe, chart)
        for p in rows(hyperbolic3_frame["points"])[:5]:
            for i in range(3):
                for j in range(i + 1, 3):
                    val = eval_at(fd.riemann[i][j][i][j], p)
                    assert val == pytest.approx(-1.0, abs=1e-6)
            arr = np.array([p[c] for c in chart.coords])
            orc = oracle.frame_riemann(g_fn, e_fn, arr)
            assert orc[0, 1, 0, 1] == pytest.approx(-1.0, abs=5e-5)

    def test_riemann_symmetries_and_bianchi(self, sphere2_frame, hyperbolic3_frame,
                                            conformal4_frame):
        for bundle in (sphere2_frame, hyperbolic3_frame, conformal4_frame):
            fd = bundle["frame"]
            for p in rows(bundle["points"])[:6]:
                r = fd.riemann_at(p)
                assert np.max(np.abs(r + np.swapaxes(r, 0, 1))) < RIEMANN_TOL
                assert np.max(np.abs(r + np.swapaxes(r, 2, 3))) < RIEMANN_TOL
                assert np.max(np.abs(r - np.transpose(r, (2, 3, 0, 1)))) < RIEMANN_TOL
                bianchi = (r + np.transpose(r, (0, 2, 3, 1))
                           + np.transpose(r, (0, 3, 1, 2)))
                assert np.max(np.abs(bianchi)) < RIEMANN_TOL

    def test_weyl_trace_free(self, hyperbolic3_frame, conformal4_frame):
        for bundle in (hyperbolic3_frame, conformal4_frame):
            fd = bundle["frame"]
            eta = np.diag(fd.eta).astype(float)
            for p in rows(bundle["points"])[:6]:
                w = fd.weyl_at(p)
                for contraction in ("ik,ijkl->jl", "jl,ijkl->ik", "il,ijkl->jk"):
                    assert np.max(np.abs(np.einsum(contraction, eta, w))) < 1e-8

    def test_reconstruction(self, flat3_frame, polar3_frame, sphere1_frame,
                            sphere2_frame, hyperbolic3_frame, conformal4_frame):
        for bundle in (flat3_frame, polar3_frame, sphere1_frame, sphere2_frame,
                       hyperbolic3_frame, conformal4_frame):
            res = reconstruction_residual(bundle["metric"], bundle["frame"].coframe,
                                          bundle["points"])
            assert res < 1e-9


class TestClassification:
    def test_flat(self, flat3_frame):
        cls = flat3_frame["classification"]
        assert cls.flat and cls.constant_curvature and cls.kappa == pytest.approx(0.0, abs=1e-12)

    def test_sphere_kappa(self, sphere2_frame):
        cls = sphere2_frame["classification"]
        assert cls.constant_curvature and not cls.flat
        assert cls.kappa == pytest.approx(0.25, abs=1e-6)

    def test_hyperbolic_kappa(self, hyperbolic3_frame):
        cls = hyperbolic3_frame["classification"]
        assert cls.constant_curvature
        assert cls.kappa == pytest.approx(-1.0, abs=1e-6)
        assert not cls.ricci_flat

    def test_conformal_r4(self, conformal4_frame):
        cls = conformal4_frame["classification"]
        assert cls.conformally_flat is True
        assert cls.max_weyl < 1e-7
        assert not cls.flat

    def test_n3_conformal_flatness_indeterminate(self, hyperbolic3_frame):
        cls = hyperbolic3_frame["classification"]
        assert cls.conformally_flat is None
        assert "indeterminate (n=3)" in cls.conformal_note

    def test_generic_flag(self):
        chart = Chart(["x", "y", "z"], domain={"x": (0.5, 1.5), "y": (-1, 1), "z": (-1, 1)})
        x = sym("x")
        g = Metric(chart, [[num(1), num(0), num(0)],
                           [num(0), 1 + x ** 2, num(0)],
                           [num(0), num(0), x ** 4]])
        pts = sample_points(chart, "random", 20, seed=17)
        fd = curvature_package(build_coframe(g, samples=pts))
        cls = classify_space(fd, fd.curvature_values(pts))
        assert cls.generic


def test_frame_covariance_under_reordering(flat3_frame, sphere1_frame, sphere2_frame,
                                           hyperbolic3_frame, polar3_frame,
                                           conformal4_frame):
    """Re-running Gram-Schmidt in a different coordinate order changes the
    componentwise curvature but not the scalar or the verdicts."""
    for bundle in (flat3_frame, sphere1_frame, sphere2_frame, hyperbolic3_frame,
                   polar3_frame, conformal4_frame):
        chart = bundle["chart"]
        order = list(reversed(chart.coords))
        pts = bundle["points"]
        fd2 = curvature_package(build_coframe(bundle["metric"], order, pts))
        cls1 = bundle["classification"]
        cls2 = classify_space(fd2, fd2.curvature_values(pts))
        assert cls1.flat == cls2.flat
        assert cls1.constant_curvature == cls2.constant_curvature
        assert cls1.ricci_flat == cls2.ricci_flat
        assert cls1.conformally_flat == cls2.conformally_flat
        # the fitted constant is scalar-derived, hence frame independent
        assert cls2.kappa == pytest.approx(cls1.kappa, abs=1e-8)
        for p in rows(pts)[:4]:
            memo1, memo2 = {}, {}
            s1 = eval_at(bundle["frame"].scalar, p, memo1)
            s2 = eval_at(fd2.scalar, p, memo2)
            assert s2 == pytest.approx(s1, rel=1e-9, abs=1e-9)
