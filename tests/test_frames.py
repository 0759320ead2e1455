"""Coframes, connection solving, curvature and classification."""

from fractions import Fraction

import numpy as np
import pytest

from movingframes.cli import DEFAULT_TOLERANCES
from movingframes.expression import (Chart, add, call, eval_at, evaluate, evaluate_along,
                                     mul, num, parse_expr, pow_, sample_points, sym)
from movingframes.exterior import MatrixForm, pform_add, pform_scale
from movingframes.frames import (Metric, SignatureError, SingularMetricError,
                                 antisymmetry_residual, build_coframe, classify_space,
                                 curvature_package, frame_connection,
                                 reconstruction_residual, solve_connection)

import oracle
from helpers import (frame_fn, max_abs_coeff, metric_fn, rows, structure_checks,
                     symbolic_riemann, symbolic_torsion)

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
        assert max(structure_checks(g, fd, pts)) < 1e-12

    def test_metric_symmetry_enforced(self):
        chart = Chart(["x", "y"])
        with pytest.raises(ValueError):
            Metric(chart, [[num(1), sym("x")], [num(0), num(1)]])


class TestSolveConnection:
    def test_flat_connection_vanishes(self, flat3_frame):
        alpha = solve_connection(flat3_frame["frame"].coframe)
        assert all(alpha[i, j].is_zero() for i in range(3) for j in range(3))

    def test_polar_alpha_matches_christoffel_oracle(self, polar3_frame):
        """alpha^1_2 = -dphi, validated against the coordinate-Christoffel
        connection transported to the frame."""
        fd = polar3_frame["frame"]
        chart = polar3_frame["chart"]
        alpha = solve_connection(fd.coframe)
        for p in rows(polar3_frame["points"])[:5]:
            assert eval_at(alpha[0, 1].coefficient((1,)), p) == pytest.approx(-1.0, rel=1e-12)
            arr = np.array([p[c] for c in chart.coords])
            w = oracle.frame_connection(metric_fn(polar3_frame["metric"], chart),
                                        frame_fn(fd.coframe, chart), arr)
            evec = _frame_values(fd.coframe, p)
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        sym_val = sum(
                            eval_at(alpha[i, j].coefficient((mu,)), p) * evec[k, mu]
                            for mu in range(3)
                            if (mu,) in alpha[i, j].coeffs)
                        assert sym_val == pytest.approx(w[i, j, k], abs=5e-7)

    def test_sphere_alpha(self, sphere2_frame):
        """alpha^1_2 = -cos(phi) dpsi on the round sphere."""
        alpha = solve_connection(sphere2_frame["frame"].coframe)
        for p in rows(sphere2_frame["points"])[:8]:
            got = eval_at(alpha[0, 1].coefficient((1,)), p)
            assert got == pytest.approx(-np.cos(p["phi"]), rel=1e-10)

    def test_torsion_residuals(self, flat3_frame, polar3_frame, sphere2_frame,
                               hyperbolic3_frame):
        for bundle in (flat3_frame, polar3_frame, sphere2_frame, hyperbolic3_frame):
            tors, _, anti = structure_checks(bundle["metric"], bundle["frame"], bundle["points"])
            assert tors < 1e-9 and anti < 1e-9


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
            val = fd.riemann_at(p)[0, 1, 0, 1]
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
                    val = fd.riemann_at(p)[i, j, i, j]
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
            res, _ = reconstruction_residual(bundle["metric"], bundle["frame"].coframe,
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


def _generic4():
    chart = Chart(["x", "y", "z", "w"])
    return Metric(chart, [[parse_expr(t, chart) for t in row] for row in (
        ("1 + x^2", "x*y", "0", "0"), ("x*y", "1 + y^2", "z/4", "0"),
        ("0", "z/4", "exp(x)", "0"), ("0", "0", "0", "1 + w^2"))])


def _lorentz4():
    """A non-diagonal Lorentzian 4-D metric, time first: eta = (-1, 1, 1, 1)."""
    chart = Chart(["t", "x", "y", "z"], signature=[-1, 1, 1, 1])
    return Metric(chart, [[parse_expr(t, chart) for t in row] for row in (
        ("-(1 + x^2/2)", "t*y/5", "0", "0"), ("t*y/5", "exp(t/3)", "0", "0"),
        ("0", "0", "1 + x^2", "y*z/4"), ("0", "0", "y*z/4", "cosh(z)"))])


def test_trace_tensors_match_their_symbolic_construction(hyperbolic3):
    """Riemann, Ricci and Weyl from the metric's 2-jet against the
    CONVENTIONS.md formulas built as expressions from the symbolic Riemann
    components (d alpha + alpha ^ alpha, contracted), on metrics with
    nonzero Weyl tensor (n = 4, one of them Lorentzian) and on one with n = 3."""
    for metric in (_generic4(), _lorentz4(), hyperbolic3[1]):
        pts = sample_points(metric.chart, "random", 10, seed=23)
        fd = curvature_package(build_coframe(metric, pts))
        n, eta, r = fd.n, fd.eta, symbolic_riemann(fd.coframe)
        ricci = [[add(*[mul(num(eta[i]), r[i][j][i][l]) for i in range(n)]) for l in range(n)]
                 for j in range(n)]
        scalar = add(*[mul(num(eta[j]), ricci[j][j]) for j in range(n)])
        f = [[add(mul(Fraction(1, n - 2), ricci[i][j]),
                  mul(Fraction(-eta[i], 2 * (n - 1) * (n - 2)), scalar) if i == j else num(0))
              for j in range(n)] for i in range(n)]

        def d(i, j):
            return eta[i] if i == j else 0

        weyl = [[[[add(r[i][j][k][l], mul(num(-d(i, k)), f[l][j]), mul(num(d(i, l)), f[k][j]),
                       mul(num(d(j, k)), f[l][i]), mul(num(-d(j, l)), f[i][k]))
                   for l in range(n)] for k in range(n)] for j in range(n)] for i in range(n)]
        want = evaluate({"riemann": r, "ricci": ricci, "weyl": weyl}, pts)
        got = fd.curvature_values(pts)
        for name, w in want.items():
            w = np.moveaxis(w, -1, 0)
            assert np.all(np.abs(got[name] - w) <= 1e-12 * np.maximum(1.0, np.abs(w))), name
        if n == 4:      # not conformally flat: the comparison sees a nonzero Weyl
            assert np.max(np.abs(got["weyl"])) > 0.01


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
        fd2 = curvature_package(build_coframe(bundle["metric"], pts, order))
        cls1 = bundle["classification"]
        vals2 = fd2.curvature_values(pts)
        cls2 = classify_space(fd2, vals2)
        assert cls1.flat == cls2.flat
        assert cls1.constant_curvature == cls2.constant_curvature
        assert cls1.ricci_flat == cls2.ricci_flat
        assert cls1.conformally_flat == cls2.conformally_flat
        # the fitted constant is scalar-derived, hence frame independent
        assert cls2.kappa == pytest.approx(cls1.kappa, abs=1e-8)
        # the scalar traced from the Ricci values, at every sample
        s1, s2 = (np.einsum("j,pjj->p", np.array(fd.eta, dtype=float), v["ricci"])
                  for fd, v in ((bundle["frame"], bundle["frame"].curvature_values(pts)),
                                (fd2, vals2)))
        assert s2 == pytest.approx(s1, rel=1e-9, abs=1e-9)


def _hopf():
    chart = Chart(["eta", "xi1", "xi2"],
                  domain={"eta": (0.3, 1.2), "xi1": (0.1, 5.9), "xi2": (0.1, 5.9)})
    eta = sym("eta")
    return Metric(chart, [[num(1), num(0), num(0)],
                          [num(0), call("cos", eta) ** 2, num(0)],
                          [num(0), num(0), call("sin", eta) ** 2]])


def test_riemann_and_its_derivative_match_the_symbolic_route(sphere2, hyperbolic3, polar3,
                                                              conformal4):
    """R_ijkl and u(R_ijkl) from the metric's 2-jet (riemann_along: one
    hyper-dual walk over g and its first derivatives, read in the frame)
    against the symbolic route, d alpha + alpha ^ alpha of solve_connection
    contracted on the frame, and its forward-mode u-derivative, component by
    component, along a field u with non-constant components.  In an
    orthonormal frame u(R) vanishes on the constant-curvature spaces (sphere2,
    hyperbolic3, polar3 and the Hopf-coordinate 3-sphere), so the conformal,
    generic and Lorentzian 4-D metrics are the ones that see its terms."""
    for metric, varies in ((sphere2[1], False), (hyperbolic3[1], False), (polar3[1], False),
                           (conformal4[1], True), (_hopf(), False), (_generic4(), True),
                           (_lorentz4(), True)):
        chart = metric.chart
        pts = sample_points(chart, "random", 12, seed=31)
        fd = curvature_package(build_coframe(metric, pts))
        names = chart.coords
        u = {c: add(num(1), mul(Fraction(1, 3), sym(names[(a + 1) % chart.n]),
                                call("sin", sym(c)))) for a, c in enumerate(names)}
        want, _, dwant, _ = evaluate_along(symbolic_riemann(fd.coframe), pts, second=u)
        values = fd.curvature_values(pts)
        e, _, ue, _ = evaluate_along(fd.coframe.vectors, pts, second=u)
        got, dgot = fd.riemann_along(u, pts, e, ue, fd.eta)
        assert bool(np.max(np.abs(dwant)) > 1e-3) == varies
        assert np.array_equal(np.moveaxis(got, -1, 0), values["riemann"])
        shuffled = dict(reversed(list(pts.items())))        # the chart fixes the derivative axis
        assert np.array_equal(fd.curvature_values(shuffled)["riemann"], values["riemann"])
        assert np.array_equal(fd.riemann_along(u, shuffled, e, ue, fd.eta)[1], dgot)
        for g, w in ((got, want), (dgot, dwant)):
            assert g.shape == w.shape
            assert np.all(np.abs(g - w) <= 1e-10 * np.maximum(1.0, np.abs(w))), chart.coords


def test_structure_equation_halves_match_the_symbolic_route(sphere2, polar3, hyperbolic3,
                                                            conformal4):
    """The coordinate coefficients of d theta^i and of alpha^i_j ^ theta^j as
    the torsion check forms them in numpy (c from the frame jet, Gamma by the
    Christoffel route of the curvature walk, theta from the reconstruction
    check) against the symbolic route (ext_d, and wedge of the
    solve_connection forms), each half on its own; and the numpy connection
    antisymmetry against the symbolic forms'
    MatrixForm.eta_antisymmetry_residual.  Both are round-off for a correct
    connection, and the routes round differently (up to 1.6e-15 against 0)."""
    for metric in (sphere2[1], polar3[1], hyperbolic3[1], conformal4[1], _hopf(), _generic4(),
                   _lorentz4()):
        pts = sample_points(metric.chart, "random", 12, seed=37)
        fd = curvature_package(build_coframe(metric, pts))
        _, th = reconstruction_residual(metric, fd.coframe, pts)
        values = fd.curvature_values(pts)
        v, de = values["jet"]
        g = v["gamma"]
        mu, nu = (a.tolist() for a in np.triu_indices(fd.n, 1))
        got = [np.einsum("ijkp,jmp,knp->imnp", t, th, th)[:, mu, nu]
               for t in (frame_connection(th, v["e"], de, fd.eta)[0],
                         np.swapaxes(g, 1, 2) - g)]
        want = evaluate([[[f.coefficient(k) for k in zip(mu, nu)] for f in half]
                         for half in symbolic_torsion(fd.coframe)], pts)
        assert np.max(np.abs(want[0])) > 0.1, metric.chart.coords     # d theta != 0
        for gh, wh in zip(got, want):
            assert np.all(np.abs(gh - wh) <= 1e-12 * np.maximum(1.0, np.abs(wh))), metric.chart
        assert antisymmetry_residual(fd, values, th) == pytest.approx(
            solve_connection(fd.coframe).eta_antisymmetry_residual(pts), rel=1e-12, abs=1e-14)


def test_structure_checks_see_a_perturbed_connection():
    """Perturbing a coefficient of the frame connection that the curvature
    walk hands the structure checks (``values["jet"]``) by x/1000 trips them.
    Any change of Gamma breaks the structure equation (the torsion-free
    eta-antisymmetric connection is unique), so the torsion check fails,
    which it could not if it formed c from Gamma itself; a change that is not
    eta-antisymmetric also fails the antisymmetry check, whose value matches
    MatrixForm.eta_antisymmetry_residual of the solve_connection 1-forms
    perturbed by the same change."""
    metric = _generic4()
    pts = sample_points(metric.chart, "random", 12, seed=41)
    fd = curvature_package(build_coframe(metric, pts))
    values = fd.curvature_values(pts)
    tol = DEFAULT_TOLERANCES
    assert fd.eta == (1, 1, 1, 1)
    assert max(structure_checks(metric, fd, pts, values)) < tol["structure"]
    delta = mul(Fraction(1, 1000), sym("x"))
    alpha = solve_connection(fd.coframe)

    def perturbed(*changes):
        (v, de), gamma = values["jet"], values["jet"][0]["gamma"].copy()
        forms = [[alpha[i, j] for j in range(fd.n)] for i in range(fd.n)]
        for (i, j, k), change in changes:
            gamma[i, j, k] += evaluate([change], pts)[0]
            forms[i][j] = pform_add(forms[i][j], pform_scale(change, fd.coframe.theta[k]))
        return dict(values, jet=(dict(v, gamma=gamma), de)), MatrixForm(forms, eta=fd.eta)

    for (case, forms), antisymmetric in (
            (perturbed(((0, 1, 2), delta)), False),
            (perturbed(((0, 1, 2), delta), ((1, 0, 2), -delta)), True)):
        tors, recon, anti = structure_checks(metric, fd, pts, case)
        assert tors > tol["structure"] and recon < tol["structure"]
        assert (anti < tol["connection_antisymmetry"]) == antisymmetric
        assert anti == pytest.approx(forms.eta_antisymmetry_residual(pts), rel=1e-12, abs=1e-15)
