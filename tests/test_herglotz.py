"""Hypothesis gates, Killing-magnitude reconstruction and isometry checks."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from movingframes.cli import _round12
from movingframes.expression import (Chart, call, eval_at, mul, num,
                                     sample_points, sym)
from movingframes.frames import (Metric, build_coframe, classify_space,
                                 curvature_package)
from movingframes.herglotz import (ClosednessError, check_hypotheses,
                                   reconstruct_lambda, ricci_flat_check,
                                   run_herglotz, scaled_flow_killing_residual,
                                   verify_killing)
from movingframes.submersion import analyze_flow, constraint_residuals

import oracle
from helpers import columns, metric_fn, rows, vector_fn

BASE = {"x": 1.0, "y": 0.0, "z": 0.0}


class TestHypotheses:
    def test_screw(self, screw):
        hyp = check_hypotheses(screw["flow_data"], screw["classification"])
        assert hyp.rigid and hyp.rotational and hyp.ambient_admissible
        assert hyp.max_m == pytest.approx(0.5, abs=0.5)  # profile in (0, 1)
        assert hyp.closedness_residual < 1e-8
        assert hyp.basic_m_residual < 1e-7
        assert hyp.basic_k_residual < 1e-7
        assert hyp.satisfied()

    def test_rotation_inapplicable(self, screw):
        chart = Chart(["x", "y", "z"],
                      domain={"x": (0.5, 1.8), "y": (-0.4, 0.4), "z": (-1.0, 1.0)})
        metric = Metric(chart, [[num(1) if i == j else num(0) for j in range(3)]
                                for i in range(3)])
        pts = columns([dict(BASE)] + rows(sample_points(chart, "random", 12, seed=31)))
        fl = analyze_flow(metric, [-sym("y"), sym("x"), num(0)], pts)
        hyp = check_hypotheses(fl, screw["classification"])
        assert hyp.rigid and not hyp.rotational
        assert "non-rotational" in hyp.failure_reason()

    def test_kappa_reported_to_twelve_digits(self, screw, sphere2_frame):
        """The reason string carries kappa as the report rounds numbers, so
        round-off below 12 digits cannot change report bytes."""
        cls = sphere2_frame["classification"]
        assert cls.constant_curvature
        hyp = check_hypotheses(screw["flow_data"], cls)
        digits = re.fullmatch(r"constant curvature \(kappa = (\S+)\)", hyp.ambient_reason)
        assert float(digits.group(1)) == _round12(cls.kappa) == 0.25

    def test_translation_non_rotational(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 8, seed=32)
        fl = analyze_flow(metric, [num(0), num(0), num(1)], pts)
        fd = curvature_package(build_coframe(metric, samples=pts))
        hyp = check_hypotheses(fl, classify_space(fd, fd.curvature_values(pts)))
        assert not hyp.rotational
        assert not fl.jet["m"].any()


class TestLambda:
    def test_screw_ratio(self, screw):
        """lambda(r=2)/lambda(r=1) = sqrt(5/2) with basepoint at r = 1."""
        fl = screw["flow_data"]
        hyp = check_hypotheses(fl, screw["classification"])
        lam = reconstruct_lambda(fl, screw["basepoint"], hyp.closedness_residual)
        assert lam.values[0] == pytest.approx(1.0, abs=1e-10)   # basepoint itself
        assert lam.values[1] == pytest.approx(1.5811, abs=1e-4)
        assert lam.values[1] == pytest.approx(math.sqrt(2.5), rel=1e-8)
        assert lam.path_independence_residual < 1e-6
        assert lam.leaf_derivative_residual < 1e-7
        # lambda equals |V| normalised to the basepoint everywhere
        for p, v in zip(rows(fl.samples), lam.values):
            expect = math.sqrt((1 + p["x"] ** 2 + p["y"] ** 2) / 2.0)
            assert v == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("seed", [None, 12345])
    def test_leaf_estimate_short_segment(self, screw, seed):
        """The flow is Killing, so u(log lambda) = 0; the integral of K from each
        sample to its flow step leaves only quadrature round-off.  On the
        seed-12345 samples a difference of two long-path integrals once read
        1.3e-7."""
        fl = screw["flow_data"]
        if seed is not None:
            box = Chart(["x", "y", "z"],
                        domain={"x": (0.4, 1.6), "y": (-0.6, 0.6), "z": (-1.0, 1.0)})
            pts = sample_points(box, "random", 32, seed=seed)
            fl = analyze_flow(screw["metric"], screw["flow"], pts)
        lam = reconstruct_lambda(fl, screw["basepoint"], 0.0)
        assert lam.leaf_derivative_residual < 1e-12

    def test_zero_k_gives_constant_lambda(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 6, seed=33)
        fl = analyze_flow(metric, [num(0), num(0), num(1)], pts)
        lam = reconstruct_lambda(fl, rows(pts)[0], 0.0)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in lam.values)

    def test_non_closed_k_refused(self, flat3):
        """Synthetic K with K_[1;2] = 1 must be rejected at the gate."""
        chart, metric = flat3
        pts = sample_points(chart, "random", 6, seed=34)
        fl = analyze_flow(metric, [num(0), num(0), num(1)], pts)
        fl.invariants.k = [num(0), sym("x")]  # K = x dy on the horizontal legs
        from movingframes.submersion import covariant_derivative
        kc = covariant_derivative(fl.k, fl, rank=1)
        closed = max(abs(eval_at(kc[0][2], p) - eval_at(kc[1][1], p)) * 0.5
                     for p in rows(pts))
        assert closed == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ClosednessError):
            reconstruct_lambda(fl, rows(pts)[0], closed)

    def test_path_through_excluded_region_refused(self):
        from movingframes.expression import parse_exclusion
        from movingframes.herglotz import PathError
        chart = Chart(["x", "y", "z"],
                      domain={"x": (-2.0, 2.0), "y": (-0.5, 0.5), "z": (-1.0, 1.0)})
        chart = Chart(chart.coords, domain=chart.domain,
                      exclusions=(parse_exclusion("x^2 + y^2 < 0.09", chart),))
        metric = Metric(chart, [[num(1) if i == j else num(0) for j in range(3)]
                                for i in range(3)])
        base, target = {"x": -1.5, "y": 0.0, "z": 0.0}, {"x": 1.5, "y": 0.0, "z": 0.0}
        fl = analyze_flow(metric, [-sym("y"), sym("x"), num(1)], columns([target]))
        # the straight segment between the two axis points crosses the core
        with pytest.raises(PathError, match="excluded"):
            reconstruct_lambda(fl, base, 0.0)

    def test_not_simply_connected_refused(self, flat3):
        from movingframes.herglotz import PathError
        chart = Chart(["x", "y", "z"], simply_connected=False)
        metric = Metric(chart, [[num(1) if i == j else num(0) for j in range(3)]
                                for i in range(3)])
        pts = sample_points(chart, "random", 5, seed=42)
        fl = analyze_flow(metric, [num(0), num(0), num(1)], pts)
        with pytest.raises(PathError, match="simply connected"):
            reconstruct_lambda(fl, rows(pts)[0], 0.0)


class TestKilling:
    def test_exact_killing_field(self, screw):
        """V = (-y, x, 1) is Killing for the flat metric."""
        res = verify_killing(screw["metric"], screw["flow"], screw["points"],
                             screw["flow_data"].adapted.coframe.vectors)
        assert res < 1e-12

    def test_translation(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 6, seed=35)
        assert verify_killing(metric, [num(0), num(0), num(1)], pts) == 0.0

    def test_twist_residual_one(self):
        chart = Chart(["x", "y", "z"],
                      domain={"x": (-1, 1), "y": (-1, 1), "z": (0.2, 1.2)})
        metric = Metric(chart, [[num(1) if i == j else num(0) for j in range(3)]
                                for i in range(3)])
        pts = sample_points(chart, "random", 10, seed=36)
        V = [call("cos", sym("z")), call("sin", sym("z")), num(0)]
        fl = analyze_flow(metric, V, pts)
        res = verify_killing(metric, V, pts, fl.adapted.coframe.vectors)
        assert res >= 1.0 - 1e-8
        assert res == pytest.approx(1.0, abs=1e-8)

    def test_scaled_flow_killing(self, screw):
        fl = screw["flow_data"]
        hyp = check_hypotheses(fl, screw["classification"])
        lam = reconstruct_lambda(fl, screw["basepoint"], hyp.closedness_residual)
        res = scaled_flow_killing_residual(fl, lam)
        assert res < 1e-7

    def test_killing_oracle_agreement(self, screw):
        """The forward-mode L_V g matches the FD Lie-derivative oracle."""
        chart = screw["chart"]
        g_fn = metric_fn(screw["metric"], chart)
        v_fn = vector_fn(screw["flow"], chart)
        from movingframes.submersion import lie_derivative_at
        lie = lie_derivative_at(screw["metric"], screw["flow"], None, screw["points"])
        for q, p in enumerate(rows(screw["points"])[:4]):
            arr = np.array([p[c] for c in chart.coords])
            fd = oracle.lie_derivative_metric(g_fn, v_fn, arr)
            assert np.allclose(lie[:, :, q], fd, atol=1e-7)


class TestEndToEnd:
    def test_screw_verdict(self, screw):
        rep = run_herglotz(screw["flow_data"], screw["classification"], screw["basepoint"])
        assert rep.verdict == "isometric-verified"
        assert rep.killing_residual < 1e-7
        assert rep.lam.leaf_derivative_residual < 1e-7

    def test_negative_control_twist_never_reaches_lambda(self):
        chart = Chart(["x", "y", "z"],
                      domain={"x": (-1, 1), "y": (-1, 1), "z": (0.2, 1.2)})
        metric = Metric(chart, [[num(1) if i == j else num(0) for j in range(3)]
                                for i in range(3)])
        pts = sample_points(chart, "random", 10, seed=37)
        fl = analyze_flow(metric, [call("cos", sym("z")), call("sin", sym("z")),
                                   num(0)], pts)
        fd = curvature_package(build_coframe(metric, samples=pts))
        rep = run_herglotz(fl, classify_space(fd, fd.curvature_values(pts)), rows(pts)[0])
        assert rep.verdict == "hypotheses-not-met"
        assert "not rigid" in rep.reason
        assert rep.lam is None

    def test_second_flat_rigid_flow_omega_two(self):
        """Another rotational rigid flow in flat space: V = (-2y, 2x, 1)."""
        chart = Chart(["x", "y", "z"],
                      domain={"x": (0.4, 2.2), "y": (-0.6, 0.6), "z": (-1.0, 1.0)})
        metric = Metric(chart, [[num(1) if i == j else num(0) for j in range(3)]
                                for i in range(3)])
        base = {"x": 1.0, "y": 0.0, "z": 0.0}
        far = {"x": 2.0, "y": 0.0, "z": 0.0}
        pts = columns([base, far] + rows(sample_points(chart, "random", 12, seed=40)))
        y, x = sym("y"), sym("x")
        fl = analyze_flow(metric, [-2 * y, 2 * x, num(1)], pts)
        assert fl.rigidity.rigid
        # |M_12| = w/(1 + w^2 r^2) with w = 2
        assert abs(eval_at(fl.m[0][1], base)) == pytest.approx(2.0 / 5.0, rel=1e-9)
        fd = curvature_package(build_coframe(metric, samples=pts))
        rep = run_herglotz(fl, classify_space(fd, fd.curvature_values(pts)), base)
        assert rep.verdict == "isometric-verified"
        assert rep.killing_residual < 1e-7
        # lambda = sqrt((1 + 4 r^2)/5), so sqrt(17/5) at r = 2
        assert rep.lam.values[1] == pytest.approx(math.sqrt(17.0 / 5.0), rel=1e-7)

    def test_hopf_flow_constant_curvature_ambient(self):
        """The Hopf flow on the round 3-sphere: unit Killing, |M| = 1, K = 0;
        the quotient is the half-radius 2-sphere with Gauss curvature 4."""
        chart = Chart(["eta", "xi1", "xi2"],
                      domain={"eta": (0.3, 1.2), "xi1": (0.1, 5.9),
                              "xi2": (0.1, 5.9)})
        eta = sym("eta")
        metric = Metric(chart, [[num(1), num(0), num(0)],
                                [num(0), call("cos", eta) ** 2, num(0)],
                                [num(0), num(0), call("sin", eta) ** 2]])
        pts = sample_points(chart, "random", 15, seed=43)
        fd = curvature_package(build_coframe(metric, samples=pts))
        cls = classify_space(fd, fd.curvature_values(pts))
        assert cls.constant_curvature and cls.kappa == pytest.approx(1.0, abs=1e-9)
        fl = analyze_flow(metric, [num(0), num(1), num(1)], pts)
        assert fl.rigidity.rigid and fl.rigidity.residual < 1e-9
        for p in rows(pts)[:6]:
            assert abs(eval_at(fl.m[0][1], p)) == pytest.approx(1.0, rel=1e-9)
            assert abs(eval_at(fl.k[0], p)) < 1e-12
            assert abs(eval_at(fl.k[1], p)) < 1e-12
        # constraint identities hold in the curved ambient too
        rep = constraint_residuals(fl, fd)
        assert rep.max_tilde_free() < 1e-9
        for q in range(rep.quotient_riemann.shape[-1]):
            assert rep.quotient_riemann[0, 1, 0, 1, q] == pytest.approx(4.0, rel=1e-9)
        verdict = run_herglotz(fl, cls, rows(pts)[0])
        assert verdict.verdict == "isometric-verified"
        assert verdict.hypotheses.ambient_reason.startswith("constant curvature")
        assert all(v == pytest.approx(1.0, abs=1e-10) for v in verdict.lam.values)

    def test_conformal_corollary_dimension_four(self):
        """In a conformally-flat (non-flat) representative where the flow is
        rigid, the pipeline still verifies the isometry."""
        chart = Chart(["x", "y", "z", "w"],
                      domain={"x": (0.5, 1.5), "y": (-0.5, 0.5),
                              "z": (-1.0, 1.0), "w": (-1.0, 1.0)})
        x, y = sym("x"), sym("y")
        factor = call("exp", mul(num(Fraction(1, 5)), x ** 2 + y ** 2))
        metric = Metric(chart, [[factor if i == j else num(0) for j in range(4)]
                                for i in range(4)])
        base = {"x": 1.0, "y": 0.0, "z": 0.0, "w": 0.0}
        pts = columns([base] + rows(sample_points(chart, "random", 12, seed=38)))
        fd = curvature_package(build_coframe(metric, samples=pts))
        cls = classify_space(fd, fd.curvature_values(pts))
        assert cls.conformally_flat is True and not cls.flat
        fl = analyze_flow(metric, [-y, x, num(1), num(0)], pts)
        assert fl.rigidity.rigid
        rep = run_herglotz(fl, cls, base)
        assert rep.verdict == "isometric-verified"
        assert rep.hypotheses.ambient_reason == "conformally flat"
        # the recovered magnitude matches |V| in this representative
        for p, v in zip(rows(fl.samples), rep.lam.values):
            r2 = p["x"] ** 2 + p["y"] ** 2
            expect = math.exp(0.1 * r2) * math.sqrt(1 + r2)
            expect /= math.exp(0.1) * math.sqrt(2.0)
            assert v == pytest.approx(expect, rel=1e-7)


class TestRicciFlat:
    def test_screw_in_flat_space(self, screw):
        rep = ricci_flat_check(screw["constraints"], screw["classification"])
        assert rep.applicable
        assert rep.max_residual() < 1e-7
        assert rep.m2_leaf_residual < 1e-7

    def test_rows_read_from_constraint_report(self, screw):
        """No expression is built; R_00, R_0i and u(|M|^2) are the report's own."""
        from movingframes import expression
        rep = screw["constraints"]
        nodes = len(expression._TABLE)
        rf = ricci_flat_check(rep, screw["classification"])
        assert len(expression._TABLE) == nodes
        assert rf.residuals["R_00"] == rep.tilde_free["R_00"]
        assert rf.residuals["R_0i"] == rep.tilde_free["R_0i"]
        assert rf.m2_leaf_residual == rep.m2_leaf_residual
        assert list(rf.residuals) == ["R_00", "R_0i", "R_ij", "R"]

    def test_translation_trivial(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 6, seed=39)
        fl = analyze_flow(metric, [num(0), num(0), num(1)], pts)
        fd = curvature_package(build_coframe(metric, samples=pts))
        rep = ricci_flat_check(constraint_residuals(fl, fd),
                               classify_space(fd, fd.curvature_values(pts)))
        assert rep.applicable and rep.max_residual() == 0.0

    def test_sphere_ambient_inapplicable(self, sphere2_frame, screw):
        rep = ricci_flat_check(screw["constraints"], sphere2_frame["classification"])
        assert not rep.applicable
        assert "not Ricci flat" in rep.reason
