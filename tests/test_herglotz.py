"""Hypothesis gates, Killing-magnitude reconstruction and isometry checks."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movingframes import herglotz
from movingframes.cli import _round12, load_config, run_pipeline
from movingframes.expression import (Chart, EvalDomainError, add, call, eval_at, evaluate,
                                     max_abs, mul, num, parse_exclusion, sample_points, sym)
from movingframes.frames import (Metric, build_coframe, classify_space,
                                 curvature_package)
from movingframes.herglotz import (ClosednessError, check_hypotheses,
                                   reconstruct_lambda, ricci_flat_check,
                                   run_herglotz, scaled_flow_killing_residual)
from movingframes.submersion import (analyze_flow, constraint_residuals, flow_invariants,
                                     lie_derivative_at)

import oracle
import reference
from helpers import columns, metric_fn, rows, vector_fn

BASE = {"x": 1.0, "y": 0.0, "z": 0.0}


def _with_k(fl, k_mu):
    """The vertical flow ``fl`` (u = d_z, psi0 = dz in flat R^3) with
    F = K ^ psi0, F_ab = K_a psi0_b - K_b psi0_a, for the horizontal
    coordinate 1-form ``k_mu``: the K_mu = -u^nu F_nu mu that the lambda
    quadrature integrates is then ``k_mu``."""
    psi0 = [num(0), num(0), num(1)]
    f = tuple(tuple(add(mul(k_mu[a], psi0[b]), mul(num(-1), k_mu[b], psi0[a]))
                    for b in range(3)) for a in range(3))
    return dataclasses.replace(fl, adapted=dataclasses.replace(fl.adapted, f=f))


class TestHypotheses:
    def test_screw(self, screw):
        hyp = check_hypotheses(screw["flow_data"], screw["classification"])
        assert hyp.rigid and hyp.rotational and hyp.ambient_admissible
        assert hyp.max_m == pytest.approx(0.5, abs=0.5)  # profile in (0, 1)
        assert hyp.closedness_residual < 1e-8
        assert hyp.basic_m_residual < 1e-7
        assert hyp.basic_k_residual < 1e-7
        assert hyp.failure_reason() is None

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
        k = [num(0), sym("x")]      # K = x dy on the horizontal legs e_1 = d_x, e_2 = d_y
        from movingframes.submersion import covariant_derivative
        kc = covariant_derivative(k, fl, rank=1)
        closed = max(abs(eval_at(kc[0][2], p) - eval_at(kc[1][1], p)) * 0.5
                     for p in rows(pts))
        assert closed == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ClosednessError):
            reconstruct_lambda(_with_k(fl, k + [num(0)]), rows(pts)[0], closed)

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


class TestQuadrature:
    @pytest.mark.parametrize("rule, degree", [("_GK_K15", 23), ("_GK_G7", 13)])
    def test_polynomial_degree(self, rule, degree):
        """The 15-point Kronrod rule integrates x^d on [-1, 1] exactly up to
        d = 23 and its embedded 7-point Gauss rule up to d = 13, not further."""
        from movingframes import herglotz
        weights, nodes = getattr(herglotz, rule), herglotz._GK_NODES
        for d in range(degree + 2):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            err = abs(weights @ nodes ** d - exact)
            assert err < 1e-15 if d <= degree else err > 1e-9, d

    def test_gauss_nodes_are_legendre(self):
        from movingframes import herglotz
        nodes, weights = np.polynomial.legendre.leggauss(7)
        on = herglotz._GK_G7 != 0.0
        assert np.allclose(herglotz._GK_NODES[on], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(herglotz._GK_G7[on], weights, rtol=0.0, atol=1e-15)
        assert herglotz._GK_K15.sum() == pytest.approx(2.0, abs=1e-15)

    def test_unresolvable_integrand_gives_up(self, flat3):
        """sin(10^4 x) needs more open panels per segment than the cap; the
        segment reads nan and the reconstruction refuses with a PathError."""
        from movingframes.herglotz import PathError, _OPEN_PER_SEGMENT, _line_integrals
        chart, metric = flat3
        pts = sample_points(chart, "random", 4, seed=44)
        wild = _with_k(analyze_flow(metric, [num(0), num(0), num(1)], pts),
                       [call("sin", mul(num(10 ** 4), sym("x"))), num(0), num(0)])
        starts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        ends = np.array([[0.9, 0.0, 0.0], [0.0, 0.5, 0.0]])
        ints = _line_integrals(wild.adapted.u, wild.adapted.f, chart, starts, ends, 1e-10)
        assert np.isnan(ints[0]) and ints[1] == 0.0
        with pytest.raises(PathError, match=f"more than {_OPEN_PER_SEGMENT} open panels"):
            reconstruct_lambda(wild, rows(pts)[0], 0.0)


_H = herglotz._FD_STEP
_BOX = {"x": (0.4, 1.6), "y": (-0.6, 0.6), "z": (-1.0, 1.0)}
# a disk, a slab of width 1.2e-4 right of x = 0.9 behind a guard, a notch
# 2e-5 wide that leaves no stencil room between it and the face x = 1.6, and
# an exclusion that cannot be evaluated left of x = 0.9; the x of each edge
_EXCLUSIONS = {"none": [], "disk": ["x^2 + y^2 < 0.25"],
               "slab": ["x < 0.9", "log(x - 0.9) < -9"], "notch": ["(x - 1.5998)^2 < 1e-10"],
               "undefined": ["log(x - 0.9) < -30"]}
_EDGES = {"slab": 0.9, "notch": 1.59981, "undefined": 0.9}


def _chart(texts) -> Chart:
    chart = Chart(list(_BOX), domain=_BOX)
    return Chart(chart.coords, domain=_BOX,
                 exclusions=tuple(parse_exclusion(t, chart) for t in texts))


@st.composite
def _target(draw, kind):
    """A point with each coordinate inside the box or within 2.5 steps of a
    face, and often x within 2.5 steps of the exclusion's edge.  Where the
    exclusion cannot be evaluated, x stays right of 0.9 away from the edge."""
    pt = []
    for c, (lo, hi) in _BOX.items():
        lo = 0.9 if kind == "undefined" and c == "x" else lo
        k = draw(st.floats(0.0, 2.5)) * _H
        pt.append(draw(st.sampled_from([draw(st.floats(lo, hi)), lo + k, hi - k])))
    if kind != "none" and draw(st.booleans()):
        if kind == "disk":
            pt[1] = draw(st.floats(-0.29, 0.29))
        edge = math.sqrt(0.25 - pt[1] ** 2) if kind == "disk" else _EDGES[kind]
        pt[0] = edge + draw(st.floats(-2.5, 2.5)) * _H
    return pt


@st.composite
def _admissibility_case(draw):
    kind = draw(st.sampled_from(sorted(_EXCLUSIONS)))
    targets = np.array(draw(st.lists(_target(kind), min_size=1, max_size=4)))
    base = np.array([draw(st.floats(1.0, 1.6)), draw(st.floats(-0.6, 0.6)),
                     draw(st.floats(-1.0, 1.0))])
    step = np.array(draw(st.lists(st.floats(-0.01, 0.01), min_size=3, max_size=3)))
    paths = herglotz._along(np.broadcast_to(base, targets.shape), targets, 17)
    p = np.repeat(targets, 3, axis=0)
    e = np.tile(np.eye(3) * _H, (len(targets), 1))
    return _chart(_EXCLUSIONS[kind]), paths, targets, targets + step, p, e


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (herglotz.PathError, EvalDomainError) as exc:
        return exc


class TestAdmissible:
    @settings(max_examples=300, deadline=None)
    @given(_admissibility_case())
    def test_central_first_matches_the_single_pass(self, case):
        """The central-first check agrees with the single pass over every
        stencil point on leaf_fit, the stencil chosen, the rows no stencil
        fits and any error (class, message and point), except where that
        pass faults only at a one-sided point of a row whose central stencil
        fits: such a point is no longer evaluated."""
        chart, paths, leaf_from, leaf_to, p, e = case
        want = _outcome(reference.admissible, chart, paths, leaf_from, leaf_to, p, e)
        got = _outcome(herglotz._admissible, chart, paths, leaf_from, leaf_to, p, e)
        if isinstance(want, EvalDomainError) and not isinstance(got, EvalDomainError):
            central = herglotz._STENCIL_OFFSETS[herglotz._STENCIL_SPANS[0]]
            at = np.array([want.point[c] for c in chart.coords])
            lines = p[:, None, :] + herglotz._STENCIL_OFFSETS[:, None] * e[:, None, :]
            row, k = np.argwhere(np.all(lines == at, axis=2))[0]
            assert herglotz._STENCIL_OFFSETS[k] not in central
            fits = herglotz._path_faults(chart, p[row] + central[:, None] * e[row]) < 0
            assert fits.all()
            assert isinstance(got, herglotz.PathError) or got[1][row] == 0
        elif isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            assert getattr(got, "point", None) == getattr(want, "point", None)
        else:
            leaf_fit, fits = want
            assert np.array_equal(got[0], leaf_fit)
            assert np.array_equal(got[1], np.where(fits.any(axis=0), fits.argmax(axis=0), -1))

    def test_undefined_exclusion_at_a_one_sided_point_is_not_evaluated(self):
        """An exclusion that cannot be evaluated only at the backward points
        of a sample whose central stencil fits: the single pass over every
        stencil point faulted there (exit 2); now the run verifies."""
        cfg = {"schema_version": "1",
               "chart": {"coordinates": list(_BOX), "domain": {c: list(b) for c, b in _BOX.items()}},
               "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
               "flow": ["-y", "x", "1"],
               "samples": {"mode": "random", "count": 20, "seed": 42},
               "tasks": ["curvature", "classify", "flow", "herglotz"],
               "basepoint": [1.0, 0.0, 0.0]}
        sample = np.array([col[0] for col in sample_points(_chart([]), "random", 20, 42).values()])
        pole = float(sample[0] + herglotz._STENCIL_OFFSETS[0] * _H)   # two steps back along x
        cfg["chart"]["exclusions"] = [f"1/(x - {pole!r}) > 1e300"]
        chart = _chart(cfg["chart"]["exclusions"])
        p, e, none = np.repeat(sample[None], 3, axis=0), np.eye(3) * _H, np.empty((0, 3))
        with pytest.raises(EvalDomainError, match="division by zero") as old:
            reference.admissible(chart, none, none, none, p, e)
        assert old.value.point == chart.point([pole, *sample[1:]])
        report, code = run_pipeline(load_config(cfg))
        assert code == 0 and report["tasks"]["herglotz"]["verdict"] == "isometric-verified"


class TestKilling:
    def test_exact_killing_field(self, screw):
        """V = (-y, x, 1) is Killing for the flat metric."""
        res = max_abs(lie_derivative_at(screw["metric"], screw["flow"],
                                        screw["flow_data"].adapted.coframe.vectors,
                                        screw["points"]))
        assert res < 1e-12

    def test_translation(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 6, seed=35)
        assert max_abs(lie_derivative_at(metric, [num(0), num(0), num(1)], None, pts)) == 0.0

    def test_twist_residual_one(self):
        chart = Chart(["x", "y", "z"],
                      domain={"x": (-1, 1), "y": (-1, 1), "z": (0.2, 1.2)})
        metric = Metric(chart, [[num(1) if i == j else num(0) for j in range(3)]
                                for i in range(3)])
        pts = sample_points(chart, "random", 10, seed=36)
        V = [call("cos", sym("z")), call("sin", sym("z")), num(0)]
        fl = analyze_flow(metric, V, pts)
        res = max_abs(lie_derivative_at(metric, V, fl.adapted.coframe.vectors, pts))
        assert res >= 1.0 - 1e-8
        assert res == pytest.approx(1.0, abs=1e-8)

    def test_scaled_flow_killing(self, screw):
        fl = screw["flow_data"]
        hyp = check_hypotheses(fl, screw["classification"])
        lam = reconstruct_lambda(fl, screw["basepoint"], hyp.closedness_residual)
        res = scaled_flow_killing_residual(fl, lam)
        assert res < 1e-7

    def test_stencil_fault_follows_the_leaf_estimate(self):
        """No stencil fits in a box 1.5e-4 thick along z.  Lambda and the leaf
        estimate (every leaf step leaves the box, so none is taken) are still
        reported; the stencil fault is then the verdict's reason."""
        chart = Chart(["x", "y", "z"],
                      domain={"x": (0.4, 1.6), "y": (-0.6, 0.6), "z": (0.0, 1.5e-4)})
        metric = Metric(chart, [[num(1) if i == j else num(0) for j in range(3)]
                                for i in range(3)])
        base = {"x": 1.0, "y": 0.0, "z": 5e-5}
        pts = columns([base] + rows(sample_points(chart, "random", 6, seed=45)))
        fl = analyze_flow(metric, [-sym("y"), sym("x"), num(1)], pts)
        fd = curvature_package(build_coframe(metric, samples=pts))
        rep = run_herglotz(fl, classify_space(fd, fd.curvature_values(pts)), base)
        assert rep.verdict == "inconsistent"
        assert re.fullmatch(r"finite-difference stencil at \{.*\} leaves the domain along z",
                            rep.reason)
        assert rep.lam.leaf_derivative_residual == 0.0 and rep.lam.log_gradient is None
        assert rep.killing_residual is None

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
        assert abs(eval_at(flow_invariants(fl.adapted).m[0][1], base)) == pytest.approx(
            2.0 / 5.0, rel=1e-9)
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
        inv = flow_invariants(fl.adapted)
        for p in rows(pts)[:6]:
            assert abs(eval_at(inv.m[0][1], p)) == pytest.approx(1.0, rel=1e-9)
            assert abs(eval_at(inv.k[0], p)) < 1e-12
            assert abs(eval_at(inv.k[1], p)) < 1e-12
        # constraint identities hold in the curved ambient too
        rep = constraint_residuals(fl, fd, None)
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
        rep = ricci_flat_check(constraint_residuals(fl, fd, None),
                               classify_space(fd, fd.curvature_values(pts)))
        assert rep.applicable and rep.max_residual() == 0.0

    def test_sphere_ambient_inapplicable(self, sphere2_frame, screw):
        rep = ricci_flat_check(screw["constraints"], sphere2_frame["classification"])
        assert not rep.applicable
        assert "not Ricci flat" in rep.reason


def test_k_from_f_matches_k_on_the_coframe(screw):
    """K_mu = -u^nu F_nu mu, as the quadrature forms it from u and F, against
    sum_i K_i theta^i_mu built on the symbolic reference frame (K_i from
    d psi0 contracted on it), at the Gauss-Kronrod nodes of the segments from
    the basepoint to each sample: the screw flow, the Hopf flow and a
    conformal 4-D flow."""
    from movingframes.herglotz import _GK_NODES, _k_values
    eta = sym("eta")
    hopf = Chart(["eta", "xi1", "xi2"],
                 domain={"eta": (0.3, 1.2), "xi1": (0.1, 5.9), "xi2": (0.1, 5.9)})
    hopf_metric = Metric(hopf, [[num(1), num(0), num(0)],
                                [num(0), call("cos", eta) ** 2, num(0)],
                                [num(0), num(0), call("sin", eta) ** 2]])
    conf = Chart(["x", "y", "z", "w"],
                 domain={"x": (0.5, 1.5), "y": (-0.5, 0.5), "z": (-1.0, 1.0), "w": (-1.0, 1.0)})
    x, y = sym("x"), sym("y")
    factor = call("exp", mul(num(Fraction(1, 5)), x ** 2 + y ** 2))
    conf_metric = Metric(conf, [[factor if i == j else num(0) for j in range(4)]
                                for i in range(4)])
    flows = [screw["flow_data"],
             analyze_flow(hopf_metric, [call("sin", eta), num(1), call("cos", sym("xi1"))],
                          sample_points(hopf, "random", 5, seed=46)),
             analyze_flow(conf_metric, [-y, x, num(1), mul(num(Fraction(1, 2)), x)],
                          sample_points(conf, "random", 5, seed=47))]
    for fl in flows:
        chart, theta = fl.chart, fl.adapted.coframe.theta
        inv = flow_invariants(fl.adapted)
        k_mu = [add(*[mul(k, t.coefficient((mu,))) for k, t in zip(inv.k, theta[1:])])
                for mu in range(chart.n)]
        ends = np.column_stack([fl.samples[c] for c in chart.coords])
        base = ends[:1]
        t = 0.5 + 0.5 * _GK_NODES
        nodes = base[:, None, :] + t[None, :, None] * (ends - base)[:, None, :]
        pts = dict(zip(chart.coords, nodes.reshape(-1, chart.n).T))
        want = evaluate(k_mu, pts)
        got = _k_values(fl.adapted.u, fl.adapted.f, pts)
        assert np.max(np.abs(want)) > 0.1
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
