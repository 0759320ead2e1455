"""Adapted coframes, flow invariants, rigidity and the constraint system."""

import gc
import types
from fractions import Fraction

import numpy as np
import pytest

from movingframes import expression
from movingframes.expression import (Chart, add, call, diff, eval_at, evaluate, mul,
                                     num, sample_points, simplify, sym)
from movingframes.exterior import contract
from movingframes.frames import Metric, build_coframe, curvature_package, solve_connection
from movingframes.submersion import (VanishingFlowError, adapted_coframe,
                                     analyze_flow, constraint_residuals,
                                     constraint_rows, covariant_derivative, flow_invariants,
                                     lie_derivative_at, rigidity_test)

import oracle
from helpers import columns, metric_fn, rows, symbolic_riemann, vector_fn

BASE = {"x": 1.0, "y": 0.0, "z": 0.0}


def _identity3(chart):
    return Metric(chart, [[num(1) if i == j else num(0) for j in range(3)]
                          for i in range(3)])


@pytest.fixture(scope="module")
def rotation():
    """Pure rotation u = (-y, x, 0)/r away from the axis."""
    chart = Chart(["x", "y", "z"],
                  domain={"x": (0.5, 1.8), "y": (-0.4, 0.4), "z": (-1.0, 1.0)})
    metric = _identity3(chart)
    points = columns([dict(BASE)] + rows(sample_points(chart, "random", 15, seed=21)))
    flow = [-sym("y"), sym("x"), num(0)]
    return {"chart": chart, "metric": metric, "points": points,
            "flow_data": analyze_flow(metric, flow, points)}


@pytest.fixture(scope="module")
def twist():
    """Shear field u = (cos z, sin z, 0): unit length but not rigid."""
    chart = Chart(["x", "y", "z"],
                  domain={"x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (0.2, 1.2)})
    metric = _identity3(chart)
    points = sample_points(chart, "random", 15, seed=22)
    flow = [call("cos", sym("z")), call("sin", sym("z")), num(0)]
    return {"chart": chart, "metric": metric, "points": points, "flow": flow,
            "flow_data": analyze_flow(metric, flow, points),
            "frame": curvature_package(build_coframe(metric, samples=points))}


class TestAdaptedCoframe:
    def test_vertical_translation(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 10, seed=23)
        ad = adapted_coframe(metric, [num(0), num(0), num(1)], pts)[0]
        psi0 = ad.coframe.theta[0]
        assert psi0.coefficient((2,)) is num(1) and len(psi0.coeffs) == 1
        assert ad.coframe.theta[1].coefficient((0,)) is num(1)
        assert ad.coframe.theta[2].coefficient((1,)) is num(1)

    def test_screw_psi0_is_unit(self, screw):
        psi0 = screw["flow_data"].adapted.coframe.theta[0]
        g = screw["metric"]
        for p in rows(screw["points"])[:10]:
            memo = {}
            psi = [eval_at(psi0.coefficient((mu,)), p, memo) for mu in range(3)]
            # flat metric: |psi0|^2 = sum of squares
            assert sum(v * v for v in psi) == pytest.approx(1.0, abs=1e-12)
            expected = np.array([-p["y"], p["x"], 1.0])
            expected /= np.linalg.norm(expected)
            assert np.allclose(psi, expected, atol=1e-12)

    def test_adapted_flow_keeps_no_walk_arrays(self, screw):
        """analyze_flow hands the adapted walk to flow_jet and keeps none of it
        (at the sample cap dF alone is tens of MB): the only arrays reachable
        from FlowData.adapted are the sample columns, at which its coframe
        checks the symbolic reference's pivots."""
        fl = analyze_flow(screw["metric"], screw["flow"], screw["points"])
        seen, stack, arrays = set(), [fl.adapted], []
        while stack:
            x = stack.pop()
            if id(x) in seen or isinstance(x, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(x))
            if isinstance(x, np.ndarray):
                arrays.append(x)
            else:
                stack.extend(gc.get_referents(x))
        assert {id(fl.adapted.coframe), id(fl.adapted.u[0]), id(fl.adapted.f[0][1])} <= seen
        assert arrays and all(any(a is c for c in fl.samples.values()) for a in arrays)

    def test_zero_flow_rejected(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 5, seed=24)
        with pytest.raises(VanishingFlowError) as err:
            adapted_coframe(metric, [num(0), num(0), num(0)], pts)
        assert err.value.point is not None

    def test_duality(self, screw):
        cf = screw["flow_data"].adapted.coframe
        for p in rows(screw["points"])[:6]:
            memo = {}
            theta = np.array([[eval_at(cf.theta[a].coefficient((mu,)), p, memo)
                               if (mu,) in cf.theta[a].coeffs else 0.0
                               for mu in range(3)] for a in range(3)])
            evec = np.array([[eval_at(c, p, memo) for c in row] for row in cf.vectors])
            assert np.allclose(theta @ evec.T, np.eye(3), atol=1e-12)


class TestFlowInvariants:
    def test_translation_has_no_invariants(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 10, seed=25)
        fl = analyze_flow(metric, [num(0), num(0), num(1)], pts)
        assert not fl.jet["m"].any()
        assert all(k.is_zero() for k in flow_invariants(fl.adapted).k)

    def test_screw_values_at_base(self, screw):
        inv = flow_invariants(screw["flow_data"].adapted)
        m12 = eval_at(inv.m[0][1], BASE)
        assert abs(m12) == pytest.approx(0.5, abs=1e-6)
        # the first horizontal leg at (1,0,0) is radial
        assert eval_at(inv.k[0], BASE) == pytest.approx(0.5, abs=1e-6)
        assert eval_at(inv.k[1], BASE) == pytest.approx(0.0, abs=1e-12)

    def test_screw_analytic_profiles(self, screw):
        """|M_12| = w/(1 + w^2 r^2) and K = d log sqrt(1 + r^2) for w = 1."""
        inv = flow_invariants(screw["flow_data"].adapted)
        for p in rows(screw["points"])[:10]:
            r2 = p["x"] ** 2 + p["y"] ** 2
            assert abs(eval_at(inv.m[0][1], p)) == pytest.approx(1.0 / (1.0 + r2), rel=1e-9)
            kmag = np.hypot(eval_at(inv.k[0], p), eval_at(inv.k[1], p))
            # |d log lambda| = r/(1+r^2)
            assert kmag == pytest.approx(np.sqrt(r2) / (1.0 + r2), rel=1e-9)

    def test_screw_against_fd_dpsi0_oracle(self, screw):
        fl = screw["flow_data"]
        chart = screw["chart"]
        cf = fl.adapted.coframe
        inv = flow_invariants(fl.adapted)
        psi0 = cf.theta[0]
        psi_fn = vector_fn([psi0.coefficient((mu,)) for mu in range(3)], chart)
        for p in rows(screw["points"])[:6]:
            arr = np.array([p[c] for c in chart.coords])
            dps = oracle.d_of_one_form(psi_fn, arr)
            memo = {}
            evec = np.array([[eval_at(c, p, memo) for c in row] for row in cf.vectors])
            for i in range(2):
                kd = -(evec[0] @ dps @ evec[i + 1])
                assert kd == pytest.approx(eval_at(inv.k[i], p, memo), abs=1e-6)
                for j in range(2):
                    md = -0.5 * (evec[i + 1] @ dps @ evec[j + 1])
                    assert md == pytest.approx(eval_at(inv.m[i][j], p, memo), abs=1e-6)

    def test_two_path_and_skewness(self, screw):
        fl = screw["flow_data"]
        assert fl.two_path < 1e-9
        assert fl.skewness < 1e-9

    def test_rotation_is_non_rotational(self, rotation):
        fl = rotation["flow_data"]
        assert np.max(np.abs(fl.jet["m"])) < 1e-9
        # radial K leg = 1/r; at (1,0,0) this is 1
        assert eval_at(flow_invariants(fl.adapted).k[0], BASE) == pytest.approx(1.0, abs=1e-6)
        # d psi0 = (1/r) theta_r ^ psi0: FD cross-check of the extraction
        chart = rotation["chart"]
        psi0 = fl.adapted.coframe.theta[0]
        psi_fn = vector_fn([psi0.coefficient((mu,)) for mu in range(3)], chart)
        arr = np.array([BASE[c] for c in chart.coords])
        dps = oracle.d_of_one_form(psi_fn, arr)
        evec = fl.jet["e"][..., 0]          # the fixture's first sample is BASE
        assert -(evec[0] @ dps @ evec[1]) == pytest.approx(1.0, abs=1e-6)
        assert evec[1] @ dps @ evec[2] == pytest.approx(0.0, abs=1e-6)


class TestRigidity:
    def test_screw_rigid(self, screw):
        fl = screw["flow_data"]
        assert fl.rigidity.rigid and fl.rigidity.residual < 1e-9

    def test_against_lie_oracle(self, screw):
        chart = screw["chart"]
        g_fn = metric_fn(screw["metric"], chart)
        u_fn = vector_fn(screw["flow_data"].adapted.u, chart)
        for q, p in enumerate(rows(screw["points"])[:5]):
            arr = np.array([p[c] for c in chart.coords])
            lie = oracle.lie_derivative_metric(g_fn, u_fn, arr)
            evec = screw["flow_data"].jet["e"][..., q]
            horiz = evec[1:] @ lie @ evec[1:].T
            assert np.max(np.abs(horiz)) < 1e-7

    def test_translation_rigid(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 8, seed=26)
        fl = analyze_flow(metric, [num(0), num(0), num(1)], pts)
        assert fl.rigidity.residual == 0.0

    def test_twist_not_rigid_residual_one(self, twist):
        fl = twist["flow_data"]
        assert not fl.rigidity.rigid
        assert fl.rigidity.residual == pytest.approx(1.0, abs=1e-8)
        # pointwise too, at every sample, not just the sup
        lie = fl.jet["lie"]
        for q in range(lie.shape[-1]):
            assert rigidity_test(lie[..., q:q + 1], 1e-9).residual == pytest.approx(1.0, abs=1e-8)
        chart = twist["chart"]
        g_fn = metric_fn(twist["metric"], chart)
        u_fn = vector_fn(fl.adapted.u, chart)
        arr = np.array([twist["points"][c][0] for c in chart.coords])
        lie = oracle.lie_derivative_metric(g_fn, u_fn, arr)
        evec = fl.jet["e"][..., 0]
        horiz = evec[1:] @ lie @ evec[1:].T
        assert np.max(np.abs(horiz)) == pytest.approx(1.0, abs=1e-6)


class TestCovariantDerivative:
    def test_constant_scalar(self, screw):
        out = covariant_derivative(num(4), screw["flow_data"], rank=0)
        assert all(c.is_zero() for c in out)

    def test_coordinate_scalar_vertical_flow(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 6, seed=27)
        fl = analyze_flow(metric, [num(0), num(0), num(1)], pts)
        out = covariant_derivative(sym("x"), fl, rank=0)
        # index 0 = leaf (u = d_z), then horizontal legs d_x, d_y
        assert out[0].is_zero()
        assert out[1] is num(1)
        assert out[2].is_zero()

    def test_screw_k_closed(self, screw):
        fl = screw["flow_data"]
        kc = covariant_derivative(flow_invariants(fl.adapted).k, fl, rank=1)
        worst = 0.0
        for p in rows(screw["points"])[:10]:
            memo = {}
            for i in range(2):
                for j in range(2):
                    worst = max(worst, 0.5 * abs(eval_at(kc[i][j + 1], p, memo)
                                                 - eval_at(kc[j][i + 1], p, memo)))
        assert worst < 1e-8

    def test_screw_k_closed_fd_oracle(self, screw):
        """Frame finite differences reproduce K_i;j off-diagonal symmetry."""
        fl = screw["flow_data"]
        chart = screw["chart"]
        inv = flow_invariants(fl.adapted)
        kc = covariant_derivative(inv.k, fl, rank=1)
        k_fns = [vector_fn([inv.k[i]], chart) for i in range(2)]
        q = 2
        p = rows(screw["points"])[q]
        arr = np.array([p[c] for c in chart.coords])
        jet = fl.jet
        evec = jet["e"][..., q]
        memo = {}
        for i in range(2):
            for j in range(2):
                # e_j(K_i) by FD along the frame leg, then connection correction
                fd = oracle.directional_derivative(lambda a: k_fns[i](a)[0], evec[j + 1], arr)
                corr = sum(jet["abar"][l, i, j + 1, q] * jet["k"][l, q] for l in range(2))
                assert fd - corr == pytest.approx(eval_at(kc[i][j + 1], p, memo), abs=1e-6)
                assert fd - corr == pytest.approx(jet["kc"][i, j + 1, q], abs=1e-6)

    def test_screw_m_and_k_basic(self, screw):
        fl = screw["flow_data"]
        inv = flow_invariants(fl.adapted)
        mc = covariant_derivative(inv.m, fl, rank=2)
        kc = covariant_derivative(inv.k, fl, rank=1)
        for p in rows(screw["points"])[:10]:
            memo = {}
            for i in range(2):
                assert abs(eval_at(kc[i][0], p, memo)) < 1e-8
                for j in range(2):
                    assert abs(eval_at(mc[i][j][0], p, memo)) < 1e-8

    def test_arity_mismatch(self, screw):
        from movingframes.exterior import FormArityError
        with pytest.raises(FormArityError):
            covariant_derivative([num(1), num(2), num(3)], screw["flow_data"], rank=1)


class TestFlowJet:
    @staticmethod
    def _symbolic_route(fl, pts):
        """The adapted-frame data built symbolically: the connection slots
        alpha^a_b(e_g) from solve_connection, the frame components of the
        coordinate Lie formula for L_u g, and M;g, K;g from
        covariant_derivative."""
        chart, vec = fl.chart, fl.adapted.coframe.vectors
        g, u, n = fl.adapted.metric.entries, fl.adapted.u, chart.n
        alpha = solve_connection(fl.adapted.coframe)
        conn = [[[contract(alpha[a, b], [vec[c]]) for c in range(n)] for b in range(n)]
                for a in range(n)]

        def d(e, mu):
            return diff(e, chart.coords[mu])

        lie = [[add(*[mul(u[r], d(g[m][q], r)) for r in range(n)],
                    *[mul(g[r][q], d(u[r], m)) for r in range(n)],
                    *[mul(g[m][r], d(u[r], q)) for r in range(n)])
                for q in range(n)] for m in range(n)]
        lie_frame = [[add(*[mul(vec[a][m], vec[b][q], lie[m][q])
                            for m in range(n) for q in range(n)])
                      for b in range(n)] for a in range(n)]
        inv = flow_invariants(fl.adapted)
        return evaluate({"conn": conn, "lie": lie_frame,
                         "mc": covariant_derivative(inv.m, fl, rank=2),
                         "kc": covariant_derivative(inv.k, fl, rank=1)}, pts)

    def test_matches_symbolic_route(self, screw, twist):
        """The forward-mode jet against the symbolic route, component by
        component: the adapted connection, L_u g (also through
        lie_derivative_at with the frame), M_ij;g and K_i;g.  The screw flow
        is rigid; the Hopf, twist and conformal-4D flows are not, so their
        horizontal L_u g does not vanish."""
        eta = sym("eta")
        hopf = Chart(["eta", "xi1", "xi2"],
                     domain={"eta": (0.3, 1.2), "xi1": (0.1, 5.9), "xi2": (0.1, 5.9)})
        hopf_metric = Metric(hopf, [[num(1), num(0), num(0)],
                                    [num(0), call("cos", eta) ** 2, num(0)],
                                    [num(0), num(0), call("sin", eta) ** 2]])
        conf = Chart(["x", "y", "z", "w"])
        x, y = sym("x"), sym("y")
        factor = call("exp", mul(num(Fraction(3, 5)), x) + mul(num(Fraction(1, 5)), y ** 2))
        conf_metric = Metric(conf, [[factor if i == j else num(0) for j in range(4)]
                                    for i in range(4)])
        hopf_pts = sample_points(hopf, "random", 6, seed=43)
        conf_pts = sample_points(conf, "random", 6, seed=44)
        cases = [(screw["flow_data"], True),
                 (analyze_flow(hopf_metric, [call("sin", eta), num(1), call("cos", sym("xi1"))],
                               hopf_pts), False),
                 (twist["flow_data"], False),
                 (analyze_flow(conf_metric, [num(1), num(0), num(0), y], conf_pts), False)]
        sizes = []                  # what the non-rigid cases put to the test
        for fl, rigid in cases:
            assert fl.rigidity.rigid is rigid
            pts = fl.samples
            got = dict(fl.jet)
            want = self._symbolic_route(fl, pts)
            if not rigid:
                assert np.max(np.abs(want["lie"][1:, 1:])) > 0.1
                sizes.append({k: np.max(np.abs(v)) for k, v in want.items()})
            shuffled = dict(reversed(list(pts.items())))    # the chart fixes the derivative axis
            again = analyze_flow(fl.adapted.metric, fl.adapted.flow, shuffled).jet
            assert all(np.array_equal(again[k], v) for k, v in fl.jet.items())
            got["lie_at"] = lie_derivative_at(fl.adapted.metric, fl.adapted.u,
                                              fl.adapted.coframe.vectors, shuffled)
            want["lie_at"] = want["lie"]
            for name, w in want.items():
                assert got[name].shape == w.shape, name
                assert np.all(np.abs(got[name] - w) <= 1e-10 * np.maximum(1.0, np.abs(w))), name
        assert all(max(s[k] for s in sizes) > 0.1 for k in ("conn", "mc", "kc"))


    def test_adapted_frame_and_invariants_match_the_symbolic_route(self, screw):
        """The adapted frame e_a^mu and its jet d_nu e_a^mu (numeric
        Gram-Schmidt of [u, d_0, ...] with tangents), M, K, M;g and K;g
        against the symbolic route: the symbolic Gram-Schmidt vectors and
        their diff, d psi0 contracted on them (flow_invariants) and
        covariant_derivative.  The flow along x on the conformal 4-space
        skips the coordinate seed d_x, and the diagonal flow in flat space
        skips d_y: each projection is structurally zero in the symbolic
        route and about 1e-32 in the numeric one, below the 1e-10 skip rule."""
        eta = sym("eta")
        hopf = Chart(["eta", "xi1", "xi2"],
                     domain={"eta": (0.3, 1.2), "xi1": (0.1, 5.9), "xi2": (0.1, 5.9)})
        hopf_metric = Metric(hopf, [[num(1), num(0), num(0)],
                                    [num(0), call("cos", eta) ** 2, num(0)],
                                    [num(0), num(0), call("sin", eta) ** 2]])
        conf = Chart(["x", "y", "z", "w"])
        x, y = sym("x"), sym("y")
        factor = call("exp", mul(num(Fraction(3, 5)), x) + mul(num(Fraction(1, 5)), y ** 2))
        conf_metric = Metric(conf, [[factor if i == j else num(0) for j in range(4)]
                                    for i in range(4)])
        flat = Chart(["x", "y", "z"])
        cases = [(screw["flow_data"], (0, 1, 2)),
                 (analyze_flow(hopf_metric, [call("sin", eta), num(1), call("cos", sym("xi1"))],
                               sample_points(hopf, "random", 6, seed=43)), (0, 1, 2)),
                 (analyze_flow(conf_metric, [num(1), num(0), num(0), num(0)],
                               sample_points(conf, "random", 6, seed=44)), (0, 2, 3, 4)),
                 (analyze_flow(_identity3(flat), [num(1), num(1), num(0)],
                               sample_points(flat, "random", 6, seed=45)), (0, 1, 3))]
        for fl, kept in cases:
            n = fl.chart.n
            seeds = [fl.adapted.u] + [tuple(num(1) if mu == k else num(0) for mu in range(n))
                                      for k in range(n)]
            assert fl.adapted.coframe.seeds == tuple(seeds[k] for k in kept)
            vec, coords = fl.adapted.coframe.vectors, fl.chart.coords
            inv = flow_invariants(fl.adapted)
            want = evaluate({"e": vec, "de": [[[diff(c, x) for x in coords] for c in row]
                                              for row in vec],
                             "m": inv.m, "k": inv.k,
                             "mc": covariant_derivative(inv.m, fl, rank=2),
                             "kc": covariant_derivative(inv.k, fl, rank=1)}, fl.samples)
            for name, w in want.items():
                got = fl.jet[name]
                assert got.shape == w.shape, name
                assert np.all(np.abs(got - w) <= 1e-12 * np.maximum(1.0, np.abs(w))), name
        assert np.max(np.abs(cases[2][0].jet["kc"])) > 0.1


class TestConstraintSystem:
    def test_tilde_free_identities(self, screw):
        rep = screw["constraints"]
        for name, value in rep.tilde_free.items():
            assert value < 1e-7, name

    def test_translation_trivial(self, flat3):
        chart, metric = flat3
        pts = sample_points(chart, "random", 8, seed=28)
        fl = analyze_flow(metric, [num(0), num(0), num(1)], pts)
        rep = constraint_residuals(fl, curvature_package(build_coframe(metric, samples=pts)), None)
        assert rep.max_tilde_free() == 0.0
        assert np.all(rep.quotient_scalar == 0.0)

    def test_quotient_curvature_value_and_sign(self, screw):
        """Rq_1212 = +3 M_12^2 = 0.75 at r = 1, sign fixed by the
        transversal-metric Gauss-curvature oracle."""
        rep = screw["constraints"]
        fl = screw["flow_data"]
        assert rows(screw["points"])[0] == BASE
        val = rep.quotient_riemann[0, 1, 0, 1, 0]
        m12 = eval_at(flow_invariants(fl.adapted).m[0][1], BASE)
        assert val == pytest.approx(0.75, abs=1e-5)
        assert val == pytest.approx(3.0 * m12 * m12, abs=1e-9)

        # independent oracle: quotient metric on the z=0 transversal
        u_fn = vector_fn(fl.adapted.u, screw["chart"])

        def qmetric(x, y):
            uu = u_fn(np.array([x, y, 0.0]))

            def h(w):
                return w - (w @ uu) * uu

            wx, wy = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
            hx, hy = h(wx), h(wy)
            return np.array([[hx @ hx, hx @ hy], [hx @ hy, hy @ hy]])

        gauss = oracle.gauss_curvature_2d(qmetric, (1.0, 0.0))
        assert gauss == pytest.approx(val, abs=1e-3)
        assert np.sign(gauss) == np.sign(val)

    def test_quotient_profile(self, screw):
        """Gauss curvature of the quotient is 3/(1+r^2)^2 everywhere."""
        rep = screw["constraints"]
        for q, p in enumerate(rows(screw["points"])[:8]):
            r2 = p["x"] ** 2 + p["y"] ** 2
            assert rep.quotient_riemann[0, 1, 0, 1, q] == pytest.approx(
                3.0 / (1.0 + r2) ** 2, rel=1e-9)

    def test_quotient_consistency_and_basicness(self, screw):
        rep = screw["constraints"]
        assert rep.ricci_cross_residual < 1e-9
        assert rep.scalar_cross_residual < 1e-9
        assert rep.quotient_leaf_residual < 1e-7
        assert rep.m2_leaf_residual < 1e-7

    def test_advisory_for_non_rigid(self, twist):
        rep = constraint_residuals(twist["flow_data"], twist["frame"], None)
        assert rep.advisory

    @staticmethod
    def _symbolic_route(fl, pts):
        """The constraint system built symbolically in the adapted frame: the
        Riemann tensor from d alpha + alpha ^ alpha, its Ricci tensor and Rq
        from it, slot 0 of the rank-4 covariant derivative of Rq, and the
        five tilde-free rows."""
        h = fl.horizontal
        inv = flow_invariants(fl.adapted)
        m, k = inv.m, inv.k
        R = symbolic_riemann(fl.adapted.coframe)
        eta = fl.adapted.coframe.eta
        ricci = [[add(*[mul(num(e), R[i][j][i][l]) for i, e in enumerate(eta)])
                  for l in range(h + 1)] for j in range(h + 1)]
        mc = covariant_derivative(m, fl, rank=2)
        kc = covariant_derivative(k, fl, rank=1)
        mm = [[add(*[mul(m[i][l], m[l][j]) for l in range(h)]) for j in range(h)]
              for i in range(h)]
        rq = [[[[simplify(add(R[i + 1][j + 1][kk + 1][l + 1], mul(m[i][kk], m[j][l]),
                              mul(num(-1), m[i][l], m[j][kk]), mul(num(2), m[i][j], m[kk][l])))
                 for l in range(h)] for kk in range(h)] for j in range(h)] for i in range(h)]
        leaf = [[[[c[0] for c in row] for row in b] for b in a]
                for a in covariant_derivative(rq, fl, rank=4)]
        H = range(h)
        rows = {
            "R_0i0j": [[add(R[0][i + 1][0][j + 1], mc[i][j][0], kc[i][j + 1],
                            mul(k[i], k[j]), mm[i][j]) for j in H] for i in H],
            "R_0ijk": [[[add(R[0][i + 1][j + 1][kk + 1], mc[i][kk][j + 1],
                             mul(num(-1), mc[i][j][kk + 1]), mul(num(2), k[i], m[j][kk]))
                         for kk in H] for j in H] for i in H],
            "R_ij0k": [[[add(R[i + 1][j + 1][0][kk + 1], mul(num(-1), mc[kk][i][j + 1]),
                             mc[kk][j][i + 1], mul(num(2), m[i][j], k[kk]))
                         for kk in H] for j in H] for i in H],
            "R_00": add(ricci[0][0], *[kc[i][i + 1] for i in H], *[mul(c, c) for c in k],
                        *[mul(num(-1), m[i][j], m[i][j]) for i in H for j in H]),
            "R_0i": [add(ricci[0][i + 1], *[mul(num(-1), mc[j][i][j + 1]) for j in H],
                         *[mul(num(2), k[j], m[i][j]) for j in H]) for i in H],
        }
        return evaluate({"R": R, "rq": rq, "leaf": leaf, **rows}, pts)

    def test_quotient_leaf_derivative_matches_symbolic_slot(self):
        """The frame-change route against the symbolic adapted-frame route,
        component by component: R_abcd, Rq_ijkl, Rq_ijkl;0 and the five
        tilde-free rows.  Non-rigid flows with vorticity M and leaf
        derivatives that do not vanish: on the round 3-sphere in Hopf
        coordinates, on a conformally flat 4-space, and on flat 4-space with
        an M whose u-derivative is not proportional to M (the other two have
        one independent M_ij, so they cannot tell the product rule's two M
        terms apart).  The rows are formed twice: from a walk of their own,
        and from the ambient jet that the curvature walk along u kept."""
        eta = sym("eta")
        hopf = Chart(["eta", "xi1", "xi2"],
                     domain={"eta": (0.3, 1.2), "xi1": (0.1, 5.9), "xi2": (0.1, 5.9)})
        hopf_metric = Metric(hopf, [[num(1), num(0), num(0)],
                                    [num(0), call("cos", eta) ** 2, num(0)],
                                    [num(0), num(0), call("sin", eta) ** 2]])
        conf = Chart(["x", "y", "z", "w"])
        x, y, z = sym("x"), sym("y"), sym("z")
        factor = call("exp", mul(num(Fraction(3, 5)), x) + mul(num(Fraction(1, 5)), y ** 2))
        conf_metric = Metric(conf, [[factor if i == j else num(0) for j in range(4)]
                                    for i in range(4)])
        flat_metric = Metric(conf, [[num(1) if i == j else num(0) for j in range(4)]
                                    for i in range(4)])
        cases = [(hopf_metric, [call("sin", eta), num(1), call("cos", sym("xi1"))], 43, 1.0),
                 (conf_metric, [num(1), num(0), num(0), y], 44, 0.1),
                 (flat_metric, [num(1), num(0), z, y], 44, 0.1)]
        for metric, flow, seed, leaf_size in cases:
            pts = sample_points(metric.chart, "random", 6, seed=seed)
            fl = analyze_flow(metric, flow, pts)
            assert not fl.rigidity.rigid
            fd = curvature_package(build_coframe(metric, samples=pts))
            values = fd.curvature_values(pts, dict(zip(metric.chart.coords, fl.adapted.u)))
            assert "ambient" in values
            want = self._symbolic_route(fl, pts)
            assert np.max(np.abs(want["leaf"])) > leaf_size
            for got in (constraint_rows(fl, fd, None), constraint_rows(fl, fd, values["ambient"])):
                for name, w in want.items():
                    assert got[name].shape == w.shape, name
                    # u(Rq) sums many cancelling terms: against a 60-digit
                    # complex-step derivative both readings of it err by up to
                    # 2e-11 on the sphere; a wrong sign moves components by O(1)
                    assert np.all(np.abs(got[name] - w) <= 1e-10 * np.maximum(1.0, np.abs(w))), \
                        name

    def test_no_symbolic_leaf_derivative_is_built(self, screw):
        """The flow stage differentiates symbolically only to get d psi0: the
        adapted connection, L_u g, M;g and K;g come from forward-mode jets,
        and the constraint stage evaluates u(R) and u(M) instead of
        differentiating Rq.  From a cold cache the whole flow stage adds 48
        derivative-cache entries here; with the symbolic connection, L_u g
        and M;g/K;g it added 414, with a second curvature package in the
        adapted frame 1350, and with the symbolic rank-4 leaf derivative
        about 5000."""
        fd = curvature_package(build_coframe(screw["metric"], samples=screw["points"]))
        saved = dict(expression._DIFF_CACHE)
        expression._DIFF_CACHE.clear()     # count from a cold cache
        try:
            fl = analyze_flow(screw["metric"], screw["flow"], screw["points"])
            before = len(expression._DIFF_CACHE)
            constraint_residuals(fl, fd, None)
            added = len(expression._DIFF_CACHE) - before
            total = len(expression._DIFF_CACHE)
        finally:
            expression._DIFF_CACHE.update(saved)
        assert added == 0
        assert total <= 100
