"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
Every tolerance below is pinned; nothing is calibrated at runtime.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from movingframes.cli import load_config, main, run_pipeline, serialize_report
from movingframes.expression import eval_at, num, sample_points, sym
from movingframes.exterior import ext_d, pform_add, pform_scale, wedge
from movingframes.frames import (build_coframe, classify_space,
                                 curvature_package, reconstruction_residual,
                                 torsion_residual)
from movingframes.herglotz import (check_hypotheses, reconstruct_lambda,
                                   ricci_flat_check, run_herglotz,
                                   scaled_flow_killing_residual)
from movingframes.submersion import analyze_flow, covariant_derivative

import oracle
from helpers import (frame_fn, max_abs_coeff, metric_fn, random_point, random_pform, rows,
                     vector_fn)

BASE = {"x": 1.0, "y": 0.0, "z": 0.0}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL  criterion {number}: {description}")
        raise
    print(f"ACCEPTANCE PASS  criterion {number}: {description}")


def _cli_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


SCREW_CLI = {
    "schema_version": "1",
    "chart": {"coordinates": ["x", "y", "z"],
              "domain": {"x": [0.4, 1.6], "y": [-0.6, 0.6], "z": [-1.0, 1.0]}},
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "flow": ["-y", "x", "1"],
    "samples": {"mode": "random", "count": 20, "seed": 42},
    "tasks": ["curvature", "classify", "flow", "herglotz", "ricci-flat"],
    "basepoint": [1.0, 0.0, 0.0],
}


def test_criterion_1_structure_equation_exactness(flat3_frame, polar3_frame,
                                                  sphere1_frame, sphere2_frame,
                                                  hyperbolic3_frame):
    with criterion(1, "torsion and reconstruction < 1e-9 at 200 points per space"):
        for bundle in (flat3_frame, polar3_frame, sphere1_frame, sphere2_frame,
                       hyperbolic3_frame):
            pts = sample_points(bundle["chart"], "random", 200, seed=1001)
            assert torsion_residual(bundle["frame"], pts) < 1e-9
            assert reconstruction_residual(bundle["metric"], bundle["frame"].coframe,
                                           pts) < 1e-9


def test_criterion_2_curvature_oracles(flat3_frame, sphere2_frame, hyperbolic3_frame):
    with criterion(2, "sphere R_1212 = 0.25, hyperbolic kappa = -1, flat R = 0, "
                      "vs finite-difference Christoffel oracle"):
        # sphere a = 2
        fd = sphere2_frame["frame"]
        chart = sphere2_frame["chart"]
        g_fn = metric_fn(sphere2_frame["metric"], chart)
        e_fn = frame_fn(fd.coframe, chart)
        for p in rows(sphere2_frame["points"])[:6]:
            val = eval_at(fd.riemann[0][1][0][1], p)
            assert val == pytest.approx(0.25, abs=1e-6)
            arr = np.array([p[c] for c in chart.coords])
            assert oracle.frame_riemann(g_fn, e_fn, arr)[0, 1, 0, 1] == pytest.approx(
                val, abs=5e-6)
        # hyperbolic space
        cls = hyperbolic3_frame["classification"]
        assert cls.constant_curvature and cls.kappa == pytest.approx(-1.0, abs=1e-6)
        chart = hyperbolic3_frame["chart"]
        g_fn = metric_fn(hyperbolic3_frame["metric"], chart)
        e_fn = frame_fn(hyperbolic3_frame["frame"].coframe, chart)
        arr = np.array([hyperbolic3_frame["points"][c][0] for c in chart.coords])
        assert oracle.frame_riemann(g_fn, e_fn, arr)[0, 1, 0, 1] == pytest.approx(
            -1.0, abs=5e-5)
        # flat space
        assert flat3_frame["classification"].max_riemann < 1e-10
        g_fn = metric_fn(flat3_frame["metric"], flat3_frame["chart"])
        arr = np.array([0.2, -0.4, 0.6])
        assert np.max(np.abs(oracle.riemann_down(g_fn, arr))) < 1e-8


def test_criterion_3_exterior_algebra_laws(flat3):
    chart, _ = flat3
    with criterion(3, "d o d = 0, graded commutativity, Leibniz on 1000 random "
                      "forms, residual < 1e-10"):
        rng = np.random.default_rng(2024)
        pts = [random_point(rng, chart) for _ in range(2)]
        for _ in range(1000):
            p = int(rng.integers(0, 3))
            q = int(rng.integers(0, 3 - p)) if p < 3 else 0
            a = random_pform(rng, chart, p, terms=1, depth=2)
            b = random_pform(rng, chart, q, terms=1, depth=2)
            comm = pform_add(wedge(a, b),
                             pform_scale(num(-(-1) ** (p * q)), wedge(b, a)))
            assert max_abs_coeff(comm, pts) < 1e-10
            leib = pform_add(
                ext_d(wedge(a, b)),
                pform_add(pform_scale(num(-1), wedge(ext_d(a), b)),
                          pform_scale(num(-(-1) ** p), wedge(a, ext_d(b)))))
            assert max_abs_coeff(leib, pts) < 1e-10
            assert max_abs_coeff(ext_d(ext_d(a)), pts) < 1e-10


def test_criterion_4_weyl_properties(flat3_frame, polar3_frame, hyperbolic3_frame,
                                     conformal4_frame):
    with criterion(4, "Weyl trace-free < 1e-8 on test metrics; |W| < 1e-7 for "
                      "exp(2f) delta_4"):
        for bundle in (flat3_frame, polar3_frame, hyperbolic3_frame, conformal4_frame):
            fd = bundle["frame"]
            eta = np.diag(fd.eta).astype(float)
            for p in rows(bundle["points"])[:8]:
                w = fd.weyl_at(p)
                for contraction in ("ik,ijkl->jl", "jl,ijkl->ik", "il,ijkl->jk"):
                    assert np.max(np.abs(np.einsum(contraction, eta, w))) < 1e-8
        assert conformal4_frame["classification"].max_weyl < 1e-7


def test_criterion_5_screw_flow_invariants(screw):
    with criterion(5, "screw flow: |M_12|(1,0,0) = 0.5, radial K = 0.5, "
                      "two-path < 1e-9, rigidity < 1e-9"):
        fl = screw["flow_data"]
        assert abs(eval_at(fl.m[0][1], BASE)) == pytest.approx(0.5, abs=1e-6)
        assert eval_at(fl.k[0], BASE) == pytest.approx(0.5, abs=1e-6)
        assert fl.two_path < 1e-9
        assert fl.rigidity.residual < 1e-9


def test_criterion_6_herglotz_end_to_end(screw, tmp_path):
    with criterion(6, "closedness < 1e-8, basicness < 1e-7, lambda ratio "
                      "1.5811 +- 1e-4, Killing residual < 1e-7, CLI verdict"):
        fl = screw["flow_data"]
        hyp = check_hypotheses(fl, screw["classification"])
        assert hyp.closedness_residual < 1e-8
        assert hyp.basic_m_residual < 1e-7
        assert hyp.basic_k_residual < 1e-7
        lam = reconstruct_lambda(fl, screw["basepoint"], hyp.closedness_residual)
        assert lam.leaf_derivative_residual < 1e-7
        # basepoint sits at r = 1, the second point at r = 2
        assert lam.values[1] / lam.values[0] == pytest.approx(1.5811, abs=1e-4)
        killing = scaled_flow_killing_residual(fl, lam)
        assert killing < 1e-7
        # CLI: verdict isometric-verified, exit 0
        path = _cli_config(tmp_path, "screw.json", SCREW_CLI)
        out = tmp_path / "screw_report.json"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["tasks"]["herglotz"]["verdict"] == "isometric-verified"


def test_criterion_7_constraint_system(screw):
    with criterion(7, "tilde-free and Ricci-flat rows < 1e-7, |u(M^2)| < 1e-7, "
                      "quotient R_1212 = +0.75 matching the transversal oracle"):
        rep = screw["constraints"]
        for name, value in rep.tilde_free.items():
            assert value < 1e-7, name
        rf = ricci_flat_check(rep, screw["classification"])
        assert rf.applicable and rf.max_residual() < 1e-7
        assert rep.m2_leaf_residual < 1e-7
        # the fixture's first sample is BASE
        val = rep.quotient_riemann[0, 1, 0, 1, 0]
        assert abs(val) == pytest.approx(0.75, abs=1e-5)

        u_fn = vector_fn(screw["flow_data"].adapted.u, screw["chart"])

        def qmetric(x, y):
            uu = u_fn(np.array([x, y, 0.0]))

            def h(w):
                return w - (w @ uu) * uu

            wx, wy = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
            hx, hy = h(wx), h(wy)
            return np.array([[hx @ hx, hx @ hy], [hx @ hy, hy @ hy]])

        gauss = oracle.gauss_curvature_2d(qmetric, (1.0, 0.0))
        assert np.sign(gauss) == np.sign(val)
        assert gauss == pytest.approx(val, abs=1e-3)


def test_criterion_8_negative_controls(tmp_path):
    with criterion(8, "twist flagged non-rigid (residual 1.0, exit 1); pure "
                      "rotation non-rotational with theorem inapplicable"):
        twist_cfg = {
            "schema_version": "1",
            "chart": {"coordinates": ["x", "y", "z"],
                      "domain": {"x": [-1.0, 1.0], "y": [-1.0, 1.0], "z": [0.2, 1.2]}},
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "flow": ["cos(z)", "sin(z)", "0"],
            "samples": {"mode": "random", "count": 15, "seed": 7},
            "tasks": ["flow"],
        }
        report, code = run_pipeline(load_config(twist_cfg))
        assert code == 1
        assert report["tasks"]["flow"]["rigid"] is False
        assert report["tasks"]["flow"]["rigidity_residual"] == pytest.approx(1.0, abs=1e-8)

        rot_cfg = {
            "schema_version": "1",
            "chart": {"coordinates": ["x", "y", "z"],
                      "domain": {"x": [0.5, 1.8], "y": [-0.4, 0.4], "z": [-1.0, 1.0]}},
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "flow": ["-y", "x", "0"],
            "samples": {"mode": "random", "count": 15, "seed": 8},
            "tasks": ["flow", "herglotz"],
            "basepoint": [1.0, 0.0, 0.0],
        }
        report, _ = run_pipeline(load_config(rot_cfg))
        assert report["tasks"]["flow"]["rigid"] is True
        assert report["tasks"]["herglotz"]["verdict"] == "hypotheses-not-met"
        assert "non-rotational" in report["tasks"]["herglotz"]["reason"]
        assert report["tasks"]["herglotz"]["max_m"] < 1e-9


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical config and seed give byte-identical reports"):
        path = _cli_config(tmp_path, "screw.json", SCREW_CLI)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["run", "--config", path, "--out", str(out1)]) == 0
        assert main(["run", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
