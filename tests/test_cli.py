"""Config validation, pipeline exit codes, report determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import movingframes
from movingframes.cli import (TASKS, ConfigError, load_config, load_config_file,
                              main, run_pipeline, serialize_report)
from movingframes.exterior import MatrixForm
from movingframes.frames import FrameData


def screw_config(**overrides):
    cfg = {
        "schema_version": "1",
        "chart": {
            "coordinates": ["x", "y", "z"],
            "domain": {"x": [0.4, 1.6], "y": [-0.6, 0.6], "z": [-1.0, 1.0]},
        },
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "flow": ["-y", "x", "1"],
        "samples": {"mode": "random", "count": 20, "seed": 42},
        "tasks": ["curvature", "classify", "flow", "herglotz", "ricci-flat"],
        "basepoint": [1.0, 0.0, 0.0],
    }
    cfg.update(overrides)
    return cfg


def twist_config():
    return {
        "schema_version": "1",
        "chart": {
            "coordinates": ["x", "y", "z"],
            "domain": {"x": [-1.0, 1.0], "y": [-1.0, 1.0], "z": [0.2, 1.2]},
        },
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "flow": ["cos(z)", "sin(z)", "0"],
        "samples": {"mode": "random", "count": 15, "seed": 7},
        "tasks": ["flow"],
    }


def generic4_config():
    """A non-diagonal 4-D metric that is neither flat, Einstein nor conformally
    flat, with the curvature tasks only."""
    return {"schema_version": "1", "chart": {"coordinates": ["x", "y", "z", "w"]},
            "metric": [["1 + x^2", "x*y", "0", "0"], ["x*y", "1 + y^2", "z/4", "0"],
                       ["0", "z/4", "exp(x)", "0"], ["0", "0", "0", "1 + w^2"]],
            "samples": {"mode": "random", "count": 160, "seed": 11},
            "tasks": ["curvature", "classify"]}


def conformal4_config(seed):
    """g = exp((x^2 + y^2)/5) delta_4 with the Killing flow (-y, x, 1, 0)."""
    factor = "exp(4*(x^2 + y^2)/20)"
    return {
        "schema_version": "1",
        "chart": {"coordinates": ["x", "y", "z", "w"],
                  "domain": {"x": [0.5, 1.5], "y": [-0.5, 0.5],
                             "z": [-1.0, 1.0], "w": [-1.0, 1.0]}},
        "metric": [[factor if i == j else "0" for j in range(4)] for i in range(4)],
        "flow": ["-y", "x", "1", "0"],
        "samples": {"mode": "random", "count": 8, "seed": seed},
        "tasks": ["curvature", "classify", "flow", "herglotz", "ricci-flat"],
        "basepoint": [1.0, 0.0, 0.0, 0.0],
    }


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigValidation:
    def test_valid(self):
        cfg = load_config(screw_config())
        assert cfg.tasks[-1] == "ricci-flat"
        assert cfg.seed == 42

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            load_config(screw_config(extra_field=1))

    def test_random_needs_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(screw_config(samples={"mode": "random", "count": 5}))

    def test_metric_shape(self):
        with pytest.raises(ConfigError):
            load_config(screw_config(metric=[["1", "0"], ["0", "1"]]))

    def test_metric_expression_error(self):
        bad = screw_config()
        bad["metric"][0][0] = "1 +"
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_asymmetric_metric(self):
        bad = screw_config()
        bad["metric"][0][1] = "x"
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_flow_required_for_flow_tasks(self):
        with pytest.raises(ConfigError):
            load_config(screw_config(flow=None))

    def test_basepoint_required_for_herglotz(self):
        with pytest.raises(ConfigError):
            load_config(screw_config(basepoint=None))

    def test_basepoint_inside_domain(self):
        with pytest.raises(ConfigError):
            load_config(screw_config(basepoint=[5.0, 0.0, 0.0]))

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            load_config(screw_config(tasks=["curvature", "frobnicate"]))

    def test_unknown_tolerance(self):
        with pytest.raises(ConfigError):
            load_config(screw_config(tolerances={"bogus": 1e-3}))

    @pytest.mark.parametrize("samples", [
        {"mode": "random", "count": True, "seed": 4},
        {"mode": "random", "count": 5, "seed": True},
        {"mode": "random", "count": 5, "seed": -1}])
    def test_non_integer_or_negative_samples_exit_two(self, tmp_path, capsys, samples):
        path = write(tmp_path, "cfg.json", screw_config(samples=samples))
        assert main(["run", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value", [
        (("chart", "domain"), [[0.4, 1.6], [-0.6, 0.6], [-1.0, 1.0]]),
        (("chart", "domain"), 5),
        (("chart", "domain", "x"), ["a", "b"]),
        (("chart", "domain", "x"), [0.4, 1.0, 1.6]),
        (("chart", "domain", "x"), [-1e308, 1e308]),     # the width overflows a float
        (("chart", "domain", "x"), [0.4, 10 ** 400]),
        (("chart", "signature"), 1),
        (("chart", "signature"), ["a", 1, 1]),
        (("chart", "signature"), [1.5, 1, 1]),           # once read as 1
        (("chart", "exclusions"), [5]),
        (("basepoint",), ["a", 0.0, 0.0]),
        (("basepoint",), [None, 0.0, 0.0]),
        (("tolerances",), [1e-3]),
        (("tolerances",), {"killing": True}),            # once read as 1.0
        (("tolerances",), {"killing": 10 ** 400}),
        (("coframe_order",), [["x"], "y", "z"]),
        (("samples",), {"mode": "random", "count": 10 ** 30, "seed": 1})])
    def test_config_shape_exit_two(self, tmp_path, capsys, where, value):
        """Each of these once ended in a traceback (exit 1) or ran with a value
        read into another; a config of the wrong shape is a config error."""
        cfg = screw_config()
        target = cfg
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        assert main(["run", "--config", write(tmp_path, "cfg.json", cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_exclusion_faulting_at_basepoint_exit_two(self, tmp_path, capsys):
        cfg = screw_config(basepoint=[0.5, 0.0, 0.0])
        cfg["chart"]["exclusions"] = ["log(x - 0.6) > 5"]
        assert main(["run", "--config", write(tmp_path, "cfg.json", cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: basepoint: log of")

    def test_deeply_nested_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"metric": ' + "[" * 100000 + "]" * 100000 + "}")
        assert main(["run", "--config", str(path)]) == 2
        assert "config error: malformed JSON" in capsys.readouterr().err

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"chart": ')
        with pytest.raises(ConfigError, match="malformed"):
            load_config_file(str(path))


class TestPipeline:
    def test_screw_all_tasks(self):
        report, code = run_pipeline(load_config(screw_config()))
        assert code == 0
        assert report["all_passed"]
        assert report["tasks"]["herglotz"]["verdict"] == "isometric-verified"
        assert report["tasks"]["classify"]["flat"] is True
        assert report["tasks"]["ricci-flat"]["applicable"] is True
        names = {(c["task"], c["name"]): c for c in report["checks"]}
        assert names[("flow", "rigidity")]["status"] == "pass"

    def test_twist_fails_rigidity(self):
        report, code = run_pipeline(load_config(twist_config()))
        assert code == 1
        assert not report["all_passed"]
        flow = report["tasks"]["flow"]
        assert flow["rigid"] is False
        assert flow["rigidity_residual"] == pytest.approx(1.0, abs=1e-8)
        assert "advisory" in flow
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["rigidity"] == "fail"
        assert statuses["two_path_consistency"] == "advisory"

    def test_rotation_herglotz_not_met(self):
        cfg = screw_config(flow=["-y", "x", "0"],
                           chart={"coordinates": ["x", "y", "z"],
                                  "domain": {"x": [0.5, 1.8], "y": [-0.4, 0.4],
                                             "z": [-1.0, 1.0]}})
        report, code = run_pipeline(load_config(cfg))
        assert code == 1  # the requested herglotz check could not pass
        h = report["tasks"]["herglotz"]
        assert h["verdict"] == "hypotheses-not-met"
        assert "non-rotational" in h["reason"]
        assert report["tasks"]["flow"]["rigid"] is True
        # M vanishes identically for the normalized rotation field
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["rigidity"] == "pass"
        assert statuses["herglotz_verdict"] == "fail"

    def test_one_curvature_package_per_run(self, monkeypatch):
        """Every stage reads the one curvature evaluation and the one flow jet
        at the samples, and no stage builds symbolically more than its
        formulas need:

        * the ambient curvature comes from the coordinate 2-jet of the metric,
          so the only symbolic derivatives of a curvature run are those of the
          metric entries, one diff per symmetric pair and coordinate; no
          connection is solved symbolically (the ambient one was, once per
          run, before: d theta, its contractions and the cyclic sum);
        * ext_d and contract run only in flow_invariants, for d psi0 and its
          contractions on the adapted frame, so not in the curvature-only
          generic run (the flow stage also contracted the ambient coframe on
          the adapted frame before);
        * no stage calls simplify (the constructors already return its fixed
          point), and none builds a curvature 2-form, a connection 1-form, a
          wedge product or a symbolic covariant or directional derivative.

        The generic 4-D run gives the checks a frame that is not flat."""
        homes = {"curvature_package": movingframes, "matrix_curvature": movingframes,
                 "solve_connection": movingframes, "covariant_derivative": movingframes,
                 "directional": movingframes.submersion, "flow_jet": movingframes.submersion,
                 "flow_invariants": movingframes.submersion,
                 "simplify": movingframes.expression, "diff": movingframes.expression,
                 "wedge": movingframes.exterior, "pform_scale": movingframes.exterior,
                 "ext_d": movingframes.exterior, "contract": movingframes.exterior}
        calls = dict.fromkeys(homes, 0)
        calls["curvature_values"] = calls["eta_antisymmetry_residual"] = 0
        differentiated = []
        outside = []        # ext_d and contract calls outside flow_invariants
        inside = [False]

        def count(name, real):
            def counting(*args, **kwargs):
                calls[name] += 1
                if name == "diff":
                    differentiated.append(args[0])
                if name in ("ext_d", "contract") and not inside[0]:
                    outside.append(name)
                if name != "flow_invariants":
                    return real(*args, **kwargs)
                inside[0] = True
                try:
                    return real(*args, **kwargs)
                finally:
                    inside[0] = False
            return counting

        for name, home in homes.items():
            real = getattr(home, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("movingframes")
                        and getattr(module, name, None) is real):
                    monkeypatch.setattr(module, name, count(name, real))
        monkeypatch.setattr(FrameData, "curvature_values",
                            count("curvature_values", FrameData.curvature_values))
        monkeypatch.setattr(MatrixForm, "eta_antisymmetry_residual",
                            count("eta_antisymmetry_residual",
                                  MatrixForm.eta_antisymmetry_residual))
        cache = dict(movingframes.expression._SIMPLIFY_CACHE)
        report, code = run_pipeline(load_config(screw_config()))
        assert code == 0 and set(report["tasks"]) == set(TASKS)
        assert outside == [] and calls["ext_d"] == 1 and calls["contract"] == 2 * 2 + 2
        screw_calls = dict(calls)
        del differentiated[:]
        generic_cfg = load_config(generic4_config())
        generic, code = run_pipeline(generic_cfg)
        assert code == 0 and not generic["tasks"]["classify"]["flat"]
        assert [c["status"] for c in generic["checks"]] == ["pass"] * len(generic["checks"])
        entries = {id(e) for row in generic_cfg.metric.entries for e in row}
        assert len(differentiated) == 4 * 4 * 5 // 2
        assert all(id(e) in entries for e in differentiated)
        assert {k: calls[k] - screw_calls[k] for k in ("ext_d", "contract", "flow_invariants")} \
            == {"ext_d": 0, "contract": 0, "flow_invariants": 0}
        del calls["diff"], calls["ext_d"], calls["contract"]
        assert calls == {"curvature_package": 2, "matrix_curvature": 0, "solve_connection": 0,
                         "wedge": 0, "pform_scale": 0, "eta_antisymmetry_residual": 0,
                         "covariant_derivative": 0, "directional": 0, "flow_jet": 1,
                         "flow_invariants": 1, "curvature_values": 2, "simplify": 0}
        assert movingframes.expression._SIMPLIFY_CACHE == cache

    def test_cold_generic_run_interns_few_nodes(self):
        """A cold curvature run on a non-diagonal 4-D metric interns the
        metric, its first derivatives and the coframe, and no connection and
        nothing of the curvature (2399 nodes with the symbolic Riemann tensor,
        496 with the connection 1-forms and the symbolic torsion check, 325
        with the symbolic connection coefficients)."""
        cfg = generic4_config()
        script = ("import json, sys\n"
                  "from movingframes import cli, expression\n"
                  "report, code = cli.run_pipeline(cli.load_config(json.loads(sys.argv[1])))\n"
                  "print(code, len(expression._TABLE))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(movingframes.__path__[0])] + sys.path))
        out = subprocess.run([sys.executable, "-c", script, json.dumps(cfg)], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        assert out[0] == "0" and int(out[1]) < 150

    def test_coframe_order_orders_only_the_ambient_frame(self):
        """coframe_order reorders the ambient Gram-Schmidt; the adapted frame
        of the flow keeps chart order, so the flow, herglotz and ricci-flat
        sections equal those of the chart-order run."""
        chart_order, code = run_pipeline(load_config(screw_config()))
        reordered, code2 = run_pipeline(load_config(
            screw_config(coframe_order=["z", "x", "y"])))
        assert code == code2 == 0
        for task in ("flow", "herglotz", "ricci-flat"):
            assert reordered["tasks"][task] == chart_order["tasks"][task]

    def test_report_roundtrip(self):
        report, _ = run_pipeline(load_config(screw_config()))
        text = serialize_report(report)
        assert json.loads(text) == json.loads(serialize_report(json.loads(text)))

    def test_determinism(self):
        r1, _ = run_pipeline(load_config(screw_config()))
        r2, _ = run_pipeline(load_config(screw_config()))
        assert serialize_report(r1) == serialize_report(r2)

    def test_grid_mode_no_seed(self):
        cfg = screw_config(samples={"mode": "grid", "count": 16},
                           tasks=["curvature", "classify"])
        report, code = run_pipeline(load_config(cfg))
        assert code == 0

    def test_later_exclusion_sees_only_kept_points(self, tmp_path):
        """log(x - 0.5) faults where x < 0.5, and those are the points the
        first exclusion removed: the second one never sees them."""
        cfg = screw_config()
        cfg["chart"]["exclusions"] = ["x < 0.5", "log(x - 0.5) > 5"]
        out = tmp_path / "report.json"
        assert main(["run", "--config", write(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 0
        points = [p["point"] for p in
                  json.loads(out.read_text())["tasks"]["curvature"]["components_at_points"]]
        assert len(points) == 3 and all(p[0] >= 0.5 for p in points)

    def test_integration_paths_test_exclusions_in_order(self, tmp_path, capsys):
        """Paths to the basepoint cross x < 0.5, where log(x - 0.49999)
        faults; the first exclusion removes those path points before the
        second is evaluated, as in sampling."""
        cfg = screw_config(samples={"mode": "random", "count": 400, "seed": 7},
                           tasks=["herglotz"])
        cfg["chart"]["exclusions"] = ["x < 0.5", "log(x - 0.49999) > 5"]
        out = tmp_path / "report.json"
        assert main(["run", "--config", write(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 0, capsys.readouterr().err
        herglotz = json.loads(out.read_text())["tasks"]["herglotz"]
        assert herglotz["verdict"] == "isometric-verified"
        assert herglotz["killing_residual"] < 1e-7

    def test_exclusions_through_pipeline(self):
        """Rotation flow with the axis carved out by an exclusion predicate."""
        cfg = {
            "schema_version": "1",
            "chart": {
                "coordinates": ["x", "y", "z"],
                "domain": {"x": [-1.5, 1.5], "y": [-1.5, 1.5], "z": [-1.0, 1.0]},
                "exclusions": ["x^2 < 0.25"],
            },
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "flow": ["-y", "x", "0"],
            "samples": {"mode": "random", "count": 25, "seed": 13},
            "tasks": ["flow", "herglotz"],
            "basepoint": [1.0, 0.0, 0.0],
        }
        report, code = run_pipeline(load_config(cfg))
        assert code == 1  # rigid but non-rotational: theorem inapplicable
        assert report["tasks"]["flow"]["rigid"] is True
        assert report["tasks"]["herglotz"]["verdict"] == "hypotheses-not-met"
        assert report["tasks"]["flow"]["flow_normalized"] is True


class TestCommandLine:
    def test_validate_ok(self, tmp_path, capsys):
        path = write(tmp_path, "cfg.json", screw_config())
        assert main(["validate", "--config", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_truncated_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"chart": {"coordinates": ["x", "y"]')
        assert main(["validate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_run_writes_report(self, tmp_path):
        path = write(tmp_path, "cfg.json", screw_config(tasks=["curvature", "classify"]))
        out = tmp_path / "report.json"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["tool"]["name"] == "movingframes"
        assert len(report["tool"]["conventions_sha256"]) == 64

    def test_run_text_format(self, tmp_path, capsys):
        path = write(tmp_path, "cfg.json", screw_config(tasks=["classify"]))
        assert main(["run", "--config", path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_twist_exit_code(self, tmp_path):
        path = write(tmp_path, "cfg.json", twist_config())
        out = tmp_path / "report.json"
        assert main(["run", "--config", path, "--out", str(out)]) == 1

    def test_leaf_step_leaving_the_box_is_skipped(self, tmp_path):
        """The flow is defined on the whole box but not left of x = 0.399; an
        RK4 stage of the leaf step from a grid point on the y = 0.6 face leaves
        the box there, and that sample's step is skipped, not evaluated."""
        s = "sqrt(x - 0.399) + 1"
        cfg = screw_config(flow=[f"-({s})*y", f"({s})*x", s],
                           samples={"mode": "grid", "count": 27})
        cfg["chart"].update(signature=[1, 1, 1], exclusions=["x^2 + y^2 < 0.04"],
                            simply_connected=True)
        cfg.update(tolerances={"killing": 1e-7}, coframe_order=["x", "y", "z"])
        path = write(tmp_path, "cfg.json", cfg)
        out = tmp_path / "report.json"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        herglotz = json.loads(out.read_text())["tasks"]["herglotz"]
        assert herglotz["verdict"] == "isometric-verified"

    def test_singular_metric_exit_two(self, tmp_path, capsys):
        cfg = screw_config(metric=[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
                           tasks=["curvature"])
        path = write(tmp_path, "cfg.json", cfg)
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "point" in err

    def test_vanishing_flow_exit_two(self, tmp_path, capsys):
        cfg = screw_config(flow=["0", "0", "0"], tasks=["flow"])
        path = write(tmp_path, "cfg.json", cfg)
        assert main(["run", "--config", path]) == 2
        assert "point" in capsys.readouterr().err

    @pytest.mark.parametrize("flow", [["1", "0", "0"], ["0", "-y", "x"]])
    def test_flow_on_a_lorentzian_chart_is_a_config_error(self, tmp_path, capsys, flow):
        """The adapted frame is Riemannian, so a flow task on a chart that
        declares a -1 is refused with the reason, not with a vanishing norm
        (|V|^2 = -1 here) or a pivot sign that blames the declaration."""
        cfg = {"schema_version": "1",
               "chart": {"coordinates": ["t", "x", "y"], "signature": [-1, 1, 1]},
               "metric": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
               "flow": flow, "samples": {"mode": "random", "count": 5, "seed": 1},
               "tasks": ["flow"]}
        path = write(tmp_path, "cfg.json", cfg)
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "'chart.signature' entry +1" in err
        load_config(dict(cfg, tasks=["curvature", "classify"]))     # curvature alone is fine

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize("entry, domain", [
        ("x + y", [1.4e308, 1.6e308]),      # the sum overflows
        ("10^400*x", [0.5, 1.0]),           # the constant overflows a float
        ("log(x)", [-2.0, -1.0])])          # log of a negative value
    def test_evaluation_fault_exit_two(self, tmp_path, capsys, entry, domain):
        cfg = {"schema_version": "1",
               "chart": {"coordinates": ["x", "y"], "domain": {"x": domain, "y": domain}},
               "metric": [[entry, "0"], ["0", "1"]],
               "samples": {"mode": "random", "count": 3, "seed": 1},
               "tasks": ["curvature"]}
        path = write(tmp_path, "cfg.json", cfg)
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "at point" in err


    @pytest.mark.parametrize("cfg, message", [
        ({"chart": {"coordinates": ["x", "y"], "domain": {"x": [0, 1], "y": [-1, 1]}},
          "metric": [["1", "0"], ["0", "1 + x^(3/2)"]],
          "samples": {"mode": "grid", "count": 9}, "tasks": ["curvature", "classify"]},
         "division by zero at point {'x': 0.0, 'y': -1.0}"),
        # R is finite at x = 0, its u-derivative (the mixed derivative of the
        # connection jet) is not
        ({"chart": {"coordinates": ["x", "y", "z"],
                    "domain": {"x": [0, 1], "y": [-1, 1], "z": [-1, 1]}},
          "metric": [["1", "0", "0"], ["0", "1 + x^(5/2)", "0"], ["0", "0", "1"]],
          "flow": ["1", "0", "1"], "samples": {"mode": "grid", "count": 27}, "tasks": ["flow"]},
         "division by zero at point {'x': 0.0, 'y': -1.0, 'z': -1.0}")])
    def test_curvature_derivative_fault_names_first_point(self, tmp_path, capsys, cfg, message):
        path = write(tmp_path, "cfg.json", dict(cfg, schema_version="1"))
        assert main(["run", "--config", path]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("entry, code", [
        ("1+(10^400)^(1/2)*0", 0),        # the product folds to 0: metric entry 1
        ("1+0^(-1/2)*0", 0),
        ("1+x^2*(10^400)^(1/2)", 2),      # the constant survives and overflows
        ("1+x^2*0^(-1/2)", 2)])           # division by zero at every point
    def test_unfoldable_constant_powers(self, tmp_path, capsys, entry, code):
        cfg = {"schema_version": "1",
               "chart": {"coordinates": ["x", "y"]},
               "metric": [[entry, "0"], ["0", "1"]],
               "samples": {"mode": "random", "count": 3, "seed": 1},
               "tasks": ["curvature"]}
        assert main(["run", "--config", write(tmp_path, "cfg.json", cfg)]) == code
        if code == 2:
            assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("where, text", [
        ("flow", "1" * 5001),          # int() refused it: exit 1, traceback
        ("exclusion", "1" * 5001),
        ("flow", "1e999999")])         # a million-digit rational
    def test_oversized_number_literal_exit_two(self, tmp_path, capsys, where, text):
        cfg = screw_config(tasks=["flow"])
        if where == "flow":
            cfg["flow"] = ["-y", "x", text]
        else:
            cfg["chart"]["exclusions"] = [f"x^2 < {text}"]
        assert main(["run", "--config", write(tmp_path, "cfg.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "number literal" in err

    @pytest.mark.parametrize("entry", [
        "(" * 3000 + "x" + ")" * 3000,
        "1+0*" + "sin(" * 3000 + "x" + ")" * 3000])
    def test_deep_nesting_exit_two(self, tmp_path, capsys, entry):
        cfg = {"schema_version": "1",
               "chart": {"coordinates": ["x", "y"]},
               "metric": [[entry, "0"], ["0", "1"]],
               "samples": {"mode": "random", "count": 3, "seed": 1},
               "tasks": ["curvature"]}
        assert main(["run", "--config", write(tmp_path, "cfg.json", cfg)]) == 2
        assert "expression nested too deeply" in capsys.readouterr().err


class TestHerglotzRegressions:
    """Killing flows whose Herglotz check once failed."""

    def test_screw_leaf_estimate_verified(self, tmp_path):
        """The leaf estimate once differenced two long-path integrals and read
        1.3e-7 > 1e-7 here."""
        cfg = screw_config(
            chart={"coordinates": ["x", "y", "z"], "signature": [1, 1, 1],
                   "domain": {"x": [0.4, 1.6], "y": [-0.6, 0.6], "z": [-1.0, 1.0]},
                   "exclusions": ["x^2 + y^2 < 0.04"], "simply_connected": True},
            samples={"mode": "random", "count": 32, "seed": 12345},
            tolerances={"killing": 1e-7}, coframe_order=["x", "y", "z"])
        out = tmp_path / "report.json"
        assert main(["run", "--config", write(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 0
        herglotz = json.loads(out.read_text())["tasks"]["herglotz"]
        assert herglotz["verdict"] == "isometric-verified"

    @pytest.mark.parametrize("seed", [
        843326373,      # a sample at w = 0.999914: the central stencil leaves the box
        1383479879])    # long-path quadrature noise once read 4.8e-7 > killing tol
    def test_conformal_killing_flow_verified(self, tmp_path, seed):
        path = write(tmp_path, "cfg.json", conformal4_config(seed))
        out = tmp_path / "report.json"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        herglotz = json.loads(out.read_text())["tasks"]["herglotz"]
        assert herglotz["verdict"] == "isometric-verified"
        assert herglotz["killing_residual"] < 1e-8


# -- fuzzing the front door ---------------------------------------------------

FUZZ_BASE = {
    "schema_version": "1",
    "chart": {"coordinates": ["x", "y", "z"], "signature": [1, 1, 1],
              "domain": {"x": [0.4, 1.6], "y": [-0.6, 0.6], "z": [-1.0, 1.0]},
              "exclusions": ["x^2 + y^2 < 0.04"], "simply_connected": True},
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "flow": ["-y", "x", "1"],
    "samples": {"mode": "random", "count": 4, "seed": 3},
    "tolerances": {"killing": 1e-7},
    "tasks": ["curvature", "classify", "flow", "herglotz", "ricci-flat"],
    "basepoint": [1.0, 0.0, 0.0],
    "coframe_order": ["x", "y", "z"],
}

# wrong types, null, huge, tiny and non-finite numbers, and strings the
# parser or the sampler may take
_ODD = [None, True, False, 0, -1, 2, 0.5, -0.0, 10 ** 30, -10 ** 30, 2 ** 63, 1e308, -1e308,
        1e-308, 5e-324, float("inf"), float("-inf"), float("nan"), "", "a", "x", "grid", "1e999",
        "x^2 < 0.04", "log(x) > 0", [], {}, [None], [1, 2, 3], [0.5, 1.0], {"x": [0, 1]}]


def _nodes(tree, path=()):
    """Every key path into the nested config, the root included."""
    yield path
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_main_exit_code_contract_fuzz(data):
    """Mutated valid configs, run in process through ``main``: the exit code
    is 0, 1 or 2, and no exception or traceback escapes."""
    cfg = copy.deepcopy(FUZZ_BASE)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_nodes(cfg))[1:]))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = data.draw(st.sampled_from(["replace", "drop", "list", "object"]))
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_ODD)))
        else:
            parent[key] = [parent[key]] if action == "list" else {"k": parent[key]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", path, "--out", os.path.join(tmp, "report.json")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
