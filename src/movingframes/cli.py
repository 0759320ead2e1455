"""Batch front door: declarative JSON config in, verdict report out.

``workbench run --config cfg.json [--out report.json] [--format json|text]``
executes the requested tasks in dependency order (coframe -> curvature ->
classify -> flow -> herglotz -> ricci-flat) and exits 0 when
every requested check passed, 1 when a check failed and 2 on config or input
errors (singular metric, vanishing flow, malformed JSON ...).

``workbench validate --config cfg.json`` only validates the config.

Reports are deterministic: identical config (including the sampling seed)
produces byte-identical JSON.  Floats are rounded to 12 significant digits
before serialisation, random sampling uses numpy's seeded PCG64 generator,
and the report embeds the tool version plus the SHA-256 of the conventions
document.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .expression import (Chart, EvalDomainError, ExprError, max_abs, parse_exclusion,
                         parse_expr, sample_points, to_string, ONE)
from .exterior import FormArityError
from .frames import (FrameData, Metric, SignatureError, SingularMetricError,
                     antisymmetry_residual, build_coframe, classify_space,
                     curvature_package, reconstruction_residual, torsion_residual)
from .herglotz import ricci_flat_check, run_herglotz
from .submersion import VanishingFlowError, analyze_flow, constraint_residuals

SCHEMA_VERSION = "1"
TASKS = ("curvature", "classify", "flow", "herglotz", "ricci-flat")
MAX_SAMPLES = 100_000     # every stage holds arrays of this length per tensor component

DEFAULT_TOLERANCES = {
    "structure": 1e-9,            # torsion + metric reconstruction
    "curvature_symmetry": 1e-8,   # Riemann symmetries, Bianchi, Weyl traces
    "connection_antisymmetry": 1e-10,
    "classification": 1e-6,
    "constraint": 1e-7,           # tilde-free and Ricci-flat rows
    "two_path": 1e-9,
    "rigidity": 1e-9,
    "skewness": 1e-9,
    "closedness": 1e-8,
    "basicness": 1e-7,
    "rotational_threshold": 1e-6,
    "quadrature": 1e-10,
    "lambda_path": 1e-6,
    "killing": 1e-7,
    "flow_norm": 1e-8,
    "pivot": 1e-8,
}


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    chart: Chart
    metric: Metric
    flow: list | None
    mode: str
    count: int
    seed: int | None
    tolerances: dict
    tasks: list
    basepoint: dict | None
    coframe_order: list | None
    raw: dict = field(repr=False, default_factory=dict)


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _finite(value) -> bool:
    """A JSON number (not a boolean) that is a finite float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def load_config(data: Mapping) -> Config:
    """Validate a parsed JSON document into a Config."""
    _require(isinstance(data, dict), "config must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    _require(str(version) == SCHEMA_VERSION,
             f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})")
    unknown = set(data) - {"schema_version", "chart", "metric", "flow", "samples",
                           "tolerances", "tasks", "basepoint", "coframe_order"}
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    chart_spec = data.get("chart")
    _require(isinstance(chart_spec, dict), "config needs a 'chart' object")
    unknown = set(chart_spec) - {"coordinates", "signature", "domain",
                                 "exclusions", "simply_connected"}
    _require(not unknown, f"unknown chart keys: {sorted(unknown)}")
    coords = chart_spec.get("coordinates")
    _require(isinstance(coords, list) and all(isinstance(c, str) for c in coords),
             "'chart.coordinates' must be a list of names")
    simply = chart_spec.get("simply_connected", True)
    _require(isinstance(simply, bool), "'chart.simply_connected' must be a boolean")
    signature = chart_spec.get("signature")
    _require(signature is None or (isinstance(signature, list)
                                   and all(type(s) is int for s in signature)),
             "'chart.signature' must be a list of integers")
    domain = chart_spec.get("domain")
    _require(domain is None or (isinstance(domain, dict) and all(
        isinstance(iv, list) and len(iv) == 2 and all(_finite(v) for v in iv)
        for iv in domain.values())),
        "'chart.domain' must map coordinates to [low, high] finite numbers")
    texts = chart_spec.get("exclusions", [])
    _require(isinstance(texts, list) and all(isinstance(t, str) for t in texts),
             "'chart.exclusions' must be a list of strings")
    try:
        chart = Chart(coords, signature, domain)
        exclusions = tuple(parse_exclusion(t, chart) for t in texts)
        chart = Chart(coords, signature, domain, exclusions, simply_connected=simply)
    except ExprError as exc:
        raise ConfigError(f"chart: {exc}") from exc
    n = chart.n

    metric_spec = data.get("metric")
    _require(isinstance(metric_spec, list) and len(metric_spec) == n
             and all(isinstance(r, list) and len(r) == n for r in metric_spec),
             f"'metric' must be {n}x{n} expression strings")
    try:
        entries = [[parse_expr(str(metric_spec[i][j]), chart) for j in range(n)]
                   for i in range(n)]
        metric = Metric(chart, entries)
    except (ExprError, ValueError) as exc:
        raise ConfigError(f"metric: {exc}") from exc

    flow = None
    if data.get("flow") is not None:
        flow_spec = data["flow"]
        _require(isinstance(flow_spec, list) and len(flow_spec) == n,
                 f"'flow' must list {n} expression strings")
        try:
            flow = [parse_expr(str(c), chart) for c in flow_spec]
        except ExprError as exc:
            raise ConfigError(f"flow: {exc}") from exc

    samples = data.get("samples", {})
    _require(isinstance(samples, dict), "'samples' must be an object")
    mode = samples.get("mode", "random")
    _require(mode in ("random", "grid"), "samples.mode must be 'random' or 'grid'")
    count = samples.get("count", 50)
    _require(type(count) is int and 0 < count <= MAX_SAMPLES,
             f"samples.count must be a positive integer up to {MAX_SAMPLES}")
    seed = samples.get("seed")
    if mode == "random" or seed is not None:
        _require(type(seed) is int and seed >= 0, "samples.seed must be a non-negative "
                 "integer (mandatory for random sampling)")

    tolerances = dict(DEFAULT_TOLERANCES)
    tol_spec = data.get("tolerances") or {}
    _require(isinstance(tol_spec, dict), "'tolerances' must be an object")
    for key, value in tol_spec.items():
        _require(key in DEFAULT_TOLERANCES, f"unknown tolerance {key!r}")
        _require(_finite(value) and value > 0,
                 f"tolerance {key!r} must be a positive finite number")
        tolerances[key] = float(value)

    tasks = data.get("tasks")
    _require(isinstance(tasks, list) and tasks, "'tasks' must be a non-empty list")
    for t in tasks:
        _require(t in TASKS, f"unknown task {t!r} (choose from {TASKS})")
    tasks = [t for t in TASKS if t in tasks]  # canonical order

    needs_flow = any(t in tasks for t in ("flow", "herglotz", "ricci-flat"))
    _require(flow is not None or not needs_flow,
             "tasks involving the flow require a 'flow' entry")
    _require(not needs_flow or set(chart.signature) == {1}, "tasks involving the flow "
             "need every 'chart.signature' entry +1: the adapted frame is Riemannian")

    basepoint = None
    if data.get("basepoint") is not None:
        bp = data["basepoint"]
        _require(isinstance(bp, list) and len(bp) == n and all(_finite(v) for v in bp),
                 f"'basepoint' must list {n} finite numbers")
        basepoint = chart.point(bp)
        try:
            admitted = chart.admits(basepoint)
        except ExprError as exc:             # an exclusion faults at the basepoint
            raise ConfigError(f"basepoint: {exc}") from exc
        _require(admitted, "basepoint lies outside the sampling domain")
    _require("herglotz" not in tasks or basepoint is not None,
             "task 'herglotz' requires a 'basepoint'")

    order = data.get("coframe_order")
    if order is not None:
        _require(isinstance(order, list) and all(isinstance(c, str) for c in order)
                 and sorted(order) == sorted(chart.coords),
                 "'coframe_order' must permute the chart coordinates")

    return Config(chart, metric, flow, mode, count, seed, tolerances, tasks,
                  basepoint, order, raw=dict(data))


def load_config_file(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError("malformed JSON: nested too deeply") from None
    return load_config(data)


# --------------------------------------------------------------------------
# report helpers
# --------------------------------------------------------------------------

def _round12(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def conventions_sha256() -> str:
    from importlib import resources
    data = resources.files("movingframes").joinpath("CONVENTIONS.md").read_bytes()
    return hashlib.sha256(data).hexdigest()


def _config_digest(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class _Checks:
    def __init__(self):
        self.items: list = []

    def record(self, task: str, name: str, value, tolerance, status=None):
        if status is None:
            status = "pass" if value < tolerance else "fail"
        self.items.append({"task": task, "name": name, "status": status,
                           "value": value, "tolerance": tolerance})

    def note(self, task: str, name: str, status: str, detail: str = ""):
        item = {"task": task, "name": name, "status": status}
        if detail:
            item["detail"] = detail
        self.items.append(item)

    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.items)


def _curvature_section(fd: FrameData, metric: Metric, points, vals, tol, checks: _Checks):
    recon, th = reconstruction_residual(metric, fd.coframe, points)
    tors = torsion_residual(fd, vals, th)
    checks.record("curvature", "torsion", tors, tol["structure"])
    checks.record("curvature", "metric_reconstruction", recon, tol["structure"])
    checks.record("curvature", "connection_antisymmetry", antisymmetry_residual(fd, vals, th),
                  tol["connection_antisymmetry"])

    n, eta = fd.n, fd.eta
    r = vals["riemann"]                 # axes: point, i, j, k, l
    sym_res = max(max_abs(f(r)) for f in (    # one temporary at a time
        lambda r: r + np.swapaxes(r, 1, 2), lambda r: r + np.swapaxes(r, 3, 4),
        lambda r: r - np.transpose(r, (0, 3, 4, 1, 2)),
        lambda r: r + np.transpose(r, (0, 1, 3, 4, 2)) + np.transpose(r, (0, 1, 4, 2, 3))))
    weyl_res = None
    if "weyl" in vals:
        w, em = vals["weyl"], np.diag(eta).astype(float)
        weyl_res = max(max_abs(t) for t in (np.einsum("ik,pijkl->pjl", em, w),
                                            np.einsum("jl,pijkl->pik", em, w),
                                            np.einsum("il,pijkl->pjk", em, w)))
    checks.record("curvature", "riemann_symmetries", sym_res, tol["curvature_symmetry"])
    if weyl_res is not None:
        checks.record("curvature", "weyl_trace_free", weyl_res, tol["curvature_symmetry"])

    comp = []       # components are shown at the first 3 samples only
    shown = np.column_stack([points[c] for c in fd.chart.coords])[:3].tolist()
    for q, p in enumerate(shown):
        comp.append({"point": p, "riemann": {
            f"R_{i+1}{j+1}{k+1}{l+1}": float(r[q, i, j, k, l])
            for i in range(n) for j in range(i + 1, n)
            for k in range(n) for l in range(k + 1, n) if (i, j) <= (k, l)}})
    return {
        "frame": "coordinate Gram-Schmidt",
        "eta": list(eta),
        "torsion_residual": tors,
        "reconstruction_residual": recon,
        "riemann_symmetry_residual": sym_res,
        "weyl_trace_residual": weyl_res,
        "components_at_points": comp,
    }


def _classify_section(classification):
    return {
        "flat": classification.flat,
        "constant_curvature": classification.constant_curvature,
        "kappa": classification.kappa,
        "conformally_flat": classification.conformally_flat,
        "conformal_note": classification.conformal_note,
        "ricci_flat": classification.ricci_flat,
        "generic": classification.generic,
        "max_riemann": classification.max_riemann,
        "max_constant_curvature_residual": classification.max_constant_residual,
        "max_ricci": classification.max_ricci,
        "max_weyl": classification.max_weyl,
        "tolerance": classification.tol,
    }


def _flow_section(flow_data, constraints, tol, checks: _Checks):
    rigid = flow_data.rigidity.rigid
    checks.record("flow", "rigidity", flow_data.rigidity.residual, tol["rigidity"])
    aux_status = None if rigid else "advisory"
    checks.record("flow", "two_path_consistency", flow_data.two_path,
                  tol["two_path"], aux_status)
    checks.record("flow", "m_skewness", flow_data.skewness, tol["skewness"], aux_status)
    checks.record("flow", "constraint_tilde_free", constraints.max_tilde_free(),
                  tol["constraint"], aux_status)
    quotient_cross = max(constraints.ricci_cross_residual,
                         constraints.scalar_cross_residual)
    checks.record("flow", "quotient_consistency", quotient_cross,
                  tol["constraint"], aux_status)
    checks.record("flow", "quotient_basicness", constraints.quotient_leaf_residual,
                  tol["basicness"], aux_status)
    checks.record("flow", "m2_leaf_constancy", constraints.m2_leaf_residual,
                  tol["constraint"], aux_status)

    h = flow_data.horizontal
    m_vals, k_vals = flow_data.jet["m"], flow_data.jet["k"]
    rq, rq_scalar = constraints.quotient_riemann, constraints.quotient_scalar
    inv = []        # at the first 3 samples, as the curvature section
    shown = np.column_stack([flow_data.samples[c] for c in flow_data.chart.coords])[:3]
    for q, p in enumerate(shown.tolist()):
        inv.append({
            "point": p,
            "M": {f"M_{i+1}{j+1}": float(m_vals[i, j, q])
                  for i in range(h) for j in range(i + 1, h)},
            "K": {f"K_{i+1}": float(k_vals[i, q]) for i in range(h)},
            "quotient_riemann": {
                f"Rq_{i+1}{j+1}{k+1}{l+1}": float(rq[i, j, k, l, q])
                for i in range(h) for j in range(i + 1, h)
                for k in range(h) for l in range(k + 1, h) if (i, j) <= (k, l)},
            "quotient_scalar": float(rq_scalar[q]),
        })
    norm2 = flow_data.adapted.norm2
    section = {
        "rigid": rigid,
        "flow_normalized": norm2 is not ONE,
        "flow_norm_squared": None if norm2 is ONE else to_string(norm2),
        "rigidity_residual": flow_data.rigidity.residual,
        "two_path_residual": flow_data.two_path,
        "skewness_residual": flow_data.skewness,
        "tilde_free_residuals": dict(constraints.tilde_free),
        "quotient_consistency_residual": quotient_cross,
        "quotient_basicness_residual": constraints.quotient_leaf_residual,
        "m2_leaf_residual": constraints.m2_leaf_residual,
        "invariants_at_points": inv,
    }
    if not rigid:
        section["advisory"] = ("flow failed the rigidity test: invariants and "
                               "constraint residuals are outside theorem hypotheses")
    return section


def _herglotz_section(report, tol, checks: _Checks):
    verified = report.verified()
    checks.note("herglotz", "herglotz_verdict",
                "pass" if verified else "fail", report.reason)
    hyp = report.hypotheses
    section = {
        "verdict": report.verdict,
        "reason": report.reason,
        "rigid": hyp.rigid,
        "rotational": hyp.rotational,
        "max_m": hyp.max_m,
        "rotational_threshold": hyp.rotational_threshold,
        "closedness_residual": hyp.closedness_residual,
        "basic_m_residual": hyp.basic_m_residual,
        "basic_k_residual": hyp.basic_k_residual,
        "ambient_admissible": hyp.ambient_admissible,
        "ambient_reason": hyp.ambient_reason,
    }
    if report.lam is not None:
        section["lambda"] = {
            "basepoint": report.lam.basepoint,
            "values_at_points": report.lam.values,
            "path_independence_residual": report.lam.path_independence_residual,
            "leaf_derivative_residual": report.lam.leaf_derivative_residual,
        }
    if report.killing_residual is not None:
        section["killing_residual"] = report.killing_residual
        section["killing_tolerance"] = report.killing_tol
    return section


def _ricci_flat_section(rf, tol, checks: _Checks):
    if not rf.applicable:
        checks.note("ricci-flat", "ricci_flat_constraints", "inapplicable", rf.reason)
        return {"applicable": False, "reason": rf.reason}
    checks.record("ricci-flat", "ricci_flat_constraints", rf.max_residual(),
                  tol["constraint"])
    checks.record("ricci-flat", "m2_leaf_constancy", rf.m2_leaf_residual,
                  tol["constraint"])
    return {
        "applicable": True,
        "reason": rf.reason,
        "residuals": dict(rf.residuals),
        "m2_leaf_residual": rf.m2_leaf_residual,
    }


def run_pipeline(config: Config):
    """Execute the configured tasks; returns (report dict, exit code)."""
    tol = config.tolerances
    chart = config.chart
    points = sample_points(chart, config.mode, config.count, config.seed)
    checks = _Checks()
    tasks_out: dict = {}

    coframe = build_coframe(config.metric, points, config.coframe_order, tol["pivot"])
    frame_data = curvature_package(coframe)
    curvature = frame_data.curvature_values(points)
    classification = classify_space(frame_data, curvature, tol["classification"])
    if "curvature" in config.tasks:
        tasks_out["curvature"] = _curvature_section(frame_data, config.metric, points,
                                                    curvature, tol, checks)
    if "classify" in config.tasks:
        tasks_out["classify"] = _classify_section(classification)

    flow_data = constraints = None
    needs_flow = any(t in config.tasks for t in ("flow", "herglotz", "ricci-flat"))
    if needs_flow:
        flow_data = analyze_flow(config.metric, config.flow, points,
                                 tol["rigidity"], tol["flow_norm"])
        constraints = constraint_residuals(flow_data, frame_data)
    if "flow" in config.tasks:
        tasks_out["flow"] = _flow_section(flow_data, constraints, tol, checks)
    if "herglotz" in config.tasks:
        report = run_herglotz(flow_data, classification, config.basepoint,
                              tol["basicness"], tol["rotational_threshold"],
                              tol["closedness"], tol["quadrature"],
                              tol["lambda_path"], tol["killing"])
        tasks_out["herglotz"] = _herglotz_section(report, tol, checks)
    if "ricci-flat" in config.tasks:
        rf = ricci_flat_check(constraints, classification)
        tasks_out["ricci-flat"] = _ricci_flat_section(rf, tol, checks)

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {
            "name": "movingframes",
            "version": __version__,
            "conventions_sha256": conventions_sha256(),
        },
        "config_digest": _config_digest(config.raw),
        "chart": {
            "coordinates": list(chart.coords),
            "signature": list(chart.signature),
            "samples": {"mode": config.mode, "count": config.count,
                        "seed": config.seed,
                        "prng": "numpy default_rng (PCG64)" if config.mode == "random" else None},
        },
        "tasks": _round12(tasks_out),
        "checks": _round12(checks.items),
        "all_passed": not checks.failed(),
    }
    return report, (0 if not checks.failed() else 1)


def render_text(report: dict) -> str:
    lines = [f"movingframes workbench {report['tool']['version']} "
             f"(schema {report['schema_version']})"]
    lines.append(f"config digest: {report['config_digest'][:16]}...")
    for task, body in report["tasks"].items():
        lines.append(f"[{task}]")
        for key, value in body.items():
            if key in ("components_at_points", "invariants_at_points"):
                continue
            lines.append(f"  {key}: {value}")
    lines.append("[checks]")
    for c in report["checks"]:
        bits = f"  {c['status'].upper():12s} {c['task']}:{c['name']}"
        if "value" in c:
            bits += f"  value={c['value']:.6g} tol={c['tolerance']:.6g}"
        if c.get("detail"):
            bits += f"  ({c['detail']})"
        lines.append(bits)
    lines.append(f"result: {'all checks passed' if report['all_passed'] else 'CHECK FAILED'}")
    return "\n".join(lines) + "\n"


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="workbench",
                                     description="moving-frame geometry workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the configured tasks")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="write the report here (default stdout)")
    run_p.add_argument("--format", choices=("json", "text"), default="json")
    val_p = sub.add_parser("validate", help="validate a config file")
    val_p.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        config = load_config_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print("config ok")
        return 0
    try:
        report, code = run_pipeline(config)
    except (SingularMetricError, VanishingFlowError, SignatureError,
            EvalDomainError, FormArityError, ExprError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    text = serialize_report(report) if args.format == "json" else render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
