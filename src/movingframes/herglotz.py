"""Rigid-flow isometry verification (generalized Herglotz-Noether pipeline).

For a rotational rigid flow in an admissible ambient space (flat, constant
curvature, conformally flat or Ricci flat) the theorem demands that the flow
direction u is proportional to a Killing field lambda*u.  The pipeline:

1. hypothesis gates: rigidity, rotation (max |M| over samples above a
   threshold), closedness K_[i;j] ~ 0 and basicness of M, K;
2. reconstruct log(lambda) by integrating the coordinate 1-form K from a
   basepoint (Poincare-lemma step), with two independent polygonal paths per
   target point as a path-independence certificate;
3. verify L_{lambda u} g ~ 0, assembling the Killing residual from the
   L_u g frame components of the flow's jet and a finite-difference gradient
   of the reconstructed lambda so that the quadrature participates in the
   check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .expression import Chart, Expr, add, evaluate, mul
from .frames import Metric, SpaceClassification
from .submersion import ConstraintReport, FlowData, _sup, lie_derivative_at

__all__ = [
    "ClosednessError", "PathError", "HypothesisReport", "LambdaReconstruction",
    "HerglotzReport", "RicciFlatReport",
    "check_hypotheses", "reconstruct_lambda", "verify_killing",
    "scaled_flow_killing_residual", "ricci_flat_check", "run_herglotz",
]


class ClosednessError(ValueError):
    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"K is not closed: max |K_[i;j]| = {residual:.3e} exceeds {tol:g}; "
            "log-magnitude reconstruction refused")
        self.residual = residual


class PathError(ValueError):
    pass


@dataclass
class HypothesisReport:
    rigid: bool
    rigidity_residual: float
    rotational: bool
    max_m: float
    rotational_threshold: float
    closedness_residual: float
    basic_m_residual: float
    basic_k_residual: float
    ambient_admissible: bool
    ambient_reason: str
    tol: float

    def satisfied(self) -> bool:
        return (self.rigid and self.rotational and self.ambient_admissible
                and self.closedness_residual < self.tol
                and self.basic_m_residual < self.tol
                and self.basic_k_residual < self.tol)

    def failure_reason(self) -> str | None:
        if not self.rigid:
            return f"flow is not rigid (residual {self.rigidity_residual:.3e})"
        if not self.rotational:
            return (f"flow is non-rotational (max |M| = {self.max_m:.3e} <= "
                    f"threshold {self.rotational_threshold:g})")
        if not self.ambient_admissible:
            return f"ambient space not admissible ({self.ambient_reason})"
        if self.closedness_residual >= self.tol:
            return f"K_[i;j] residual {self.closedness_residual:.3e} above {self.tol:g}"
        if self.basic_m_residual >= self.tol:
            return f"M basicness residual {self.basic_m_residual:.3e} above {self.tol:g}"
        if self.basic_k_residual >= self.tol:
            return f"K basicness residual {self.basic_k_residual:.3e} above {self.tol:g}"
        return None


def check_hypotheses(flow: FlowData, ambient: SpaceClassification,
                     tol: float = 1e-7,
                     rotational_threshold: float = 1e-6) -> HypothesisReport:
    """Gate the isometry theorem at the flow's samples: rigidity, rotation,
    closedness, basicness."""
    jet = flow.jet
    max_m = _sup(jet["m"])
    basic_m = _sup(jet["mc"][:, :, 0])
    basic_k = _sup(jet["kc"][:, 0])
    kh = jet["kc"][:, 1:]
    closed = float(np.max(0.5 * np.abs(kh - np.swapaxes(kh, 0, 1)), initial=0.0))
    if ambient.flat:
        reason = "flat"
    elif ambient.constant_curvature:
        reason = f"constant curvature (kappa = {ambient.kappa:.12g})"
    elif ambient.conformally_flat is True:
        reason = "conformally flat"
    elif ambient.ricci_flat:
        reason = "Ricci flat"
    else:
        reason = "neither flat, constant-curvature, conformally flat nor Ricci flat"
    return HypothesisReport(
        rigid=flow.rigidity.rigid,
        rigidity_residual=flow.rigidity.residual,
        rotational=max_m > rotational_threshold,
        max_m=max_m,
        rotational_threshold=rotational_threshold,
        closedness_residual=closed,
        basic_m_residual=basic_m,
        basic_k_residual=basic_k,
        ambient_admissible=ambient.admissible_for_isometry_theorem(),
        ambient_reason=reason,
        tol=tol,
    )


@dataclass
class LambdaReconstruction:
    basepoint: dict
    values: list                       # lambda at each sample, lambda(base) = 1
    path_independence_residual: float  # max relative gap between the two paths
    leaf_derivative_residual: float    # |u(lambda)| estimate via a flow step
    quadrature_tol: float
    # (starts, ends) coordinate rows -> integrals of K along the straight
    # segments between them, each path checked against the domain first
    line_integral: Callable = field(default=None, repr=False)


def _k_coordinate_form(flow: FlowData) -> list:
    """K = K_i theta^i written in coordinate components K_mu."""
    chart = flow.chart
    h = flow.horizontal
    out = []
    for mu in range(chart.n):
        terms = []
        for i in range(h):
            coeff = flow.adapted.coframe.theta[i + 1].coefficient((mu,))
            if not coeff.is_zero():
                terms.append(mul(flow.k[i], coeff))
        out.append(add(*terms))
    return out


# the benchmark workloads' runs keep at most 8 intervals per segment open
_OPEN_PER_SEGMENT = 256


def _line_integrals(k_mu: list, chart: Chart, starts: np.ndarray, ends: np.ndarray,
                    tol: float, depth: int = 24) -> np.ndarray:
    """Integral of K along each straight segment start -> end.

    Adaptive Simpson in t in [0, 1]: an interval is accepted when
    |left + right - whole| < 15 tol and is otherwise halved with tol halved,
    down to ``depth`` levels.  The open intervals of all segments are refined
    together, one :func:`evaluate` call per level, and each integral is summed
    over its interval tree in the order the recursive rule adds.  More than
    ``_OPEN_PER_SEGMENT`` open intervals per segment is a :class:`PathError`,
    so that an integrand the rule cannot resolve costs bounded memory.
    """
    deltas = ends - starts
    out = np.zeros(len(starts))
    roots = seg = np.flatnonzero(deltas.any(axis=1))

    def f(seg, t):
        x = starts[seg] + t[:, None] * deltas[seg]
        k = evaluate(k_mu, dict(zip(chart.coords, x.T)))
        return sum(k[mu] * deltas[seg, mu] for mu in range(chart.n))

    m = len(seg)
    if not m:
        return out
    fa, fm, fb = f(np.tile(seg, 3), np.repeat([0.0, 0.5, 1.0], m)).reshape(3, m)
    a, b = np.zeros(m), np.ones(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    levels = []
    for level in range(depth + 1):
        mid = 0.5 * (a + b)
        fl, fr = f(np.tile(seg, 2), np.concatenate([0.5 * (a + mid), 0.5 * (mid + b)])
                   ).reshape(2, -1)
        left = (mid - a) / 6.0 * (fa + 4.0 * fl + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * fr + fb)
        err = left + right - whole
        split = ~(np.abs(err) < 15.0 * tol) & (level < depth)
        levels.append((split, left + right + err / 15.0))
        if not split.any():
            break
        if 2 * np.count_nonzero(split) > _OPEN_PER_SEGMENT * m:
            raise PathError(f"quadrature of K did not converge: more than "
                            f"{_OPEN_PER_SEGMENT} open intervals per segment")

        def halves(u, v):
            return np.column_stack([u[split], v[split]]).ravel()

        a, b = halves(a, mid), halves(mid, b)
        fa, fm, fb = halves(fa, fm), halves(fl, fr), halves(fm, fb)
        whole = halves(left, right)
        seg = np.repeat(seg[split], 2)
        tol /= 2.0
    value = levels[-1][1]
    for split, own in reversed(levels[:-1]):
        own[split] = value[0::2] + value[1::2]
        value = own
    out[roots] = value
    return out


def _along(starts: np.ndarray, ends: np.ndarray, count: int) -> np.ndarray:
    """``count`` equally spaced points on each segment, as rows."""
    t = np.linspace(0.0, 1.0, count)[None, :, None]
    return (starts[:, None, :] + t * (ends - starts)[:, None, :]).reshape(-1, starts.shape[1])


def _path_faults(chart: Chart, pts: np.ndarray) -> np.ndarray:
    """Per row: -1 admissible, 0 outside the (padded) box, 1 + e inside
    exclusion e, the first that holds there (:meth:`Chart.excluded_by`)."""
    lo = np.array([chart.domain[c][0] for c in chart.coords])
    hi = np.array([chart.domain[c][1] for c in chart.coords])
    pad = 1e-9 * (1.0 + np.abs(hi) + np.abs(lo))
    inside = np.all((lo - pad <= pts) & (pts <= hi + pad), axis=1)
    faults = np.zeros(len(pts), dtype=int)
    first = chart.excluded_by(dict(zip(chart.coords, pts[inside].T)))
    faults[inside] = np.where(first < 0, -1, first + 1)
    return faults


def _check_path(chart: Chart, pts: np.ndarray):
    """PathError naming the first row that leaves the admissible region."""
    faults = _path_faults(chart, pts)
    if np.any(faults >= 0):
        k = int(np.argmax(faults >= 0))
        where = ("leaves the domain box" if faults[k] == 0 else "crosses excluded region "
                 f"({chart.exclusions[faults[k] - 1].text})")
        raise PathError(f"integration path {where} at {chart.point(pts[k])}")


def _segments_fit(chart: Chart, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Whether each segment's 17-point path stays admissible."""
    faults = _path_faults(chart, _along(starts, ends, 17))
    return np.all(faults.reshape(len(starts), 17) < 0, axis=1)


def reconstruct_lambda(flow: FlowData, basepoint: Mapping[str, float],
                       closedness_residual: float,
                       closedness_tol: float = 1e-8,
                       quadrature_tol: float = 1e-10,
                       path_tol: float = 1e-6) -> LambdaReconstruction:
    """lambda(p) = exp(line integral of K) from the basepoint, at the flow's samples.

    Requires the closedness certificate; integrates along the straight
    segment and along an axis-ordered polyline, comparing the two.  The
    sampling domain is assumed simply connected (declared, not inferred).
    """
    if closedness_residual >= closedness_tol:
        raise ClosednessError(closedness_residual, closedness_tol)
    chart = flow.chart
    if not chart.simply_connected:
        raise PathError("sampling domain is not declared simply connected; "
                        "the Poincare-lemma step is only local")
    n = chart.n
    k_mu = _k_coordinate_form(flow)

    def line_integral(starts, ends) -> np.ndarray:
        starts = np.asarray(starts, dtype=float).reshape(-1, n)
        ends = np.asarray(ends, dtype=float).reshape(-1, n)
        _check_path(chart, _along(starts, ends, 17))
        return _line_integrals(k_mu, chart, starts, ends, quadrature_tol)

    base = np.array([basepoint[c] for c in chart.coords], dtype=float)
    targets = np.column_stack([flow.samples[c] for c in chart.coords])
    count = len(targets)
    bases = np.broadcast_to(base, targets.shape)
    # staircase corner mu + 1 takes the first mu + 1 coordinates of the target
    corners = np.empty((count, n + 1, n))
    corners[:, 0] = base
    for mu in range(n):
        corners[:, mu + 1] = corners[:, mu]
        corners[:, mu + 1, mu] = targets[:, mu]
    stair_starts = corners[:, :-1].reshape(-1, n)
    stair_ends = corners[:, 1:].reshape(-1, n)
    _check_path(chart, np.concatenate(
        [_along(bases, targets, 17).reshape(count, -1, n),
         _along(stair_starts, stair_ends, 9).reshape(count, -1, n)], axis=1).reshape(-1, n))

    # |u(log lambda)| at every target: the integral of K along the short
    # segment from p to its flow step phi_step(p), over step (K is closed, so
    # the straight segment stands for the flow line); a segment that leaves
    # the domain is skipped
    step = 0.01
    moved = _rk4_step(lambda x: evaluate(flow.adapted.u, dict(zip(chart.coords, x.T))).T,
                      targets, step)
    ok = _segments_fit(chart, targets, moved)

    ints = _line_integrals(k_mu, chart,
                           np.concatenate([bases, stair_starts, targets[ok]]),
                           np.concatenate([targets, stair_ends, moved[ok]]), quadrature_tol)
    direct = ints[:count]
    stair = sum(ints[count:count * (n + 1)].reshape(count, n)[:, mu] for mu in range(n))
    gaps = np.abs(direct - stair) / np.maximum(1.0, np.abs(direct))
    worst_gap = float(np.max(gaps, initial=0.0))
    if worst_gap >= path_tol:
        raise PathError(f"path-independence violated: relative gap {worst_gap:.3e} "
                        f"exceeds {path_tol:g}")
    leaf = _sup(ints[count * (n + 1):] / step)

    return LambdaReconstruction(
        basepoint=dict(basepoint),
        values=[math.exp(d) for d in direct],
        path_independence_residual=worst_gap,
        leaf_derivative_residual=leaf,
        quadrature_tol=quadrature_tol,
        line_integral=line_integral,
    )


def _rk4_step(f, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def verify_killing(metric: Metric, vector: Sequence[Expr],
                   points: Mapping[str, np.ndarray],
                   frame_vectors: Sequence[Sequence[Expr]] | None = None) -> float:
    """max frame component of L_V g over the samples (full tensor).

    Components are taken in the supplied orthonormal frame, or in the
    coordinate basis when no frame is given.
    """
    return _sup(lie_derivative_at(metric, vector, frame_vectors, points))


def scaled_flow_killing_residual(flow: FlowData, lam: LambdaReconstruction,
                                 fd_step: float = 1e-4) -> float:
    """Killing residual of V = lambda u, the max over the flow's samples.

    Uses L_{f u} g = f L_u g + df (x) psi0 + psi0 (x) df with the L_u g frame
    components of the flow's jet, the reconstructed lambda and a finite-difference
    gradient of log(lambda).  Each difference of log(lambda) is the integral
    of K along the short segment between its stencil points: central, or
    second-order one-sided along an axis where the central stencil leaves
    the domain.  The check sees the quadrature error of lambda(p) and of
    these short integrals (not the far larger error of a difference of two
    long-path integrals) plus the O(fd_step^2) stencil error.
    """
    chart = flow.chart
    n = chart.n
    pts = np.column_stack([flow.samples[c] for c in chart.coords])
    count = len(pts)
    p = np.repeat(pts, n, axis=0)                    # row (point, axis)
    e = np.tile(np.eye(n) * fd_step, (count, 1))
    # segments A and B of each stencil: gradient = (w_A I_A - w_B I_B) / 2h
    stencils = [(p - e, p + e, p, p),                # central, w = (1, 0)
                (p, p + e, p, p + 2 * e),            # forward, w = (4, 1)
                (p - e, p, p - 2 * e, p)]            # backward, w = (4, 1)
    fits = np.array([_segments_fit(chart, a0, a1) & _segments_fit(chart, b0, b1)
                     for a0, a1, b0, b1 in stencils])
    if not fits.any(axis=0).all():
        row = int(np.flatnonzero(~fits.any(axis=0))[0])
        raise PathError(f"finite-difference stencil at {chart.point(p[row])} leaves the "
                        f"domain along {chart.coords[row % n]}")
    choice = fits.argmax(axis=0)                     # the first stencil that fits
    parts = [np.choose(choice[:, None], [st[k] for st in stencils]) for k in range(4)]
    wa = np.where(choice == 0, 1.0, 4.0)
    wb = np.where(choice == 0, 0.0, 1.0)
    ints = lam.line_integral(np.concatenate([parts[0], parts[2]]),
                             np.concatenate([parts[1], parts[3]]))
    ia, ib = ints[:count * n], ints[count * n:]
    lval = np.array(lam.values, dtype=float)
    grad = ((wa * ia - wb * ib) / (2.0 * fd_step)).reshape(count, n) * lval[:, None]
    jet = flow.jet
    dlam_frame = np.einsum("amp,pm->ap", jet["e"], grad)  # d lambda on the frame vectors
    val = lval * jet["lie"]
    val[0, 0] += dlam_frame[0]
    val[0, :] += dlam_frame
    return _sup(val[np.triu_indices(n)])


@dataclass
class RicciFlatReport:
    applicable: bool
    reason: str
    residuals: dict = field(default_factory=dict)
    m2_leaf_residual: float | None = None

    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


def ricci_flat_check(constraints: ConstraintReport,
                     ambient: SpaceClassification) -> RicciFlatReport:
    """The Ricci-flat constraint rows plus leaf-constancy of |M|^2.

    The rows are read from the constraint report, which evaluated them:
    R_00 and R_0i are its tilde-free rows, R_ij and R its Ricci and scalar
    cross-checks of the quotient curvature.  Inapplicable (not a failure)
    when the ambient space is not Ricci flat.
    """
    if not ambient.ricci_flat:
        return RicciFlatReport(False, f"ambient is not Ricci flat "
                                      f"(max |Ricci| = {ambient.max_ricci:.3e})")
    rows = {"R_00": constraints.tilde_free["R_00"], "R_0i": constraints.tilde_free["R_0i"],
            "R_ij": constraints.ricci_cross_residual, "R": constraints.scalar_cross_residual}
    return RicciFlatReport(True, "ambient is Ricci flat", rows, constraints.m2_leaf_residual)


@dataclass
class HerglotzReport:
    hypotheses: HypothesisReport
    verdict: str                       # isometric-verified | hypotheses-not-met | inconsistent
    reason: str
    lam: LambdaReconstruction | None = None
    killing_residual: float | None = None
    killing_tol: float | None = None

    def verified(self) -> bool:
        return self.verdict == "isometric-verified"


def run_herglotz(flow: FlowData, ambient: SpaceClassification,
                 basepoint: Mapping[str, float],
                 tol: float = 1e-7,
                 rotational_threshold: float = 1e-6,
                 closedness_tol: float = 1e-8,
                 quadrature_tol: float = 1e-10,
                 path_tol: float = 1e-6,
                 killing_tol: float = 1e-7) -> HerglotzReport:
    """Full theorem pipeline; the verdict is isometric-verified only when
    every hypothesis gate and every residual clears its tolerance."""
    hyp = check_hypotheses(flow, ambient, tol, rotational_threshold)
    failure = hyp.failure_reason()
    if failure is not None:
        return HerglotzReport(hyp, "hypotheses-not-met", failure)
    try:
        lam = reconstruct_lambda(flow, basepoint, hyp.closedness_residual,
                                 closedness_tol, quadrature_tol, path_tol)
    except (ClosednessError, PathError) as exc:
        return HerglotzReport(hyp, "inconsistent", str(exc))
    if lam.leaf_derivative_residual >= tol:
        return HerglotzReport(hyp, "inconsistent",
                              f"u(lambda) estimate {lam.leaf_derivative_residual:.3e} "
                              f"exceeds {tol:g}", lam)
    try:
        killing = scaled_flow_killing_residual(flow, lam)
    except PathError as exc:
        return HerglotzReport(hyp, "inconsistent", str(exc), lam)
    if killing >= killing_tol:
        return HerglotzReport(hyp, "inconsistent",
                              f"Killing residual {killing:.3e} exceeds {killing_tol:g}",
                              lam, killing, killing_tol)
    return HerglotzReport(hyp, "isometric-verified",
                          "all hypothesis gates and residuals cleared",
                          lam, killing, killing_tol)
