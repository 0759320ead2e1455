"""Rigid-flow isometry verification (generalized Herglotz-Noether pipeline).

For a rotational rigid flow in an admissible ambient space (flat, constant
curvature, conformally flat or Ricci flat) the theorem demands that the flow
direction u is proportional to a Killing field lambda*u.  The pipeline:

1. hypothesis gates: rigidity, rotation (max |M| over samples above a
   threshold), closedness K_[i;j] ~ 0 and basicness of M, K;
2. reconstruct log(lambda) by integrating the coordinate 1-form K from a
   basepoint (Poincare-lemma step), with two independent polygonal paths per
   target point as a path-independence certificate.  The quadrature
   evaluates u and F = d psi0 of the flow stage at its nodes and forms
   K_mu = -u^nu F_nu mu in numpy; this is K_i theta^i_mu, because
   sum_i e_i^rho theta^i_mu = delta^rho_mu - u^rho psi0_mu and F(u, u) = 0,
   so no coordinate form of K is built;
3. verify L_{lambda u} g ~ 0, assembling the Killing residual from the
   L_u g frame components of the flow's jet and a finite-difference gradient
   of the reconstructed lambda so that the quadrature participates in the
   check.

Before any integral, one pass checks that the paths, the leaf steps and the
central finite-difference stencils stay in the domain box and out of every
exclusion; a second pass tests the one-sided stencils, only for the samples
whose central stencil leaves the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .expression import Chart, EvalDomainError, Expr, evaluate, max_abs, triu_indices
from .frames import SpaceClassification
from .submersion import ConstraintReport, FlowData

__all__ = [
    "ClosednessError", "PathError", "HypothesisReport", "LambdaReconstruction",
    "HerglotzReport", "RicciFlatReport",
    "check_hypotheses", "reconstruct_lambda",
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
    max_m = max_abs(jet["m"])
    basic_m = max_abs(jet["mc"][:, :, 0])
    basic_k = max_abs(jet["kc"][:, 0])
    kh = jet["kc"][:, 1:]
    closed = max_abs(0.5 * (kh - np.swapaxes(kh, 0, 1)))
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
    # finite-difference d log(lambda), (N, n), or why a stencil failed
    log_gradient: np.ndarray | None = field(default=None, repr=False)
    stencil_fault: str | None = None


# Gauss-Kronrod 7/15 (Piessens et al., QUADPACK, 1983) at the nonnegative nodes
# of [-1, 1]: nodes, 15-point weights, 7-point Gauss weights (every second node)
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
       0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664,
       0.0, 0.3818300505051189, 0.0, 0.4179591836734694)
_GK_NODES, _GK_K15, _GK_G7 = (np.concatenate([sign * np.array(half[:-1]), half[::-1]])
                              for sign, half in ((-1.0, _XK), (1.0, _WK), (1.0, _WG)))
# a smooth K needs one panel per segment (every integral of the benchmark
# workloads converges at the first level); the cap bounds what an integrand
# the rule cannot resolve costs before its segment is given up
_OPEN_PER_SEGMENT = 256
# the deepest refinement level: a panel 2^-24 of its segment long is accepted
# as it stands, so the halving ends even where few panels stay open
_MAX_LEVEL = 24
# the finite-difference step of the log(lambda) gradient (CONVENTIONS.md): a
# longer one raises the stencil's O(h^2) error (1e-8 at unit scale, against the
# Killing tolerance 1e-7), a shorter one the weight 1/(2h) of its integrals' error
_FD_STEP = 1e-4
# points per evaluate call, of the quadrature and of the path checks: the walk
# keeps many arrays of this length live, so one call per batch raises peak memory
_POINTS_PER_EVALUATE = 2048
# the 17 equally spaced points of each stencil segment, in finite-difference
# steps along the axis: [-1, 1] (central), [0, 1] and [0, 2] (forward),
# [-1, 0] and [-2, 0] (backward); 49 offsets, each stencil reads a slice
_STENCIL_OFFSETS = np.concatenate([np.linspace(-2.0, -1.125, 8), np.linspace(-1.0, 1.0, 33),
                                   np.linspace(1.125, 2.0, 8)])
_STENCIL_SPANS = (slice(8, 41, 2), slice(24, 49), slice(0, 25))


def _k_values(u: Sequence[Expr], f: Sequence[Sequence[Expr]],
              points: Mapping[str, np.ndarray]) -> np.ndarray:
    """K_mu = -u^nu F_nu mu at the points (axes mu, point), from one
    :func:`evaluate` of u and F.  This is K = K_i theta^i: the frame gives
    sum_i e_i^rho theta^i_mu = delta^rho_mu - u^rho psi0_mu, and F(u, u) = 0."""
    v = evaluate({"u": u, "f": f}, points)
    return -np.einsum("np,nmp->mp", v["u"], v["f"])


def _line_integrals(u: Sequence[Expr], f: Sequence[Sequence[Expr]], chart: Chart,
                    starts: np.ndarray, ends: np.ndarray, tol: float) -> np.ndarray:
    """Integral of K_mu = -u^nu F_nu mu (u and F as expressions, K in numpy
    at the nodes) along each straight segment start -> end, by adaptive
    Gauss-Kronrod 7/15 in t in [0, 1]: a panel [a, b] is accepted with its
    15-point value when |K15 - G7| < tol (b - a), else halved (accepted as
    it is at level ``_MAX_LEVEL``).  All open panels are refined together, level
    by level, one :func:`evaluate` call per ``_POINTS_PER_EVALUATE`` nodes;
    each integral adds its accepted panels level by level in t order.  A
    segment with more than ``_OPEN_PER_SEGMENT`` open panels is given up and
    reads nan, so an integrand the rule cannot resolve costs bounded memory.
    """
    n, chunk = chart.n, _POINTS_PER_EVALUATE // len(_GK_NODES)
    deltas = ends - starts
    out = np.zeros(len(starts))
    seg = np.flatnonzero(deltas.any(axis=1))
    a, b = np.zeros(len(seg)), np.ones(len(seg))
    for level in range(_MAX_LEVEL + 1):
        if not len(seg):
            break
        half = 0.5 * (b - a)
        mid = a + half
        t = mid[:, None] + half[:, None] * _GK_NODES
        y = np.empty(t.shape)
        for lo in range(0, len(seg), chunk):
            s = seg[lo:lo + chunk]
            x = starts[s, None, :] + t[lo:lo + chunk, :, None] * deltas[s, None, :]
            k = _k_values(u, f, dict(zip(chart.coords, x.reshape(-1, n).T)))
            y[lo:lo + chunk] = sum(k[mu].reshape(len(s), -1) * deltas[s, mu, None]
                                   for mu in range(n))
        kronrod = half * (y * _GK_K15).sum(axis=1)
        err = np.abs(kronrod - half * (y * _GK_G7).sum(axis=1))
        done = (err < tol * (b - a)) | (level == _MAX_LEVEL)
        out += np.bincount(seg[done], kronrod[done], len(out))
        seg, a, mid, b = np.repeat(seg[~done], 2), a[~done], mid[~done], b[~done]
        a, b = np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel()
        over = np.bincount(seg, minlength=len(out)) > _OPEN_PER_SEGMENT
        out[over] = np.nan
        seg, a, b = seg[~over[seg]], a[~over[seg]], b[~over[seg]]
    return out


def _along(starts: np.ndarray, ends: np.ndarray, count: int) -> np.ndarray:
    """``count`` equally spaced points on each segment, as rows."""
    t = np.linspace(0.0, 1.0, count)[None, :, None]
    return (starts[:, None, :] + t * (ends - starts)[:, None, :]).reshape(-1, starts.shape[1])


def _in_box(chart: Chart, pts: np.ndarray) -> np.ndarray:
    """Per row: inside the domain box padded by 1e-9 (1 + |lo| + |hi|)."""
    inside = np.ones(len(pts), dtype=bool)
    for mu, c in enumerate(chart.coords):
        lo, hi = chart.domain[c]
        pad = 1e-9 * (1.0 + abs(hi) + abs(lo))
        inside &= (lo - pad <= pts[:, mu]) & (pts[:, mu] <= hi + pad)
    return inside


def _path_faults(chart: Chart, pts: np.ndarray) -> np.ndarray:
    """Per row: -1 admissible, 0 outside the padded box, 1 + e inside
    exclusion e, the first that holds there (:meth:`Chart.excluded_by`),
    ``_POINTS_PER_EVALUATE`` rows at a time."""
    if not chart.exclusions:
        return np.where(_in_box(chart, pts), -1, 0)
    faults = np.zeros(len(pts), dtype=int)
    for lo in range(0, len(pts), _POINTS_PER_EVALUATE):
        rows = pts[lo:lo + _POINTS_PER_EVALUATE]
        inside = _in_box(chart, rows)
        first = chart.excluded_by(dict(zip(chart.coords, rows[inside].T)))
        faults[lo:lo + len(rows)][inside] = np.where(first < 0, -1, first + 1)
    return faults


def _stencil_line(p: np.ndarray, e: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The points p + offset e of each row of p, for each offset, as rows."""
    return (p[:, None, :] + offsets[:, None] * e[:, None, :]).reshape(-1, p.shape[1])


def _admissible(chart: Chart, paths: np.ndarray, leaf_from: np.ndarray, leaf_to: np.ndarray,
                p: np.ndarray, e: np.ndarray):
    """A :class:`PathError` at the first bad row of ``paths``, else whether
    each leaf step fits (at 17 points) and, per row of p with step e, the
    first stencil that fits (0 central, 1 forward, 2 backward) or -1.

    One :func:`_path_faults` pass tests the paths, the leaf steps and the 17
    central-stencil points of each row; only the rows whose central stencil
    does not fit have their 49-offset line tested, in a second pass.  So an
    exclusion is not evaluated at the one-sided points of a row whose central
    stencil fits.  An :class:`EvalDomainError` of either pass replays the
    single pass over every stencil point, whose first error is raised.
    """
    leaf = _along(leaf_from, leaf_to, 17)
    try:
        faults = _path_faults(chart, np.concatenate(
            [paths, leaf, _stencil_line(p, e, _STENCIL_OFFSETS[_STENCIL_SPANS[0]])]))
        choice = np.where(np.all(faults[len(paths) + len(leaf):].reshape(len(p), -1) < 0,
                                 axis=1), 0, -1)
        off = np.flatnonzero(choice < 0)
        if len(off):
            ok = _path_faults(chart, _stencil_line(p[off], e[off], _STENCIL_OFFSETS)
                              ).reshape(len(off), -1) < 0
            fits = np.array([np.all(ok[:, span], axis=1) for span in _STENCIL_SPANS])
            choice[off] = np.where(fits.any(axis=0), fits.argmax(axis=0), -1)
    except EvalDomainError:
        _path_faults(chart, np.concatenate([paths, leaf, _stencil_line(p, e, _STENCIL_OFFSETS)]))
        raise
    if np.any(faults[:len(paths)] >= 0):
        k = int(np.argmax(faults >= 0))
        where = ("leaves the domain box" if faults[k] == 0 else "crosses excluded region "
                 f"({chart.exclusions[faults[k] - 1].text})")
        raise PathError(f"integration path {where} at {chart.point(paths[k])}")
    leaf_fit = np.all(faults[len(paths):len(paths) + len(leaf)].reshape(-1, 17) < 0, axis=1)
    return leaf_fit, choice


def _rk4_step(chart: Chart, u: Sequence[Expr], x: np.ndarray, ux: np.ndarray, h: float):
    """One RK4 step of the flow u from each row of x, where u is ``ux``:
    (the rows stepped, their images).  A row whose stage point leaves the
    padded domain box is skipped, since u need not be defined there."""
    rows, ks = np.arange(len(x)), [ux]
    for c in (0.5, 0.5, 1.0):
        stage = x + c * h * ks[-1]
        keep = _in_box(chart, stage)
        if not keep.all():
            rows, x, stage, ks = rows[keep], x[keep], stage[keep], [k[keep] for k in ks]
        ks.append(evaluate(u, dict(zip(chart.coords, stage.T))).T)
    k1, k2, k3, k4 = ks
    return rows, x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reconstruct_lambda(flow: FlowData, basepoint: Mapping[str, float],
                       closedness_residual: float,
                       closedness_tol: float = 1e-8,
                       quadrature_tol: float = 1e-10,
                       path_tol: float = 1e-6) -> LambdaReconstruction:
    """lambda(p) = exp(line integral of K) from the basepoint, at the flow's samples.

    Requires the closedness certificate; integrates along the straight
    segment and along an axis-ordered polyline, comparing the two.  The
    sampling domain is assumed simply connected (declared, not inferred).
    One batch of integrals, after the admissibility check of
    :func:`_admissible`, also gives the leaf estimate and the
    finite-difference gradient of log(lambda) (step ``_FD_STEP``) that
    :func:`scaled_flow_killing_residual` reads: one segment per (sample,
    axis) row for a central stencil, and a second one only for the rows
    whose stencil is one-sided.
    """
    if closedness_residual >= closedness_tol:
        raise ClosednessError(closedness_residual, closedness_tol)
    chart = flow.chart
    if not chart.simply_connected:
        raise PathError("sampling domain is not declared simply connected; "
                        "the Poincare-lemma step is only local")
    n = chart.n
    base = np.array([basepoint[c] for c in chart.coords], dtype=float)
    targets = np.column_stack([flow.samples[c] for c in chart.coords])
    count = len(targets)
    bases = np.broadcast_to(base, targets.shape)
    # staircase corner mu takes the first mu coordinates of the target, the rest of the base
    corners = np.stack([np.where(np.arange(n) < mu, targets, base) for mu in range(n + 1)], axis=1)
    stair_starts = corners[:, :-1].reshape(-1, n)
    stair_ends = corners[:, 1:].reshape(-1, n)

    # |u(log lambda)| at every target: the integral of K along the short
    # segment from p to its flow step phi_step(p), over step (K is closed, so
    # the straight segment stands for the flow line); a segment that leaves
    # the domain is skipped; u at the targets is e_0 of the flow's jet
    step = 0.01
    stepped, moved = _rk4_step(chart, flow.adapted.u, targets, flow.jet["e"][0].T, step)
    # d log(lambda) along each axis, row (point, axis): (w_A I_A - w_B I_B) / 2h
    # over the segments A and B of the first stencil that fits: central
    # A = [p - e, p + e] with w = (1, 0), so no B; forward A = [p, p + e],
    # B = [p, p + 2e] and backward A = [p - e, p], B = [p - 2e, p] with w = (4, 1)
    p = np.repeat(targets, n, axis=0)
    e = np.tile(np.eye(n) * _FD_STEP, (count, 1))
    # per target, its straight path and then its staircase
    paths = np.concatenate([_along(bases, targets, 17).reshape(count, -1, n),
                            _along(stair_starts, stair_ends, 9).reshape(count, -1, n)], axis=1)
    leaf_fit, choice = _admissible(chart, paths.reshape(-1, n), targets[stepped], moved, p, e)
    unfit = np.flatnonzero(choice < 0)               # if any, no stencil is integrated
    fd = slice(0 if len(unfit) else None)
    c, q, d = choice[fd, None], p[fd], e[fd]
    side = c[:, 0] > 0                               # the rows of a one-sided stencil
    cs, qs, ds = c[side], q[side], d[side]

    ints = _line_integrals(
        flow.adapted.u, flow.adapted.f, chart,
        np.concatenate([bases, stair_starts, targets[stepped[leaf_fit]],
                        np.where(c == 1, q, q - d), np.where(cs == 1, qs, qs - 2 * ds)]),
        np.concatenate([targets, stair_ends, moved[leaf_fit],
                        np.where(c == 2, q, q + d), np.where(cs == 1, qs + 2 * ds, qs)]),
        quadrature_tol)
    unresolved = f"quadrature of K did not converge: more than {_OPEN_PER_SEGMENT} open panels"
    main = count * (n + 1) + np.count_nonzero(leaf_fit)
    if np.isnan(ints[:main]).any():
        raise PathError(unresolved)
    direct = ints[:count]
    stair = sum(ints[count:count * (n + 1)].reshape(count, n)[:, mu] for mu in range(n))
    gaps = np.abs(direct - stair) / np.maximum(1.0, np.abs(direct))
    worst_gap = float(np.max(gaps, initial=0.0))
    if worst_gap >= path_tol:
        raise PathError(f"path-independence violated: relative gap {worst_gap:.3e} "
                        f"exceeds {path_tol:g}")
    lam = LambdaReconstruction(dict(basepoint), [math.exp(d) for d in direct], worst_gap,
                               max_abs(ints[count * (n + 1):main] / step))
    if len(unfit):
        lam.stencil_fault = (f"finite-difference stencil at {chart.point(p[unfit[0]])} "
                             f"leaves the domain along {chart.coords[unfit[0] % n]}")
    elif np.isnan(ints[main:]).any():
        lam.stencil_fault = unresolved
    else:
        grad = ints[main:main + count * n]           # I_A, and 4 I_A - I_B where one-sided
        grad[side] = 4.0 * grad[side] - ints[main + count * n:]
        lam.log_gradient = (grad / (2.0 * _FD_STEP)).reshape(count, n)
    return lam


def scaled_flow_killing_residual(flow: FlowData, lam: LambdaReconstruction) -> float:
    """Killing residual of V = lambda u, the max over the flow's samples.

    Uses L_{f u} g = f L_u g + df (x) psi0 + psi0 (x) df with the L_u g frame
    components of the flow's jet, lambda and ``lam.log_gradient``, whose
    differences of log(lambda) are integrals of K along short stencil
    segments: the check sees the quadrature error of lambda(p) and of these
    short integrals (not of a difference of two long-path integrals) plus
    the O(_FD_STEP^2) stencil error.  A stencil fault is a :class:`PathError`.
    """
    if lam.stencil_fault is not None:
        raise PathError(lam.stencil_fault)
    lval = np.array(lam.values, dtype=float)
    grad = lam.log_gradient * lval[:, None]
    dlam_frame = np.einsum("amp,pm->ap", flow.jet["e"], grad)  # d lambda on the frame vectors
    val = lval * flow.jet["lie"]
    val[0, 0] += dlam_frame[0]
    val[0, :] += dlam_frame
    return max_abs(val[triu_indices(flow.chart.n)])


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
