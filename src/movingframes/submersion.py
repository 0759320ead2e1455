"""Codimension-1 flow geometry: adapted coframes, invariants and constraints.

Given a nowhere-zero flow V on (M, g) the unit direction u = V/|V| defines a
codimension-1 foliation.  In the adapted orthonormal frame (u = e_0, e_i) the
flow carries two invariants extracted from d psi0 (psi0 = metric dual of u):

    M_ij = -(1/2) d psi0(e_i, e_j)        (vorticity, antisymmetric)
    K_i  = -d psi0(u, e_i)                (magnitude-gradient covector)

and the same data can be read off the torsion-free connection of the full
adapted coframe: M_ij is the theta^j coefficient of alpha^i_0 (for rigid
flows) and K_i the psi0 coefficient of alpha^0_i.  The quotient-compatible
connection used for covariant derivatives of horizontal tensors is the
absorbed block  abar^i_j = alpha^i_j - M_ij psi0,  whose leaf-direction slot
realises basicness: a horizontal tensor is basic exactly when its ";0"
derivative vanishes.

The constraint system relating ambient curvature (adapted frame) to M, K and
the quotient curvature is derived from the structure equations; for any unit
rigid flow the tilde-free rows are identities:

    R_0i0j = -M_ij;0 - K_i;j - K_i K_j - (M^2)_ij
    R_0ijk = -M_ik;j + M_ij;k - 2 K_i M_jk
    R_ij0k =  M_ki;j - M_kj;i - 2 M_ij K_k
    R_00   = -sum_i K_i;i - |K|^2 + |M|^2
    R_0i   =  sum_j M_ji;j - 2 sum_j K_j M_ij

and the tilde-bearing rows are solved for the quotient curvature:

    Rq_ijkl = R_ijkl + M_ik M_jl - M_il M_jk + 2 M_ij M_kl
    Rq_ij   = R_ij - 2 (M^2)_ij + K_i K_j + K_(i;j)
    Rq      = R + |M|^2 + 2 |K|^2 + 2 sum_i K_i;i

The signs are fixed so that the quotient of the screw flow in flat space has
Gauss curvature +3 M_12^2, matching the transversal-metric oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expression import (Chart, Expr, add, diff, evaluate, evaluate_along, mul,
                         num, pow_, simplify, sup_abs, ONE, ZERO)
from .exterior import FormArityError, MatrixForm, PForm, contract, ext_d
from .frames import (Coframe, FrameData, Metric, curvature_package,
                     gram_schmidt_frame, solve_connection)

__all__ = [
    "VanishingFlowError", "AdaptedFlow", "FlowInvariants", "RigidityResult",
    "ConstraintReport", "FlowData",
    "adapted_coframe", "flow_invariants", "rigidity_test",
    "covariant_derivative", "constraint_residuals", "analyze_flow",
    "lie_derivative_metric", "directional", "quotient_curvature",
    "quotient_leaf_derivative",
]


class VanishingFlowError(ValueError):
    def __init__(self, message: str, point: Mapping[str, float] | None = None):
        if point is not None:
            message += f" at point {dict(point)}"
        super().__init__(message)
        self.point = dict(point) if point is not None else None


def directional(e: Expr, vector: Sequence[Expr], chart: Chart) -> Expr:
    """Directional derivative of a scalar along a symbolic vector field."""
    terms = []
    for mu, name in enumerate(chart.coords):
        d = diff(e, name)
        if not d.is_zero():
            terms.append(mul(vector[mu], d))
    return add(*terms)


def lie_derivative_metric(metric: Metric, vector: Sequence[Expr]) -> list:
    """(L_V g)_{mu nu} as symbolic coordinate components."""
    chart = metric.chart
    n = chart.n
    out = []
    for muu in range(n):
        row = []
        for nuu in range(n):
            terms = []
            for rho in range(n):
                gd = diff(metric.entries[muu][nuu], chart.coords[rho])
                if not gd.is_zero():
                    terms.append(mul(vector[rho], gd))
                if not metric.entries[rho][nuu].is_zero():
                    dv = diff(vector[rho], chart.coords[muu])
                    if not dv.is_zero():
                        terms.append(mul(metric.entries[rho][nuu], dv))
                if not metric.entries[muu][rho].is_zero():
                    dv = diff(vector[rho], chart.coords[nuu])
                    if not dv.is_zero():
                        terms.append(mul(metric.entries[muu][rho], dv))
            row.append(simplify(add(*terms)))
        out.append(row)
    return out


@dataclass(frozen=True)
class AdaptedFlow:
    """Unit flow with its adapted orthonormal coframe (psi0 first)."""

    metric: Metric
    flow: tuple                # raw input components
    norm2: Expr                # g(V, V)
    u: tuple                   # unit components
    coframe: Coframe           # theta[0] = psi0, vectors[0] = u

    @property
    def chart(self) -> Chart:
        return self.metric.chart

    @property
    def psi0(self) -> PForm:
        return self.coframe.theta[0]

    @property
    def horizontal(self) -> int:
        return self.chart.n - 1


def adapted_coframe(metric: Metric, flow: Sequence[Expr],
                    samples: Sequence[Mapping[str, float]],
                    flow_tol: float = 1e-8,
                    order: Sequence[str] | None = None) -> AdaptedFlow:
    """Unit flow field, its dual psi0 and a horizontal Gram-Schmidt coframe.

    The horizontal legs come from projecting the coordinate vectors (in chart
    or ``order`` order) onto the orthogonal complement of u; directions that
    project to zero are skipped, a projection degenerating at isolated sample
    points is an error naming the point.  Non-unit flows are normalized
    automatically (with a warning); the discarded magnitude is exactly the
    scale a Killing reconstruction recovers.
    """
    import warnings

    chart = metric.chart
    n = chart.n
    flow = tuple(simplify(c) for c in flow)
    norm2 = simplify(metric.inner(list(flow), list(flow)))
    norms = evaluate([norm2], samples)[0]
    for val, p in zip(norms, samples):
        if val < flow_tol * flow_tol:
            raise VanishingFlowError(f"flow norm {val ** 0.5 if val > 0 else 0.0:.3e} "
                                     f"below {flow_tol:g}", p)
    if norm2 is not ONE:
        warnings.warn(f"flow normalized: |V|^2 = {norm2!r}", stacklevel=2)
    scale = pow_(norm2, Fraction(-1, 2))
    u = tuple(simplify(mul(scale, c)) for c in flow)
    seeds: list = [list(u)]
    if order is None:
        perm = list(range(n))
    else:
        perm = [chart.index(name) for name in order]
    for k in perm:
        seeds.append([num(1) if mu == k else num(0) for mu in range(n)])
    vectors, eta = gram_schmidt_frame(metric, seeds, [1] * n, samples,
                                      pivot_tol=flow_tol, allow_skip=True)
    theta = []
    for kk, e in enumerate(vectors):
        covector = metric.lower(list(e))
        theta.append(PForm(chart, 1, {(mu,): simplify(covector[mu]) for mu in range(n)}))
    coframe = Coframe(chart, tuple(eta), tuple(theta), tuple(vectors), tuple(perm))
    return AdaptedFlow(metric, flow, norm2, u, coframe)


@dataclass
class FlowInvariants:
    m: list          # M_ij, horizontal indices 0..n-2
    k: list          # K_i
    m_beta: list     # connection-block route
    k_beta: list

    def two_path_residual(self, points: Iterable[Mapping[str, float]]) -> float:
        v = evaluate({"k": [self.k, self.k_beta], "m": [self.m, self.m_beta]},
                     list(points))
        return max(_sup(v["k"][0] - v["k"][1]), _sup(v["m"][0] - v["m"][1]))

    def skewness_residual(self, points: Iterable[Mapping[str, float]]) -> float:
        m = evaluate(self.m, list(points))
        return _sup(m + np.swapaxes(m, 0, 1))

    def max_m(self, points: Iterable[Mapping[str, float]]) -> float:
        return sup_abs(self.m, list(points))


def flow_invariants(adapted: AdaptedFlow, conn: list) -> FlowInvariants:
    """Extract M, K from d psi0 and, independently, from the connection slots
    conn[a][b][g] = alpha^a_b(e_g)."""
    vec = adapted.coframe.vectors
    h = adapted.horizontal
    dpsi0 = ext_d(adapted.psi0)
    m = [[simplify(mul(Fraction(-1, 2), contract(dpsi0, [vec[i + 1], vec[j + 1]])))
          for j in range(h)] for i in range(h)]
    k = [simplify(mul(num(-1), contract(dpsi0, [vec[0], vec[i + 1]])))
         for i in range(h)]
    m_beta = [[conn[i + 1][0][j + 1] for j in range(h)] for i in range(h)]
    k_beta = [conn[0][i + 1][0] for i in range(h)]
    return FlowInvariants(m, k, m_beta, k_beta)


@dataclass
class RigidityResult:
    rigid: bool
    residual: float
    tol: float


def rigidity_test(adapted: AdaptedFlow, points: Sequence[Mapping[str, float]],
                  tol: float = 1e-9, lie_frame: list | None = None) -> RigidityResult:
    """Horizontal sup-norm of L_u g at the samples; rigid iff below tol."""
    if lie_frame is None:
        lie_frame = _lie_u_frame_components(adapted)
    h = adapted.horizontal
    worst = sup_abs([lie_frame[i][j] for i in range(1, h + 1) for j in range(i, h + 1)],
                    points)
    return RigidityResult(worst < tol, worst, tol)


def _lie_u_frame_components(adapted: AdaptedFlow) -> list:
    """Full adapted-frame components of L_u g (coordinate Lie formula)."""
    n = adapted.chart.n
    lie = lie_derivative_metric(adapted.metric, list(adapted.u))
    vec = adapted.coframe.vectors
    out = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            terms = []
            for muu in range(n):
                for nuu in range(n):
                    if not lie[muu][nuu].is_zero():
                        terms.append(mul(lie[muu][nuu], vec[a][muu], vec[b][nuu]))
            val = simplify(add(*terms))
            out[a][b] = val
            out[b][a] = val
    return out


@dataclass
class FlowData:
    """Everything the theorem pipeline needs about one flow."""

    adapted: AdaptedFlow
    alpha: MatrixForm               # full adapted-frame connection
    frame_data: FrameData           # ambient curvature in the adapted frame
    invariants: FlowInvariants
    rigidity: RigidityResult
    conn: list                      # conn[a][b][g] = alpha^a_b(e_g)
    lie_frame: list                 # adapted-frame components of L_u g
    two_path: float
    skewness: float

    @property
    def chart(self) -> Chart:
        return self.adapted.chart

    @property
    def horizontal(self) -> int:
        return self.adapted.horizontal

    @property
    def m(self) -> list:
        return self.invariants.m

    @property
    def k(self) -> list:
        return self.invariants.k

    def abar(self, l: int, i: int, g: int) -> Expr:
        """Absorbed-connection slot abar^l_i(e_g); horizontal l, i (0-based)."""
        base = self.conn[l + 1][i + 1][g]
        if g == 0:
            return add(base, mul(num(-1), self.m[l][i]))
        return base

    @cached_property
    def derived(self) -> tuple:
        """(M_ij;g, K_i;g, (M^2)_ij, |M|^2, |K|^2, div K), built once for every check."""
        h, m, k = self.horizontal, self.m, self.k
        mc = covariant_derivative(m, self, rank=2)
        kc = covariant_derivative(k, self, rank=1)
        return (mc, kc, [[simplify(add(*[mul(m[i][l], m[l][j]) for l in range(h)]))
                          for j in range(h)] for i in range(h)],
                simplify(add(*[mul(m[i][j], m[i][j]) for i in range(h) for j in range(h)])),
                simplify(add(*[mul(k[i], k[i]) for i in range(h)])),
                simplify(add(*[kc[i][i + 1] for i in range(h)])))


def analyze_flow(metric: Metric, flow: Sequence[Expr],
                 samples: Sequence[Mapping[str, float]],
                 rigidity_tol: float = 1e-9, flow_tol: float = 1e-8,
                 order: Sequence[str] | None = None) -> FlowData:
    adapted = adapted_coframe(metric, flow, samples, flow_tol, order)
    alpha, structure = solve_connection(adapted.coframe)
    frame_data = curvature_package(adapted.coframe, alpha, structure)
    n = adapted.chart.n
    vec = adapted.coframe.vectors
    conn = [[[simplify(contract(alpha[a, b], [vec[g]])) for g in range(n)]
             for b in range(n)] for a in range(n)]
    invariants = flow_invariants(adapted, conn)
    lie_frame = _lie_u_frame_components(adapted)
    rigidity = rigidity_test(adapted, samples, rigidity_tol, lie_frame)
    two_path = invariants.two_path_residual(samples)
    skewness = invariants.skewness_residual(samples)
    return FlowData(adapted, alpha, frame_data, invariants, rigidity, conn,
                    lie_frame, two_path, skewness)


def covariant_derivative(components, flow: FlowData, rank: int | None = None):
    """Frame covariant derivative of a horizontal tensor, one extra index.

    ``components`` is an ``rank``-deep nested list over horizontal indices
    (an Expr for rank 0).  The result appends a last axis of size n whose
    slot 0 is the leaf direction u; corrections use the absorbed connection,
    so slot 0 vanishing is exactly basicness.
    """
    h = flow.horizontal
    n = h + 1
    chart = flow.chart
    vec = flow.adapted.coframe.vectors
    if rank is None:
        rank = 0
        probe = components
        while isinstance(probe, (list, tuple)):
            rank += 1
            probe = probe[0]

    def check_shape(tensor, depth):
        if depth == 0:
            if isinstance(tensor, (list, tuple)):
                raise FormArityError(f"tensor deeper than declared rank {rank}")
            return
        if not isinstance(tensor, (list, tuple)) or len(tensor) != h:
            raise FormArityError(
                f"axis {rank - depth} must have length {h} (horizontal indices)")
        for sub in tensor:
            check_shape(sub, depth - 1)

    check_shape(components, rank)

    def entry(tensor, idx):
        for i in idx:
            tensor = tensor[i]
        return tensor

    def build(idx):
        if len(idx) == rank:
            e = entry(components, idx)
            out = []
            for g in range(n):
                terms = [directional(e, vec[g], chart)]
                for axis in range(rank):
                    for l in range(h):
                        corr = flow.abar(l, idx[axis], g)
                        if corr.is_zero():
                            continue
                        swapped = idx[:axis] + (l,) + idx[axis + 1:]
                        terms.append(mul(num(-1), corr, entry(components, swapped)))
                out.append(simplify(add(*terms)))
            return out
        return [build(idx + (i,)) for i in range(h)]

    return build(())


@dataclass
class ConstraintReport:
    tilde_free: dict
    quotient_riemann: list            # Rq_ijkl (Expr)
    quotient_ricci: list              # contracted from quotient_riemann
    quotient_scalar: Expr
    ricci_cross_residual: float
    scalar_cross_residual: float
    quotient_leaf_residual: float
    m2_leaf_residual: float
    advisory: bool

    def max_tilde_free(self) -> float:
        return max(self.tilde_free.values())


def quotient_curvature(flow: FlowData):
    """Rq_ijkl solved from the tilde-bearing rows, its Ricci contraction and scalar."""
    h = flow.horizontal
    m = flow.m
    R = flow.frame_data.riemann          # adapted-frame ambient curvature
    rq = [[[[simplify(add(R[i + 1][j + 1][kk + 1][l + 1], mul(m[i][kk], m[j][l]),
                          mul(num(-1), m[i][l], m[j][kk]), mul(num(2), m[i][j], m[kk][l])))
             for l in range(h)] for kk in range(h)] for j in range(h)] for i in range(h)]
    rq_ricci = [[simplify(add(*[rq[i][j][i][l] for i in range(h)]))
                 for l in range(h)] for j in range(h)]
    return rq, rq_ricci, simplify(add(*[rq_ricci[j][j] for j in range(h)]))


def quotient_leaf_derivative(flow: FlowData, rq: list,
                             points: Sequence[Mapping[str, float]]) -> np.ndarray:
    """Leaf slot Rq_ijkl;0 of the covariant derivative at every point, shape
    (h, h, h, h, N), as in slot 0 of ``covariant_derivative(rq, flow, rank=4)``:

        Rq_ijkl;0 = u(Rq_ijkl) - sum_m (abar^m_i(u) Rq_mjkl + abar^m_j(u) Rq_imkl
                                        + abar^m_k(u) Rq_ijml + abar^m_l(u) Rq_ijkm)

    u(Rq) comes from forward-mode evaluation, so no derivative expression of
    Rq is built; the corrections are numpy contractions.
    """
    h = flow.horizontal
    u = flow.adapted.coframe.vectors[0]
    r, du = evaluate_along(rq, dict(zip(flow.chart.coords, u)), points)
    a = evaluate([[flow.abar(m, i, 0) for i in range(h)] for m in range(h)], points)
    return (du - np.einsum("mip,mjklp->ijklp", a, r) - np.einsum("mjp,imklp->ijklp", a, r)
            - np.einsum("mkp,ijmlp->ijklp", a, r) - np.einsum("mlp,ijkmp->ijklp", a, r))


def constraint_residuals(flow: FlowData, points: Sequence[Mapping[str, float]],
                         tol: float = 1e-7) -> ConstraintReport:
    """Evaluate the tilde-free identities and solve for quotient curvature.

    Results carry an advisory flag when the flow failed the rigidity test
    (the identities assume a rigid flow).
    """
    h = flow.horizontal
    m = flow.m
    k = flow.k
    R = flow.frame_data.riemann          # adapted-frame ambient curvature
    ricci = flow.frame_data.ricci
    scalar = flow.frame_data.scalar
    mc, kc, mm, m_sq, k_sq, div_k = flow.derived

    def hz(i):
        return i + 1   # horizontal index into full frame labels

    fam: dict = {"R_0i0j": [], "R_0ijk": [], "R_ij0k": [], "R_00": [], "R_0i": []}
    for i in range(h):
        for j in range(h):
            fam["R_0i0j"].append(simplify(add(
                R[0][hz(i)][0][hz(j)], mc[i][j][0], kc[i][hz(j)],
                mul(k[i], k[j]), mm[i][j])))
    for i in range(h):
        for j in range(h):
            for kk in range(h):
                fam["R_0ijk"].append(simplify(add(
                    R[0][hz(i)][hz(j)][hz(kk)], mc[i][kk][hz(j)],
                    mul(num(-1), mc[i][j][hz(kk)]), mul(num(2), k[i], m[j][kk]))))
                fam["R_ij0k"].append(simplify(add(
                    R[hz(i)][hz(j)][0][hz(kk)], mul(num(-1), mc[kk][i][hz(j)]),
                    mc[kk][j][hz(i)], mul(num(2), m[i][j], k[kk]))))
    fam["R_00"].append(simplify(add(ricci[0][0], div_k, k_sq,
                                    mul(num(-1), m_sq))))
    for i in range(h):
        fam["R_0i"].append(simplify(add(
            ricci[0][hz(i)],
            mul(num(-1), add(*[mc[j][i][hz(j)] for j in range(h)])),
            mul(num(2), add(*[mul(k[j], m[i][j]) for j in range(h)])))))

    rq, rq_ricci, rq_scalar = quotient_curvature(flow)
    m2_leaf_expr = directional(m_sq, flow.adapted.coframe.vectors[0], flow.chart)

    v = evaluate({**fam, "ricci": [row[1:] for row in ricci[1:]], "mm": mm, "k": k,
                  "kc": [row[1:] for row in kc], "rq_ricci": rq_ricci,
                  "scalars": [scalar, m_sq, k_sq, div_k, rq_scalar],
                  "m2_leaf": m2_leaf_expr}, points)
    tilde_free = {name: _sup(v[name]) for name in fam}
    # cross-checks: contracted quotient curvature against the direct solves
    kv, kcv = v["k"], v["kc"]
    direct = (v["ricci"] - 2.0 * v["mm"] + kv[:, None] * kv[None, :]
              + 0.5 * (kcv + np.swapaxes(kcv, 0, 1)))
    ricci_cross = _sup(v["rq_ricci"] - direct)
    s, msq, ksq, divk, rqs = v["scalars"]
    scalar_cross = _sup(rqs - (s + msq + 2.0 * ksq + 2.0 * divk))
    leaf = _sup(quotient_leaf_derivative(flow, rq, points))
    m2_leaf = _sup(v["m2_leaf"])

    return ConstraintReport(
        tilde_free=tilde_free,
        quotient_riemann=rq,
        quotient_ricci=rq_ricci,
        quotient_scalar=rq_scalar,
        ricci_cross_residual=ricci_cross,
        scalar_cross_residual=scalar_cross,
        quotient_leaf_residual=leaf,
        m2_leaf_residual=m2_leaf,
        advisory=not flow.rigidity.rigid,
    )


def _sup(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))
