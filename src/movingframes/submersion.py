"""Codimension-1 flow geometry: adapted coframes, invariants and constraints.

Given a nowhere-zero flow V on (M, g) the unit direction u = V/|V| defines a
codimension-1 foliation.  In the adapted orthonormal frame (u = e_0, e_i) the
flow carries two invariants extracted from F = d psi0 (psi0 = metric dual of
u, F(a, b) = a^mu F_mu nu b^nu):

    M_ij = -(1/2) F(e_i, e_j)        (vorticity, antisymmetric)
    K_i  = -F(u, e_i)                (magnitude-gradient covector)

and the same data can be read off the torsion-free connection of the full
adapted coframe: M_ij is the theta^j coefficient of alpha^i_0 (for rigid
flows) and K_i the psi0 coefficient of alpha^0_i.

The only symbolic objects of the flow stage are u = V g(V, V)^(-1/2),
psi0_mu = g_mu nu u^nu and F_mu nu = d_mu psi0_nu - d_nu psi0_mu (one pair of
``diff`` calls per mu < nu).  One forward-mode walk over g, u and F gives
their values and coordinate derivatives at the samples; the rest is numpy.
The frame e_a and its jet d_nu e_a come from one numeric Gram-Schmidt of
[u, d_0, ..., d_{n-1}] on that walk (``adapted_coframe``, with its walk for
``flow_jet``; a coordinate vector projecting to zero at every sample is skipped),
M and K from the formulas above, and their frame derivatives by the product
rule, e_g(M_ij) = -(1/2) e_g^nu ((d_nu F)(e_i, e_j) + F(d_nu e_i, e_j)
+ F(e_i, d_nu e_j)), likewise for K.  The adapted connection, L_u g and the
covariant derivatives M_ij;g = e_g(M_ij) - abar^l_i(e_g) M_lj
- abar^l_j(e_g) M_il and K_i;g = e_g(K_i) - abar^l_i(e_g) K_l follow from
the same jet.  The quotient-compatible connection used for covariant
derivatives of horizontal tensors is the absorbed block
abar^i_j = alpha^i_j - M_ij psi0, whose leaf-direction slot realises
basicness: a horizontal tensor is basic exactly when its ";0" derivative
vanishes.  The symbolic frame, d psi0 contracted on it and the symbolic
covariant derivative are the tests' reference (``flow_invariants``,
``covariant_derivative``), which no stage calls and no flow type holds.

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
Gauss curvature +3 M_12^2, matching the transversal-metric oracle.  The
ambient curvature R and its u-derivative are evaluated from the metric's
coordinate 2-jet and read in the adapted frame by a numeric frame change,
u(e_a) through its frame components (see ``constraint_rows``); neither a
connection nor a curvature tensor is built symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .expression import (Chart, EvalDomainError, Expr, PointError, add, diff, evaluate,
                         evaluate_along, max_abs, mul, num, point_at, pow_, to_string,
                         triu_indices, ONE, ZERO)
from .exterior import FormArityError, contract, ext_d
from .frames import (Coframe, FrameData, Metric, frame_connection, gram_schmidt_jet,
                     solve_connection)

__all__ = [
    "VanishingFlowError", "AdaptedFlow", "FlowInvariants", "RigidityResult",
    "ConstraintReport", "FlowData",
    "flow_symbols", "adapted_coframe", "flow_invariants", "rigidity_test", "flow_jet",
    "covariant_derivative", "constraint_rows", "constraint_residuals", "analyze_flow",
    "lie_derivative_at", "directional",
]


class VanishingFlowError(PointError):
    pass


def directional(e: Expr, vector: Sequence[Expr], chart: Chart) -> Expr:
    """Directional derivative of a scalar along a symbolic vector field."""
    terms = []
    for mu, name in enumerate(chart.coords):
        d = diff(e, name)
        if not d.is_zero():
            terms.append(mul(vector[mu], d))
    return add(*terms)


def _lie(g: np.ndarray, dg: np.ndarray, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """(L_V g)_mu nu = V^r d_r g_mu nu + g_r nu d_mu V^r + g_mu r d_nu V^r from
    values and coordinate derivatives (derivative axis before the point axis)."""
    return (np.einsum("rp,mnrp->mnp", v, dg) + np.einsum("rnp,rmp->mnp", g, dv)
            + np.einsum("mrp,rnp->mnp", g, dv))


def lie_derivative_at(metric: Metric, vector: Sequence[Expr],
                      frame: Sequence[Sequence[Expr]] | None,
                      points: Mapping[str, np.ndarray]) -> np.ndarray:
    """L_V g at every point (point axis last), from one forward-mode walk:
    coordinate components when ``frame`` is None, else the frame components
    e_a^mu e_b^nu (L_V g)_mu nu."""
    exprs = {"g": metric.entries, "v": list(vector)}
    if frame is not None:
        exprs["e"] = frame
    v, dv = evaluate_along(exprs, metric.chart.columns(points))
    lie = _lie(v["g"], dv["g"], v["v"], dv["v"])
    return lie if frame is None else np.einsum("amp,bnp,mnp->abp", v["e"], v["e"], lie)


@dataclass(frozen=True)
class AdaptedFlow:
    """Unit flow with its adapted orthonormal coframe (u = e_0 first) and the
    exterior derivative F of psi0, the only symbolic objects of the flow stage."""

    metric: Metric
    flow: tuple                # raw input components
    norm2: Expr                # g(V, V)
    u: tuple                   # unit components
    f: tuple                   # F_mu nu = d_mu psi0_nu - d_nu psi0_mu, psi0_mu = g_mu nu u^nu
    coframe: Coframe           # seeds[0] = u, then the kept coordinate vectors

    @property
    def chart(self) -> Chart:
        return self.metric.chart

    @property
    def horizontal(self) -> int:
        return self.chart.n - 1


def flow_symbols(metric: Metric, flow: Sequence[Expr]) -> tuple:
    """(g(V, V), u, the candidates [u, d_0, ..., d_{n-1}], F, the text of
    g(V, V) or None when it is 1) of a flow V, built on the metric's first
    run with that flow and then read from its store (:meth:`Metric.derived`):
    u = V g(V, V)^(-1/2) and F_mu nu = d_mu psi0_nu - d_nu psi0_mu,
    psi0_mu = g_mu nu u^nu, one pair of :func:`diff` calls per mu < nu."""
    chart, n = metric.chart, metric.chart.n
    flow = tuple(flow)

    def symbols():
        norm2 = metric.inner(list(flow), list(flow))
        u = tuple(mul(pow_(norm2, Fraction(-1, 2)), c) for c in flow)
        seeds = [u] + [tuple(num(1) if mu == k else num(0) for mu in range(n)) for k in range(n)]
        psi0 = metric.lower(list(u))
        f = [[ZERO] * n for _ in range(n)]
        for mu, nu in zip(*triu_indices(n, 1)):
            f[mu][nu] = add(diff(psi0[nu], chart.coords[mu]),
                            mul(num(-1), diff(psi0[mu], chart.coords[nu])))
            f[nu][mu] = mul(num(-1), f[mu][nu])
        return (norm2, u, tuple(seeds), tuple(map(tuple, f)),
                None if norm2 is ONE else to_string(norm2))
    return metric.derived(flow, symbols)


def adapted_coframe(metric: Metric, flow: Sequence[Expr],
                    samples: Mapping[str, np.ndarray], flow_tol: float = 1e-8) -> tuple:
    """Unit flow field, its adapted Gram-Schmidt frame and F = d psi0:
    (AdaptedFlow, walk), the walk for :func:`flow_jet`.

    The horizontal legs come from projecting the coordinate vectors, in
    chart order, onto the orthogonal complement of u; directions that project
    to zero are skipped, a projection degenerating at isolated sample points
    is an error naming the point.  One forward-mode walk over g, u, F and
    g(V, V) at the samples gives the flow norm check and one
    :func:`gram_schmidt_jet` with u as its leading field and the coordinate
    vectors d_0, ..., d_{n-1} after it; the walk is its values and
    Jacobians with the frame e and its jet.  A fault in the walk is
    raised after the norm and pivot checks that g and V alone allow.
    Non-unit flows are normalized automatically (``norm2`` keeps the squared
    norm); the discarded magnitude is exactly the scale a Killing
    reconstruction recovers.  The symbols are :func:`flow_symbols`.
    """
    chart, n = metric.chart, metric.chart.n
    flow = tuple(flow)
    norm2, u, seeds, f, _ = flow_symbols(metric, flow)
    try:
        v, dv = evaluate_along({"g": metric.entries, "u": u, "f": f, "norm2": [norm2]},
                               chart.columns(samples))
        fault = None
    except EvalDomainError as exc:      # raised after the checks that g and V alone allow
        fault, v = exc, evaluate({"norm2": [norm2], "g": metric.entries, "v": flow}, samples)
    norms = v["norm2"][0]
    low = np.flatnonzero(norms < flow_tol * flow_tol)
    if low.size:
        val = norms[low[0]]
        raise VanishingFlowError(f"flow norm {val ** 0.5 if val > 0 else 0.0:.3e} "
                                 f"below {flow_tol:g}", point_at(samples, low[0]))
    if fault is not None:
        gram_schmidt_jet(v["g"], np.broadcast_to(0.0, (n, n, n, len(norms))), range(n), [1] * n,
                         samples, flow_tol, allow_skip=True,
                         lead=(v["v"] / np.sqrt(norms), np.broadcast_to(0.0, (n, n, len(norms)))))
        raise fault
    e, de, eta, kept = gram_schmidt_jet(v["g"], dv["g"], range(n), [1] * n, samples, flow_tol,
                                        allow_skip=True, lead=(v["u"], dv["u"]))
    coframe = Coframe(chart, eta, metric, tuple(seeds[k] for k in kept), samples, flow_tol)
    return AdaptedFlow(metric, flow, norm2, u, f, coframe), (v, dv, e, de)


@dataclass
class FlowInvariants:
    m: list          # M_ij, horizontal indices 0..n-2
    k: list          # K_i


def flow_invariants(adapted: AdaptedFlow) -> FlowInvariants:
    """M, K as expressions from d psi0 on the symbolic reference frame: the
    reference that :func:`flow_jet` is tested against."""
    vec = adapted.coframe.vectors
    h = adapted.horizontal
    dpsi0 = ext_d(adapted.coframe.theta[0])
    m = [[mul(Fraction(-1, 2), contract(dpsi0, [vec[i + 1], vec[j + 1]])) for j in range(h)]
         for i in range(h)]
    k = [mul(num(-1), contract(dpsi0, [vec[0], vec[i + 1]])) for i in range(h)]
    return FlowInvariants(m, k)


def flow_jet(adapted: AdaptedFlow, walk: tuple) -> dict:
    """First-order data of the adapted frame at the samples, point axis last.

    ``walk`` is :func:`adapted_coframe`'s: the values and coordinate
    Jacobians of g_mu nu, the unit flow u and F, with the
    frame e_a^mu and its jet d_nu e_a^mu from :func:`gram_schmidt_jet`.
    theta^a_mu = g_mu nu e_a^nu, and the rest is numpy, with
    F(a, b) = a^mu F_mu nu b^nu:

    * ``m``, ``k``: M_ij = -(1/2) F(e_i, e_j) and K_i = -F(u, e_i), u = e_0;
    * ``dm``: e_g(M_ij) (axes i, j, g) = e_g^nu d_nu M_ij by the product rule,
      d_nu F(e_a, e_b) = (d_nu F)(e_a, e_b) + F(d_nu e_a, e_b) + F(e_a, d_nu e_b);
    * ``conn``: Gamma^a_bg = alpha^a_b(e_g), by the cyclic formula of
      :func:`frame_connection` from c^i_jk = d theta^i(e_j, e_k)
      = -theta^i_mu [e_j, e_k]^mu;
    * ``lie``: (L_u g)_ab = e_a^mu e_b^nu (L_u g)_mu nu (coordinate Lie formula);
    * ``abar``: abar^l_i(e_g) = Gamma^l_ig - [g = 0] M_li, horizontal l, i;
    * ``mc``, ``kc``: M_ij;g and K_i;g, e_g(M) and e_g(K) minus the abar
      contractions;
    * ``e``, ``de``: e_a^mu and d_nu e_a^mu (axes a, mu, nu).
    """
    v, dv, e, de = walk
    conn = frame_connection(np.einsum("mnp,anp->amp", v["g"], e), e, de,
                            adapted.coframe.eta)[1]
    ef = np.einsum("amp,mnp->anp", e, v["f"])                    # e_a^mu F_mu nu
    fab = np.einsum("anp,bnp->abp", ef, e)
    dfe = np.einsum("anp,bnrp->abrp", ef, de)                   # F(e_a, d_r e_b)
    dfab = (np.einsum("amp,mnrp,bnp->abrp", e, dv["f"], e) + dfe
            - np.swapaxes(dfe, 0, 1))                           # d_r F(e_a, e_b)
    m, k = -0.5 * fab[1:, 1:], -fab[0, 1:]
    dm = -0.5 * np.einsum("gnp,ijnp->ijgp", e, dfab[1:, 1:])
    dk = -np.einsum("gnp,inp->igp", e, dfab[0, 1:])
    abar = conn[1:, 1:].copy()
    abar[:, :, 0] -= m
    return {
        "e": e, "m": m, "k": k, "conn": conn, "abar": abar, "de": de, "dm": dm,
        "lie": np.einsum("amp,bnp,mnp->abp", e, e,
                         _lie(v["g"], dv["g"], v["u"], dv["u"])),
        "mc": (dm - np.einsum("ligp,ljp->ijgp", abar, m) - np.einsum("ljgp,ilp->ijgp", abar, m)),
        "kc": dk - np.einsum("ligp,lp->igp", abar, k),
    }


@dataclass
class RigidityResult:
    rigid: bool
    residual: float
    tol: float


def rigidity_test(lie: np.ndarray, tol: float) -> RigidityResult:
    """Horizontal sup-norm of L_u g from its adapted-frame components ``lie``
    (point axis last); rigid iff below tol."""
    h = lie.shape[0] - 1
    worst = max_abs(lie[1:, 1:][triu_indices(h)])
    return RigidityResult(worst < tol, worst, tol)


@dataclass
class FlowData:
    """Everything the theorem pipeline needs about one flow, with the sample
    columns it was analysed at and its :func:`flow_jet` there."""

    adapted: AdaptedFlow
    samples: dict
    jet: dict
    rigidity: RigidityResult
    two_path: float
    skewness: float

    @property
    def chart(self) -> Chart:
        return self.adapted.chart

    @property
    def horizontal(self) -> int:
        return self.adapted.horizontal


def analyze_flow(metric: Metric, flow: Sequence[Expr],
                 samples: Mapping[str, np.ndarray],
                 rigidity_tol: float = 1e-9, flow_tol: float = 1e-8) -> FlowData:
    adapted, walk = adapted_coframe(metric, flow, samples, flow_tol)
    jet = flow_jet(adapted, walk)
    conn, m, k = jet["conn"], jet["m"], jet["k"]
    # two independent routes to M and K: F = d psi0 against the connection slots
    two_path = max(max_abs(k - conn[0, 1:, 0]), max_abs(m - conn[1:, 0, 1:]))
    return FlowData(adapted, samples, jet, rigidity_test(jet["lie"], rigidity_tol),
                    two_path, max_abs(m + np.swapaxes(m, 0, 1)))


def covariant_derivative(components, flow: FlowData, rank: int | None = None):
    """Frame covariant derivative of a horizontal tensor, one extra index.

    ``components`` is an ``rank``-deep nested list over horizontal indices
    (an Expr for rank 0).  The result appends a last axis of size n whose
    slot 0 is the leaf direction u; corrections use the absorbed connection,
    so slot 0 vanishing is exactly basicness.  The connection is built
    symbolically (:func:`solve_connection` of the adapted coframe): this is
    the reference that :func:`flow_jet` is tested against.
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
    alpha = solve_connection(flow.adapted.coframe)
    m = flow_invariants(flow.adapted).m

    def abar(l, i, g):
        base = contract(alpha[l + 1, i + 1], [vec[g]])
        return add(base, mul(num(-1), m[l][i])) if g == 0 else base

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
                        corr = abar(l, idx[axis], g)
                        if corr.is_zero():
                            continue
                        swapped = idx[:axis] + (l,) + idx[axis + 1:]
                        terms.append(mul(num(-1), corr, entry(components, swapped)))
                out.append(add(*terms))
            return out
        return [build(idx + (i,)) for i in range(h)]

    return build(())


@dataclass
class ConstraintReport:
    tilde_free: dict
    quotient_riemann: np.ndarray      # Rq_ijkl at every point, shape (h, h, h, h, N)
    quotient_scalar: np.ndarray       # Rq, shape (N,)
    ricci_cross_residual: float
    scalar_cross_residual: float
    quotient_leaf_residual: float
    m2_leaf_residual: float
    advisory: bool

    def max_tilde_free(self) -> float:
        return max(self.tilde_free.values())


def _quadratic_m(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """m1_ik m2_jl - m1_il m2_jk + 2 m1_ij m2_kl (the M terms of Rq_ijkl)."""
    return (np.einsum("ikp,jlp->ijklp", m1, m2) - np.einsum("ilp,jkp->ijklp", m1, m2)
            + 2.0 * np.einsum("ijp,klp->ijklp", m1, m2))


def constraint_rows(flow: FlowData, ambient: FrameData, ambient_jet: Mapping | None) -> dict:
    """Every row of the constraint system at the flow's samples, point axis last.

    The ambient R_abcd and u(R_abcd) in the adapted frame come from the
    metric's 2-jet (:meth:`FrameData.riemann_along`: ``ambient_jet``, the
    ``"ambient"`` entry of :meth:`FrameData.curvature_values` of ``ambient``
    along the flow's u, or when it is None one hyper-dual walk over g and
    the first derivatives held by ``ambient``), with the adapted frame
    e_a^mu and u(e_a^mu) = u^nu d_nu e_a^mu from :func:`flow_jet`, which also gives
    M_ij;g, K_i;g, u(M_ij) and abar.  Keys:
    ``R`` (R_abcd), the five tilde-free rows by name (``R_0i0j`` ...
    ``R_0i``), ``rq``/``rq_ricci``/``rq_scalar``
    (quotient curvature), ``ricci_cross``/``scalar_cross`` (its cross-checks),
    ``leaf`` (Rq_ijkl;0) and ``m2_leaf`` (u(|M|^2) = 2 sum M_ij u(M_ij)).
    """
    jet, e = flow.jet, flow.jet["e"]
    r, dr = ambient.riemann_along(dict(zip(flow.chart.coords, flow.adapted.u)), flow.samples, e,
                                  np.einsum("np,amnp->amp", e[0], jet["de"]),
                                  flow.adapted.coframe.eta, ambient_jet)
    m, dm, k, a = jet["m"], jet["dm"][:, :, 0], jet["k"], jet["abar"][:, :, 0]
    mch, kch = jet["mc"][:, :, 1:], jet["kc"][:, 1:]
    ricci = np.einsum("cacbp->abp", r)
    mm = np.einsum("ilp,ljp->ijp", m, m)
    m_sq, k_sq, div_k = np.sum(m * m, axis=(0, 1)), np.sum(k * k, axis=0), np.trace(kch)
    rq = r[1:, 1:, 1:, 1:] + _quadratic_m(m, m)
    drq = dr[1:, 1:, 1:, 1:] + _quadratic_m(dm, m) + _quadratic_m(m, dm)
    rq_ricci = np.einsum("ijilp->jlp", rq)
    rq_scalar = np.trace(rq_ricci)
    return {
        "R": r,
        "R_0i0j": r[0, 1:, 0, 1:] + jet["mc"][:, :, 0] + kch + k[:, None] * k[None] + mm,
        "R_0ijk": (r[0, 1:, 1:, 1:] + np.einsum("ikjp->ijkp", mch) - mch
                   + 2.0 * np.einsum("ip,jkp->ijkp", k, m)),
        "R_ij0k": (r[1:, 1:, 0, 1:] - np.einsum("kijp->ijkp", mch)
                   + np.einsum("kjip->ijkp", mch) + 2.0 * np.einsum("ijp,kp->ijkp", m, k)),
        "R_00": ricci[0, 0] + div_k + k_sq - m_sq,
        "R_0i": (ricci[0, 1:] - np.einsum("jijp->ip", mch)
                 + 2.0 * np.einsum("jp,ijp->ip", k, m)),
        "rq": rq, "rq_ricci": rq_ricci, "rq_scalar": rq_scalar,
        "ricci_cross": rq_ricci - (ricci[1:, 1:] - 2.0 * mm + k[:, None] * k[None]
                                   + 0.5 * (kch + np.swapaxes(kch, 0, 1))),
        "scalar_cross": rq_scalar - (np.trace(ricci) + m_sq + 2.0 * k_sq + 2.0 * div_k),
        # Rq_ijkl;0 = u(Rq_ijkl) - sum_m abar^m_i(u) Rq_mjkl - ... (all four slots)
        "leaf": (drq - np.einsum("mip,mjklp->ijklp", a, rq) - np.einsum("mjp,imklp->ijklp", a, rq)
                 - np.einsum("mkp,ijmlp->ijklp", a, rq) - np.einsum("mlp,ijkmp->ijklp", a, rq)),
        "m2_leaf": 2.0 * np.sum(m * dm, axis=(0, 1)),
    }


def constraint_residuals(flow: FlowData, ambient: FrameData,
                         ambient_jet: Mapping | None) -> ConstraintReport:
    """Sup-norms of the constraint rows, and the quotient curvature, at the flow's samples.

    ``ambient`` is the curvature package of an orthonormal coframe of the
    flow's metric and ``ambient_jet`` its jet along the flow, or None, as
    :func:`constraint_rows` reads them.  Results carry an advisory flag when
    the flow failed the rigidity test (the identities assume a rigid flow).
    """
    v = constraint_rows(flow, ambient, ambient_jet)
    return ConstraintReport(
        tilde_free={name: max_abs(v[name])
                    for name in ("R_0i0j", "R_0ijk", "R_ij0k", "R_00", "R_0i")},
        quotient_riemann=v["rq"],
        quotient_scalar=v["rq_scalar"],
        ricci_cross_residual=max_abs(v["ricci_cross"]),
        scalar_cross_residual=max_abs(v["scalar_cross"]),
        quotient_leaf_residual=max_abs(v["leaf"]),
        m2_leaf_residual=max_abs(v["m2_leaf"]),
        advisory=not flow.rigidity.rigid,
    )

