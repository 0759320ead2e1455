"""Orthonormal coframes, the torsion-free connection and curvature data.

Conventions (see CONVENTIONS.md):

* structure equation  d theta^i = -alpha^i_j ^ theta^j,
* curvature           Omega = d alpha + alpha ^ alpha,
* components          Omega^i_j = (1/2) R^i_{jkl} theta^k ^ theta^l,
* Ricci               R_{jl} = sum_i eta_ii R_{ijil},  scalar R = eta^jj R_{jj},
* trace adjustment    F_{ij} = R_{ij}/(n-2) - R eta_ij / (2(n-1)(n-2)),
* Weyl                W_{ijkl} = R_{ijkl} - eta_ik F_{lj} + eta_il F_{kj}
                               + eta_jk F_{li} - eta_jl F_{ik}.

With these choices the round sphere of radius a has R_{1212} = +1/a^2.

No connection is built symbolically: the curvature and the frame connection
are numpy over the 2-jet of g and the 1-jet of the frame vectors e_i
(:meth:`FrameData.curvature_values`), with g_sr,n = d_n g_sr and
g^ms = sum_i eta_i e_i^m e_i^s (no matrix inverse):

* Gamma_snr = (g_sr,n + g_sn,r - g_nr,s)/2 and Gamma^m_nr = g^ms Gamma_snr,
* R_abgd = (g_ad,bg + g_bg,ad - g_ag,bd - g_bd,ag)/2 + Gamma^s_bg Gamma_sad - Gamma^s_bd Gamma_sag,
* R_ijkl = e_i^a e_j^b e_k^g e_l^d R_abgd,
* Gamma^i_jk = alpha^i_j(e_k) = theta^i_m (e_k(e_j^m) + Gamma^m_nr e_k^n e_j^r),
  theta^i_m = eta_i g_mn e_i^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .expression import (Chart, Expr, add, diff, evaluate, evaluate_along, max_abs, mul, num,
                         point_at, pow_, ZERO)
from .exterior import MatrixForm, PForm, contract, ext_d, pform_add, pform_scale, zero_form

__all__ = [
    "Metric", "Coframe", "FrameData", "SpaceClassification",
    "build_coframe", "solve_connection",
    "curvature_package", "classify_space", "frame_connection", "torsion_residual",
    "christoffel", "coordinate_riemann", "frame_components",
    "antisymmetry_residual", "reconstruction_residual", "gram_schmidt_frame",
    "SingularMetricError", "SignatureError",
]


class SingularMetricError(ValueError):
    def __init__(self, message: str, point: Mapping[str, float] | None = None):
        if point is not None:
            message += f" at point {dict(point)}"
        super().__init__(message)
        self.point = dict(point) if point is not None else None


class SignatureError(ValueError):
    pass


class Metric:
    """Symmetric matrix of coefficient expressions over a chart."""

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, entries: Sequence[Sequence[Expr]]):
        n = chart.n
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError(f"metric must be {n}x{n}")
        for i in range(n):
            for j in range(i + 1, n):
                if entries[i][j] is not entries[j][i]:
                    raise ValueError(f"metric entries ({i},{j}) and ({j},{i}) differ structurally")
        self.chart = chart
        self.entries = tuple(tuple(r) for r in entries)

    def inner(self, v: Sequence[Expr], w: Sequence[Expr]) -> Expr:
        terms = []
        n = self.chart.n
        for i in range(n):
            for j in range(n):
                if not self.entries[i][j].is_zero():
                    terms.append(mul(self.entries[i][j], v[i], w[j]))
        return add(*terms)

    def lower(self, v: Sequence[Expr]) -> list:
        """Covector components g_{mu nu} v^nu."""
        n = self.chart.n
        return [add(*[mul(self.entries[mu][nu], v[nu]) for nu in range(n)
                      if not self.entries[mu][nu].is_zero()]) for mu in range(n)]


@dataclass(frozen=True)
class Coframe:
    """Orthonormal coframe theta of a metric, with its dual frame vectors and signature."""

    chart: Chart
    eta: tuple
    theta: tuple            # n PForms of degree 1
    vectors: tuple          # n rows of coordinate components (Expr)
    metric: Metric

    @property
    def n(self) -> int:
        return len(self.theta)


def gram_schmidt_frame(metric: Metric, seeds: Sequence[Sequence[Expr]],
                       expected_eta: Sequence[int],
                       samples: Mapping[str, np.ndarray],
                       pivot_tol: float = 1e-8,
                       allow_skip: bool = False):
    """Metric Gram-Schmidt over a candidate list of symbolic vectors.

    Returns (vectors, eta).  Candidates whose projection is structurally or
    numerically negligible at every sample are skipped when ``allow_skip`` is
    set (rank completion); a projection that degenerates only at isolated
    samples, or changes sign, raises :class:`SingularMetricError` naming the
    first bad point, and a pivot sign against ``expected_eta`` raises
    :class:`SignatureError`.
    """
    n = metric.chart.n
    frame: list = []
    eta: list = []
    want = list(expected_eta)
    for cand in seeds:
        if len(frame) == len(want):
            break
        v = list(cand)
        for e, s in zip(frame, eta):
            coeff = mul(num(s), metric.inner(v, e))
            v = [add(v[mu], mul(num(-1), coeff, e[mu])) for mu in range(n)]
        pivot = metric.inner(v, v)
        if pivot.is_zero():
            if allow_skip:
                continue
            raise SingularMetricError("metric pivot vanishes identically", point_at(samples, 0))
        vals = evaluate([pivot], samples)[0]
        absvals = np.abs(vals)
        if allow_skip and absvals.max() < 1e-10:
            continue
        worst = int(np.argmin(absvals))
        if absvals[worst] < pivot_tol:
            raise SingularMetricError(
                f"degenerate pivot |{absvals[worst]:.3e}| < {pivot_tol:g}",
                point_at(samples, worst))
        s = want[len(frame)]
        sign = 1 if vals[worst] > 0 else -1
        flipped = np.flatnonzero((vals > 0) != (sign > 0))
        if flipped.size:
            raise SingularMetricError("metric pivot changes sign", point_at(samples, flipped[0]))
        if sign != s:
            raise SignatureError(f"pivot sign {sign:+d} at slot {len(frame)} contradicts "
                                 f"declared signature entry {s:+d}")
        scale = pow_(mul(num(s), pivot), Fraction(-1, 2))
        frame.append([mul(scale, c) for c in v])
        eta.append(s)
    if len(frame) != len(want):
        raise SingularMetricError(
            f"Gram-Schmidt produced {len(frame)} of {len(want)} frame vectors")
    return [tuple(r) for r in frame], tuple(eta)


def build_coframe(metric: Metric, samples: Mapping[str, np.ndarray],
                  order: Sequence[str] | None = None, pivot_tol: float = 1e-8) -> Coframe:
    """Orthonormalise the coordinate frame in the given coordinate order,
    checking each pivot at the samples."""
    chart, n = metric.chart, metric.chart.n
    if order is None:
        perm = tuple(range(n))
    else:
        if sorted(order) != sorted(chart.coords):
            raise ValueError(f"order must permute {chart.coords}")
        perm = tuple(chart.index(name) for name in order)
    seeds = [[num(1) if mu == k else num(0) for mu in range(n)] for k in perm]
    vectors, eta = gram_schmidt_frame(metric, seeds, [chart.signature[k] for k in perm],
                                      samples, pivot_tol)
    theta = [PForm(chart, 1, {(mu,): mul(num(s), c) for mu, c in enumerate(metric.lower(list(e)))})
             for s, e in zip(eta, vectors)]
    return Coframe(chart, eta, tuple(theta), tuple(vectors), metric)


def solve_connection(coframe: Coframe) -> MatrixForm:
    """Unique eta-antisymmetric alpha with d theta^i = -alpha^i_j ^ theta^j,
    as the 1-forms alpha^i_j = Gamma^i_jk theta^k, built symbolically (the
    reference of the numeric routes): d theta^i = (1/2) c^i_{jk} theta^j ^ theta^k
    gives the cyclic Gamma_{ijk} = (c_{ijk} + c_{jki} - c_{kij}) / 2, lowered with eta.
    """
    n, eta, vec = coframe.n, coframe.eta, coframe.vectors
    dtheta = [ext_d(t) for t in coframe.theta]
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]     # c_ijk = eta_i c^i_jk
    for i, j, k in np.ndindex(n, n, n):
        if j < k:
            c[i][j][k] = mul(num(eta[i]), contract(dtheta[i], [vec[j], vec[k]]))
            c[i][k][j] = mul(num(-1), c[i][j][k])
    alpha = [[zero_form(coframe.chart, 1)] * n for _ in range(n)]
    for i, j, k in np.ndindex(n, n, n):
        gamma = mul(num(eta[i]), Fraction(1, 2),
                    add(c[i][j][k], c[j][k][i], mul(num(-1), c[k][i][j])))
        if not gamma.is_zero():
            alpha[i][j] = pform_add(alpha[i][j], pform_scale(gamma, coframe.theta[k]))
    return MatrixForm(alpha, eta=eta)


def frame_connection(th: np.ndarray, e: np.ndarray, de: np.ndarray, eta) -> tuple:
    """(c, Gamma) of a frame, point axis last, from th = theta^i_mu, e = e_j^mu
    and the coordinate jet de = d_nu e_j^mu (axes j, mu, nu):
    c^i_jk = d theta^i(e_j, e_k) = -theta^i_mu [e_j, e_k]^mu and the cyclic
    Gamma^i_jk = eta_i (c_ijk + c_jki - c_kij) / 2, c_ijk = eta_i c^i_jk."""
    ej_dek = np.einsum("jnp,kmnp->jkmp", e, de)         # e_j(e_k^mu)
    c = -np.einsum("imp,jkmp->ijkp", th, ej_dek - np.swapaxes(ej_dek, 0, 1))
    eta = np.array(eta, dtype=float)[:, None, None, None]
    cl = eta * c
    return c, eta * 0.5 * (cl + np.einsum("jkip->ijkp", cl) - np.einsum("kijp->ijkp", cl))


def christoffel(dg: np.ndarray, ginv: np.ndarray) -> tuple:
    """(Gamma_snr, Gamma^m_nr) from dg[s, r, n] = d_n g_sr and g^ms, point axis last."""
    low = 0.5 * (np.einsum("srnp->snrp", dg) + dg - np.einsum("nrsp->snrp", dg))
    return low, np.einsum("msp,snrp->mnrp", ginv, low)


def coordinate_riemann(ddg: np.ndarray, *products) -> np.ndarray:
    """q_abgd - q_abdg, q_abgd = (g_ad,bg + g_bg,ad)/2 + sum of up^s_bg low_sad
    over the (up, low) ``products``, from ddg[s, r, n, t] = d_t d_n g_sr, point
    axis last: R with (Gamma^., Gamma_.), and u(R) with u(ddg),
    (u(Gamma^.), Gamma_.) and (Gamma^., u(Gamma_.))."""
    q = np.einsum("adbgp->abgdp", ddg) + np.einsum("bgadp->abgdp", ddg)
    q *= 0.5
    for up, low in products:
        q += np.einsum("sbgp,sadp->abgdp", up, low)
    return q - np.swapaxes(q, 2, 3)


def frame_components(vectors: Sequence[np.ndarray], t: np.ndarray) -> np.ndarray:
    """t_ijkl = a_i^m b_j^n c_k^r d_l^s t_mnrs for ``vectors`` (a, b, c, d), point
    axis last: each step contracts the first slot and appends its frame index."""
    for v in vectors:
        t = np.einsum("imp,m...p->...ip", v, t)
    return t


@dataclass
class FrameData:
    """Coframe with the first coordinate derivatives of its metric, over whose
    jet the curvature and the frame connection are numpy (:meth:`curvature_values`)."""

    coframe: Coframe
    dmetric: list                   # d_n g_sr as nested lists, axes s, r, n

    @property
    def chart(self) -> Chart:
        return self.coframe.chart

    @property
    def eta(self) -> tuple:
        return self.coframe.eta

    @property
    def n(self) -> int:
        return self.coframe.n

    def riemann_at(self, point: Mapping[str, float]):
        return self.curvature_values({c: [v] for c, v in point.items()})["riemann"][0]

    def weyl_at(self, point: Mapping[str, float]):
        weyl = self.curvature_values({c: [v] for c, v in point.items()}).get("weyl")
        return None if weyl is None else weyl[0]

    def curvature_values(self, points: Mapping[str, np.ndarray]) -> dict:
        """Riemann, Ricci and (n >= 3) Weyl arrays with the point axis first,
        by the module docstring's formulas from one forward-mode walk over g,
        d g and e; ``"jet"`` holds ({"gamma": Gamma^i_jk, "e": e_j^m},
        d_n e_j^m), which the structure checks read."""
        n, eta = self.n, np.array(self.eta, dtype=float)
        v, dv = evaluate_along({"g": self.coframe.metric.entries, "dg": self.dmetric,
                                "e": self.coframe.vectors}, self.chart.columns(points))
        e, de = v["e"].copy(), dv["e"].copy()      # copies: the jet keeps no walk buffer
        low, up = christoffel(v["dg"], np.einsum("i,imp,inp->mnp", eta, e, e))
        r = coordinate_riemann(dv["dg"], (up, low))
        del dv                                      # freed before the Weyl temporaries
        r = np.moveaxis(frame_components([e] * 4, r), -1, 0)
        th = eta[:, None, None] * np.einsum("mnp,inp->imp", v["g"], e)
        gamma = np.einsum("imp,jkmp->ijkp", th, np.einsum("knp,jmnp->jkmp", e, de)
                          + np.einsum("mnrp,knp,jrp->jkmp", up, e, e))
        ricci = np.einsum("i,pijil->pjl", eta, r)
        out = {"riemann": r, "ricci": ricci, "jet": ({"gamma": gamma, "e": e}, de)}
        if n >= 3:     # Schouten-type F and Weyl, as the module docstring writes them
            em = np.diag(eta)
            scalar = np.einsum("j,pjj->p", eta, ricci)
            f = ricci / (n - 2) - scalar[:, None, None] * em / (2 * (n - 1) * (n - 2))
            out["weyl"] = (r - np.einsum("ik,plj->pijkl", em, f) + np.einsum("il,pkj->pijkl", em, f)
                           + np.einsum("jk,pli->pijkl", em, f) - np.einsum("jl,pik->pijkl", em, f))
        return out

    def riemann_along(self, u: Mapping[str, Expr], points: Mapping[str, np.ndarray],
                      e: np.ndarray, ue: np.ndarray, eta: Sequence[int]) -> tuple:
        """(R_abcd, u(R_abcd)), point axis last, in an orthonormal frame of
        signature ``eta`` with values ``e`` and u-derivatives ``ue`` (axes a, m)
        at ``points``: one hyper-dual walk over g and d g with ``second=u``,
        u(g^-1) = -g^-1 u(g) g^-1, and the product rule for the frame change."""
        v, dv, du, duv = evaluate_along({"g": self.coframe.metric.entries, "dg": self.dmetric},
                                        self.chart.columns(points), second=u)
        ginv = np.einsum("a,amp,anp->mnp", np.array(eta, dtype=float), e, e)
        low, up = christoffel(v["dg"], ginv)
        ulow, uup = christoffel(du["dg"], ginv)
        uup -= np.einsum("msp,snrp->mnrp", np.einsum("mrp,rtp,tsp->msp", ginv, du["g"], ginv), low)
        r = coordinate_riemann(dv["dg"], (up, low))
        dr = frame_components([e] * 4, coordinate_riemann(duv["dg"], (uup, low), (up, ulow)))
        for slot in range(4):
            dr += frame_components([ue if s == slot else e for s in range(4)], r)
        return frame_components([e] * 4, r), dr


def curvature_package(coframe: Coframe) -> FrameData:
    """The coframe with the first derivatives of its metric, one :func:`diff`
    per symmetric pair and coordinate: the input of the curvature walk."""
    g, n = coframe.metric.entries, coframe.n
    d = {(s, r): [diff(g[s][r], c) for c in coframe.chart.coords]
         for s in range(n) for r in range(s, n)}
    return FrameData(coframe, [[d[min(s, r), max(s, r)] for r in range(n)] for s in range(n)])


def torsion_residual(fd: FrameData, values: Mapping, th: np.ndarray) -> float:
    """max |d theta^i + alpha^i_j ^ theta^j| over coordinate coefficients and
    points, from its frame components T^i_jk = c^i_jk - Gamma^i_jk + Gamma^i_kj:
    c from the brackets of the frame (:func:`frame_connection`) with ``th``,
    theta^i_mu at the same points (:func:`reconstruction_residual`), and Gamma
    from the Christoffel route of the walk in ``values``
    (:meth:`FrameData.curvature_values`)."""
    v, de = values["jet"]
    g = v["gamma"]
    t = frame_connection(th, v["e"], de, fd.eta)[0] - g + np.swapaxes(g, 1, 2)
    mu, nu = np.triu_indices(fd.n, 1)
    return max_abs(np.einsum("ijkp,jmp,knp->imnp", t, th, th)[:, mu, nu])


def antisymmetry_residual(fd: FrameData, values: Mapping, th: np.ndarray) -> float:
    """max |eta_i alpha^i_j + eta_j alpha^j_i| over coordinate coefficients
    and points, alpha^i_j = Gamma^i_jk theta^k, from the same inputs as
    :func:`torsion_residual`."""
    low = np.array(fd.eta, dtype=float)[:, None, None, None] * values["jet"][0]["gamma"]
    return max_abs(np.einsum("ijkp,kmp->ijmp", low + np.swapaxes(low, 0, 1), th))


def reconstruction_residual(metric: Metric, coframe: Coframe,
                            points: Mapping[str, np.ndarray]) -> tuple:
    """(max |sum_i eta_i theta^i_mu theta^i_nu - g_mu_nu| over points,
    theta^i_mu at the points with the point axis last)."""
    n = metric.chart.n
    theta = [[t.coefficient((mu,)) for mu in range(n)] for t in coframe.theta]
    th, g = evaluate([theta, metric.entries], points)
    s = sum(coframe.eta[k] * th[k, :, None] * th[k, None, :] for k in range(n))
    return max_abs(s - g), th


@dataclass
class SpaceClassification:
    flat: bool
    constant_curvature: bool
    kappa: float                    # best-fit constant (sample mean)
    conformally_flat: bool | None   # None when n < 4 (not decidable by Weyl)
    conformal_note: str
    ricci_flat: bool
    generic: bool
    max_riemann: float
    max_constant_residual: float
    max_ricci: float
    max_weyl: float | None
    tol: float

    def admissible_for_isometry_theorem(self) -> bool:
        return bool(self.flat or self.constant_curvature or self.ricci_flat
                    or self.conformally_flat is True)


def classify_space(fd: FrameData, values: Mapping[str, np.ndarray],
                   tol: float = 1e-6) -> SpaceClassification:
    """Flat / constant-curvature / conformally-flat / Ricci-flat flags from
    ``values``, the :meth:`FrameData.curvature_values` of ``fd`` at the samples.

    Constant curvature is detected mutation-style: the best constant kappa is
    subtracted from R_{ijkl} against eta_ik eta_jl - eta_il eta_jk and the
    residual compared with ``tol``.  Weyl-based conformal flatness is only
    decidable for n >= 4; n = 3 reports an explicit indeterminate status.
    """
    n = fd.n
    eta = fd.eta
    r = values["riemann"]
    if not len(r):
        raise ValueError("classification needs at least one sample point")

    em = np.diag(eta).astype(float)
    unit = np.einsum("ik,jl->ijkl", em, em) - np.einsum("il,jk->ijkl", em, em)

    max_riemann = max_abs(r)
    max_ricci = max_abs(values["ricci"])
    max_weyl = max_abs(values["weyl"]) if "weyl" in values else None
    # sample-major order, as the mean's pairwise summation sees it
    kappa_samples = np.stack([r[:, i, j, i, j] * eta[i] * eta[j]
                              for i in range(n) for j in range(i + 1, n)], axis=1)
    kappa = float(np.mean(kappa_samples.ravel()))
    const_resid = max(max_abs(r[:, i] - kappa * unit[i]) for i in range(n))

    flat = max_riemann < tol
    constant = const_resid < tol
    ricci_flat = max_ricci < tol
    # kappa is always reported; it is only meaningful as a curvature constant
    # when the constant-curvature flag holds
    if n >= 4:
        conformally_flat = bool(max_weyl is not None and max_weyl < tol)
        note = "decided by Weyl tensor (n >= 4)"
    elif n == 3:
        conformally_flat = None
        note = "indeterminate (n=3): Weyl vanishes identically, Cotton criterion not implemented"
    else:
        conformally_flat = None
        note = "not evaluated (n=2)"
    generic = not (flat or constant or ricci_flat or conformally_flat is True)
    return SpaceClassification(
        flat=flat,
        constant_curvature=constant,
        kappa=kappa,
        conformally_flat=conformally_flat,
        conformal_note=note,
        ricci_flat=ricci_flat,
        generic=generic,
        max_riemann=max_riemann,
        max_constant_residual=const_resid,
        max_ricci=max_ricci,
        max_weyl=max_weyl,
        tol=tol,
    )
