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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .expression import (Chart, Expr, add, evaluate, evaluate_along, mul, num, point_at,
                         pow_, ZERO)
from .exterior import MatrixForm, PForm, contract, ext_d, pform_add, pform_scale, zero_form

__all__ = [
    "Metric", "Coframe", "FrameData", "SpaceClassification",
    "build_coframe", "solve_connection", "coordinate_basis",
    "curvature_package", "classify_space", "frame_connection", "torsion_residual",
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
    """Orthonormal coframe theta with its dual frame vectors and signature."""

    chart: Chart
    eta: tuple
    theta: tuple            # n PForms of degree 1
    vectors: tuple          # n rows of coordinate components (Expr)

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
    chart = metric.chart
    n = chart.n
    if order is None:
        perm = tuple(range(n))
    else:
        if sorted(order) != sorted(chart.coords):
            raise ValueError(f"order must permute {chart.coords}")
        perm = tuple(chart.index(name) for name in order)
    seeds = []
    for k in perm:
        seeds.append([num(1) if mu == k else num(0) for mu in range(n)])
    expected = [chart.signature[k] for k in perm]
    vectors, eta = gram_schmidt_frame(metric, seeds, expected, samples, pivot_tol)
    theta = []
    for k, e in enumerate(vectors):
        covector = metric.lower(list(e))
        coeffs = {(mu,): mul(num(eta[k]), covector[mu]) for mu in range(n)}
        theta.append(PForm(chart, 1, coeffs))
    return Coframe(chart, eta, tuple(theta), tuple(vectors))


def _connection(coframe: Coframe) -> list:
    """The coefficients Gamma^i_jk = alpha^i_j(e_k), an n x n x n nested list,
    of the unique eta-antisymmetric alpha with d theta^i = -alpha^i_j ^ theta^j.

    Expands d theta^i = (1/2) c^i_{jk} theta^j ^ theta^k and solves the cyclic
    combination Gamma_{ijk} = (c_{ijk} + c_{jki} - c_{kij}) / 2, lowering with
    eta.
    """
    n = coframe.n
    eta = coframe.eta
    dtheta = [ext_d(t) for t in coframe.theta]
    c_up = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                val = contract(dtheta[i], [coframe.vectors[j], coframe.vectors[k]])
                c_up[i][j][k] = val
                c_up[i][k][j] = mul(num(-1), val)

    def c_low(i, j, k):
        return mul(num(eta[i]), c_up[i][j][k])

    return [[[mul(num(eta[i]), mul(Fraction(1, 2), add(c_low(i, j, k), c_low(j, k, i),
                                                        mul(num(-1), c_low(k, i, j)))))
              for k in range(n)] for j in range(n)] for i in range(n)]


def solve_connection(coframe: Coframe) -> MatrixForm:
    """Unique eta-antisymmetric alpha with d theta^i = -alpha^i_j ^ theta^j,
    as the 1-forms alpha^i_j = Gamma^i_jk theta^k."""
    n, gamma = coframe.n, _connection(coframe)
    alpha = [[zero_form(coframe.chart, 1)] * n for _ in range(n)]
    for i, j, k in np.ndindex(n, n, n):
        if not gamma[i][j][k].is_zero():
            alpha[i][j] = pform_add(alpha[i][j], pform_scale(gamma[i][j][k], coframe.theta[k]))
    return MatrixForm(alpha, eta=coframe.eta)


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


def coordinate_basis(chart: Chart) -> list:
    """The coordinate vector fields d_nu, as :func:`evaluate_along` takes them."""
    return [{c: num(1)} for c in chart.coords]


def _curvature_terms(dgamma, e, a, b):
    """e_k(G^i_jl) - e_l(G^i_jk) from the coordinate jet ``dgamma`` of G and
    the frame vectors ``e``, plus a^i_jm (b^m_kl - b^m_lk) + a^i_mk b^m_jl
    - a^i_ml b^m_jk; with G = a = b = Gamma this is R^i_jkl.  Point axis last."""
    ek = np.einsum("knp,ijlnp->ijklp", e, dgamma)
    q = np.einsum("imkp,mjlp->ijklp", a, b)
    return (ek - np.swapaxes(ek, 2, 3) + np.einsum("ijmp,mklp->ijklp", a, b - np.swapaxes(b, 1, 2))
            + q - np.swapaxes(q, 2, 3))


@dataclass
class FrameData:
    """Coframe with its connection coefficients; the curvature is numpy over
    their coordinate jet (:meth:`curvature_values`), and neither the
    connection 1-forms nor a curvature tensor is built symbolically."""

    coframe: Coframe
    gamma: list                     # Gamma^i_jk = alpha^i_j(e_k)

    @property
    def chart(self) -> Chart:
        return self.coframe.chart

    @property
    def eta(self) -> tuple:
        return self.coframe.eta

    @property
    def n(self) -> int:
        return self.coframe.n

    def jet_exprs(self) -> dict:
        """The expressions whose jets give the curvature: Gamma and the frame vectors."""
        return {"gamma": self.gamma, "e": self.coframe.vectors}

    def riemann_from_jet(self, v: dict, dv: dict, du: dict | None = None,
                         duv: dict | None = None):
        """R_ijkl = eta_i R^i_jkl from the :func:`evaluate_along` jet of
        :meth:`jet_exprs` in the coordinate basis, point axis last, by

            R^i_jkl = e_k(Gamma^i_jl) - e_l(Gamma^i_jk)
                      + Gamma^i_jm (Gamma^m_kl - Gamma^m_lk)
                      + Gamma^i_mk Gamma^m_jl - Gamma^i_ml Gamma^m_jk.

        With the u-derivatives ``du`` and the mixed derivatives ``duv`` of the
        same walk, returns (R, u(R)), u(R) by the product rule of the formula.
        """
        eta = np.array(self.eta, dtype=float)[:, None, None, None, None]
        g, e = v["gamma"], v["e"]
        r = eta * _curvature_terms(dv["gamma"], e, g, g)
        if du is None:
            return r
        ug = du["gamma"]
        return r, eta * (_curvature_terms(duv["gamma"], e, ug, g)
                         + _curvature_terms(dv["gamma"], du["e"], g, ug))

    def riemann_at(self, point: Mapping[str, float]):
        return self.curvature_values({c: [v] for c, v in point.items()})["riemann"][0]

    def weyl_at(self, point: Mapping[str, float]):
        weyl = self.curvature_values({c: [v] for c, v in point.items()}).get("weyl")
        return None if weyl is None else weyl[0]

    def curvature_values(self, points: Mapping[str, np.ndarray]) -> dict:
        """Riemann, Ricci and (n >= 3) Weyl arrays with the point axis first:
        Riemann from one forward-mode walk over the connection coefficients,
        and the trace tensors contracted from it; ``"jet"`` holds the walk's
        values and frame derivatives, which the structure checks read."""
        n = self.n
        eta = np.array(self.eta, dtype=float)
        em = np.diag(eta)
        v, dv = evaluate_along(self.jet_exprs(), coordinate_basis(self.chart), points)
        r = np.moveaxis(self.riemann_from_jet(v, dv), -1, 0)
        ricci = np.einsum("i,pijil->pjl", eta, r)
        out = {"riemann": r, "ricci": ricci, "jet": (v, dv["e"].copy())}  # dv's buffer is freed
        if n >= 3:     # Schouten-type F and Weyl, as the module docstring writes them
            scalar = np.einsum("j,pjj->p", eta, ricci)
            f = ricci / (n - 2) - scalar[:, None, None] * em / (2 * (n - 1) * (n - 2))
            out["weyl"] = (r - np.einsum("ik,plj->pijkl", em, f) + np.einsum("il,pkj->pijkl", em, f)
                           + np.einsum("jk,pli->pijkl", em, f) - np.einsum("jl,pik->pijkl", em, f))
        return out


def curvature_package(coframe: Coframe) -> FrameData:
    """The connection coefficients of ``coframe``, from which
    :meth:`FrameData.curvature_values` evaluates the curvature."""
    return FrameData(coframe, _connection(coframe))


def torsion_residual(fd: FrameData, values: Mapping, th: np.ndarray) -> float:
    """max |d theta^i + alpha^i_j ^ theta^j| over coordinate coefficients and
    points, from its frame components T^i_jk = c^i_jk - Gamma^i_jk + Gamma^i_kj:
    c and Gamma from the walk in ``values`` (:meth:`FrameData.curvature_values`)
    and ``th``, theta^i_mu at the same points (:func:`reconstruction_residual`)."""
    v, de = values["jet"]
    g = v["gamma"]
    t = frame_connection(th, v["e"], de, fd.eta)[0] - g + np.swapaxes(g, 1, 2)
    mu, nu = np.triu_indices(fd.n, 1)
    return float(np.max(np.abs(np.einsum("ijkp,jmp,knp->imnp", t, th, th)[:, mu, nu]),
                        initial=0.0))


def antisymmetry_residual(fd: FrameData, values: Mapping, th: np.ndarray) -> float:
    """max |eta_i alpha^i_j + eta_j alpha^j_i| over coordinate coefficients
    and points, alpha^i_j = Gamma^i_jk theta^k, from the same inputs as
    :func:`torsion_residual`."""
    low = np.array(fd.eta, dtype=float)[:, None, None, None] * values["jet"][0]["gamma"]
    return float(np.max(np.abs(np.einsum("ijkp,kmp->ijmp", low + np.swapaxes(low, 0, 1), th)),
                        initial=0.0))


def reconstruction_residual(metric: Metric, coframe: Coframe,
                            points: Mapping[str, np.ndarray]) -> tuple:
    """(max |sum_i eta_i theta^i_mu theta^i_nu - g_mu_nu| over points,
    theta^i_mu at the points with the point axis last)."""
    n = metric.chart.n
    theta = [[t.coefficient((mu,)) for mu in range(n)] for t in coframe.theta]
    th, g = evaluate([theta, metric.entries], points)
    s = sum(coframe.eta[k] * th[k, :, None] * th[k, None, :] for k in range(n))
    return float(np.max(np.abs(s - g), initial=0.0)), th


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

    max_riemann = float(np.max(np.abs(r)))
    max_ricci = float(np.max(np.abs(values["ricci"])))
    max_weyl = float(np.max(np.abs(values["weyl"]))) if "weyl" in values else None
    # sample-major order, as the mean's pairwise summation sees it
    kappa_samples = np.stack([r[:, i, j, i, j] * eta[i] * eta[j]
                              for i in range(n) for j in range(i + 1, n)], axis=1)
    kappa = float(np.mean(kappa_samples.ravel()))
    const_resid = float(np.max(np.abs(r - kappa * unit)))

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
