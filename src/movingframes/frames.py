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

from .expression import (Chart, Expr, add, evaluate, mul, num, point_at, pow_,
                         simplify, sup_abs, ZERO)
from .exterior import (MatrixForm, PForm, contract, ext_d, matrix_curvature,
                       pform_add, pform_scale, wedge, zero_form)

__all__ = [
    "Metric", "Coframe", "FrameData", "SpaceClassification",
    "build_coframe", "solve_connection", "curvature_package", "classify_space",
    "torsion_residual", "reconstruction_residual", "gram_schmidt_frame",
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
        simplified = [[simplify(entries[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if simplified[i][j] != simplified[j][i]:
                    raise ValueError(f"metric entries ({i},{j}) and ({j},{i}) differ structurally")
        self.chart = chart
        self.entries = tuple(tuple(r) for r in simplified)

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
    order: tuple            # coordinate indices fed to Gram-Schmidt

    @property
    def n(self) -> int:
        return len(self.theta)


def gram_schmidt_frame(metric: Metric, seeds: Sequence[Sequence[Expr]],
                       expected_eta: Sequence[int],
                       samples: Mapping[str, np.ndarray] | None = None,
                       pivot_tol: float = 1e-8,
                       allow_skip: bool = False):
    """Metric Gram-Schmidt over a candidate list of symbolic vectors.

    Returns (vectors, eta).  Candidates whose projection is structurally or
    numerically negligible at every sample are skipped when ``allow_skip`` is
    set (rank completion); a projection that degenerates only at isolated
    samples raises :class:`SingularMetricError` naming the first bad point.
    """
    n = metric.chart.n
    frame: list = []
    eta: list = []
    want = list(expected_eta)
    for cand in seeds:
        if len(frame) == len(want):
            break
        v = [simplify(c) for c in cand]
        for e, s in zip(frame, eta):
            coeff = mul(num(s), metric.inner(v, e))
            v = [add(v[mu], mul(num(-1), coeff, e[mu])) for mu in range(n)]
        pivot = simplify(metric.inner(v, v))
        if pivot.is_zero():
            if allow_skip:
                continue
            raise SingularMetricError("metric pivot vanishes identically",
                                      None if samples is None else point_at(samples, 0))
        if samples is not None:
            vals = evaluate([pivot], samples)[0]
            absvals = np.abs(vals)
            if allow_skip and absvals.max() < 1e-10:
                continue
            worst = int(np.argmin(absvals))
            if absvals[worst] < pivot_tol:
                raise SingularMetricError(
                    f"degenerate pivot |{absvals[worst]:.3e}| < {pivot_tol:g}",
                    point_at(samples, worst))
            sign = 1 if vals[worst] > 0 else -1
            flipped = np.flatnonzero((vals > 0) != (sign > 0))
            if flipped.size:
                raise SingularMetricError("metric pivot changes sign",
                                          point_at(samples, flipped[0]))
            expected = want[len(frame)]
            if sign != expected:
                raise SignatureError(
                    f"pivot sign {sign:+d} at slot {len(frame)} contradicts declared "
                    f"signature entry {expected:+d}")
        s = want[len(frame)]
        scale = pow_(mul(num(s), pivot), Fraction(-1, 2))
        frame.append([mul(scale, c) for c in v])
        eta.append(s)
    if len(frame) != len(want):
        raise SingularMetricError(
            f"Gram-Schmidt produced {len(frame)} of {len(want)} frame vectors")
    return [tuple(r) for r in frame], tuple(eta)


def build_coframe(metric: Metric, order: Sequence[str] | None = None,
                  samples: Mapping[str, np.ndarray] | None = None,
                  pivot_tol: float = 1e-8) -> Coframe:
    """Orthonormalise the coordinate frame in the given coordinate order."""
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
        coeffs = {(mu,): simplify(mul(num(eta[k]), covector[mu])) for mu in range(n)}
        theta.append(PForm(chart, 1, coeffs))
    return Coframe(chart, eta, tuple(theta), tuple(vectors), perm)


def solve_connection(coframe: Coframe) -> MatrixForm:
    """Unique eta-antisymmetric alpha with d theta^i = -alpha^i_j ^ theta^j.

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
                val = simplify(contract(dtheta[i], [coframe.vectors[j], coframe.vectors[k]]))
                c_up[i][j][k] = val
                c_up[i][k][j] = mul(num(-1), val)

    def c_low(i, j, k):
        return mul(num(eta[i]), c_up[i][j][k])

    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero_form(coframe.chart, 1)
            for k in range(n):
                gamma = mul(Fraction(1, 2), add(c_low(i, j, k), c_low(j, k, i),
                                                mul(num(-1), c_low(k, i, j))))
                gamma = simplify(mul(num(eta[i]), gamma))
                if not gamma.is_zero():
                    acc = pform_add(acc, pform_scale(gamma, coframe.theta[k]))
            row.append(acc.map_coefficients(simplify))
        entries.append(row)
    return MatrixForm(entries, eta=eta)


@dataclass
class FrameData:
    """Coframe with its connection, curvature and derived trace tensors."""

    coframe: Coframe
    alpha: MatrixForm
    omega: MatrixForm               # curvature 2-forms
    riemann: list                   # R_{ijkl}, all indices down
    ricci: list                     # R_{ij}
    scalar: Expr                    # R
    schouten: list | None           # F_{ij}; None when n == 2
    weyl: list | None               # W_{ijkl}; None when n == 2

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
        return evaluate(self.riemann, {c: [v] for c, v in point.items()})[..., 0]

    def weyl_at(self, point: Mapping[str, float]):
        if self.weyl is None:
            return None
        return evaluate(self.weyl, {c: [v] for c, v in point.items()})[..., 0]

    def curvature_values(self, points: Mapping[str, np.ndarray]) -> dict:
        """Riemann, Ricci and (n >= 3) Weyl arrays with the point axis first."""
        tensors = {"riemann": self.riemann, "ricci": self.ricci}
        if self.weyl is not None:
            tensors["weyl"] = self.weyl
        return {k: np.moveaxis(v, -1, 0) for k, v in evaluate(tensors, points).items()}


def curvature_package(coframe: Coframe) -> FrameData:
    """Curvature 2-forms, Riemann/Ricci/scalar and the trace-adjusted tensors."""
    n = coframe.n
    eta = coframe.eta
    alpha = solve_connection(coframe)
    omega = matrix_curvature(alpha)

    riemann = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            source = omega[i, j]
            if source.is_zero():
                continue
            for k in range(n):
                for l in range(k + 1, n):
                    comp = simplify(mul(num(eta[i]),
                                        contract(source, [coframe.vectors[k],
                                                          coframe.vectors[l]])))
                    riemann[i][j][k][l] = comp
                    riemann[i][j][l][k] = mul(num(-1), comp)

    ricci = [[simplify(add(*[mul(num(eta[i]), riemann[i][j][i][l]) for i in range(n)]))
              for l in range(n)] for j in range(n)]
    scalar = simplify(add(*[mul(num(eta[j]), ricci[j][j]) for j in range(n)]))

    schouten = weyl = None
    if n >= 3:
        c1 = Fraction(1, n - 2)
        c2 = Fraction(-1, 2 * (n - 1) * (n - 2))
        schouten = [[simplify(add(mul(num(c1), ricci[i][j]),
                                  mul(num(c2 * eta[i]), scalar) if i == j else ZERO))
                     for j in range(n)] for i in range(n)]

        def etad(i, j):
            return eta[i] if i == j else 0

        weyl = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        terms = [riemann[i][j][k][l]]
                        if etad(i, k):
                            terms.append(mul(num(-etad(i, k)), schouten[l][j]))
                        if etad(i, l):
                            terms.append(mul(num(etad(i, l)), schouten[k][j]))
                        if etad(j, k):
                            terms.append(mul(num(etad(j, k)), schouten[l][i]))
                        if etad(j, l):
                            terms.append(mul(num(-etad(j, l)), schouten[i][k]))
                        weyl[i][j][k][l] = simplify(add(*terms))

    return FrameData(coframe, alpha, omega, riemann, ricci, scalar,
                     schouten, weyl)


def torsion_residual(fd: FrameData, points: Mapping[str, np.ndarray]) -> float:
    """max |d theta^i + alpha^i_j ^ theta^j| over coefficients and points."""
    n = fd.n
    coeffs = []
    for i in range(n):
        acc = ext_d(fd.coframe.theta[i])
        for j in range(n):
            acc = pform_add(acc, wedge(fd.alpha[i, j], fd.coframe.theta[j]))
        coeffs.extend(acc.coeffs.values())
    return sup_abs(coeffs, points)


def reconstruction_residual(metric: Metric, coframe: Coframe,
                            points: Mapping[str, np.ndarray]) -> float:
    """max |sum_i eta_i theta^i_mu theta^i_nu - g_mu_nu| over points."""
    n = metric.chart.n
    theta = [[t.coefficient((mu,)) for mu in range(n)] for t in coframe.theta]
    th, g = evaluate([theta, metric.entries], points)
    s = sum(coframe.eta[k] * th[k, :, None] * th[k, None, :] for k in range(n))
    return float(np.max(np.abs(s - g), initial=0.0))


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
