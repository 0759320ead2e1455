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

No frame is built symbolically.  The frame vectors e_i and their coordinate
derivatives at the points come from one numeric Gram-Schmidt over the values
of g and d g there (:func:`gram_schmidt_jet`), in modified form with
<a, b> = a^m g_mn b^n and the product rule carried as forward-mode tangents.
The candidates s are an optional leading field and the coordinate vectors
in a given order, constant with zero tangents:

* v = s - sum_{j<i} eta_j <v, e_j> e_j (each projection off the updated v),
  p = <v, v>, e_i = v (eta_i p)^(-1/2),
* dv = ds - sum_{j<i} eta_j (d<v, e_j> e_j + <v, e_j> de_j),
  d<v, e_j> = <dv, e_j> + v^m h_jm with h_j = dg e_j + g de_j, and g e_j,
  kept once per frame vector,
* dp = 2 <dv, v> + v^m dg_mn v^n, de_i = (dv - v dp / (2 p)) (eta_i p)^(-1/2).

Each pivot p is tested by one reduction as it is formed, and the pivots,
e and de of a frame by one finiteness test: below the tolerance somewhere,
or of changing sign, is a :class:`SingularMetricError` naming the first
such point; a sign against the chart's signature is a
:class:`SignatureError`.  Only a frame that fails a test replays the checks
pivot by pivot, in order, to name its first error.  The ambient frame's
pivots are checked by the curvature walk
(:meth:`FrameData.curvature_values`), not by :func:`build_coframe`.

No connection is built symbolically either: the curvature and the frame
connection are numpy over the 2-jet of g and the 1-jet of e_i
(:meth:`FrameData.curvature_values`), with g_sr,n = d_n g_sr and
g^ms = sum_i eta_i e_i^m e_i^s (no matrix inverse):

* Gamma_snr = (g_sr,n + g_sn,r - g_nr,s)/2 and Gamma^m_nr = g^ms Gamma_snr,
* R_abgd = (g_ad,bg + g_bg,ad - g_ag,bd - g_bd,ag)/2 + Gamma^s_bg Gamma_sad - Gamma^s_bd Gamma_sag,
* R_ijkl = e_i^a e_j^b e_k^g e_l^d R_abgd,
* Gamma^i_jk = alpha^i_j(e_k) = theta^i_m (e_k(e_j^m) + Gamma^m_nr e_k^n e_j^r),
  theta^i_m = eta_i g_mn e_i^n.

Weyl is R with the four eta F terms applied in order on the diagonal slices
of einsum views (eta_ik F_lj on i = k = a), with no dense eta contraction.

A run with a flow walks g and d g once: the curvature walk carries the unit
flow u as a hyper-dual channel and keeps the coordinate Riemann tensor and
its u-derivative (u(g^-1) = -g^-1 u(g) g^-1 in the Christoffels), whose
frame changes :meth:`FrameData.riemann_along` takes for R and u(R) in the
adapted frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .expression import (Chart, EvalDomainError, Expr, PointError, add, diff, evaluate,
                         evaluate_along, max_abs, mul, num, point_at, pow_, triu_indices, ONE, ZERO)
from .exterior import MatrixForm, PForm, contract, ext_d, pform_add, pform_scale, zero_form

__all__ = [
    "Metric", "Coframe", "FrameData", "SpaceClassification",
    "build_coframe", "solve_connection",
    "curvature_package", "classify_space", "frame_connection", "torsion_residual",
    "christoffel", "coordinate_riemann", "frame_components",
    "antisymmetry_residual", "reconstruction_residual", "gram_schmidt_frame", "gram_schmidt_jet",
    "SingularMetricError", "SignatureError",
]


class SingularMetricError(PointError):
    pass


class SignatureError(ValueError):
    pass


class Metric:
    """Symmetric matrix of coefficient expressions over a chart, with a store
    of what is derived from it, kept while it lives (:meth:`derived`)."""

    __slots__ = ("chart", "entries", "_derived")

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
        self._derived: dict = {}

    def derived(self, key, build):
        """The value under ``key``, ``build()`` on first use (setdefault: one wins)."""
        value = self._derived.get(key)
        return self._derived.setdefault(key, build()) if value is None else value

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


@dataclass(frozen=True, eq=False)
class Coframe:
    """Orthonormal coframe of a metric: the Gram-Schmidt candidates it keeps,
    in order, and its signature.  Its values and first derivatives at points
    are numpy (:func:`gram_schmidt_jet` over a walk of g and ``seeds``).  The
    symbolic frame vectors and coframe 1-forms are the tests' reference,
    built on first access; no pipeline stage reads them."""

    chart: Chart
    eta: tuple
    metric: Metric
    seeds: tuple            # the kept candidates, rows of coordinate components (Expr)
    samples: Mapping        # the points at which the symbolic reference checks pivots
    pivot_tol: float

    @property
    def n(self) -> int:
        return len(self.eta)

    @cached_property
    def vectors(self) -> tuple:
        """The frame vectors e_i as expressions (symbolic Gram-Schmidt)."""
        return tuple(gram_schmidt_frame(self.metric, self.seeds, self.eta, self.samples,
                                        self.pivot_tol)[0])

    @cached_property
    def theta(self) -> tuple:
        """The coframe 1-forms theta^i = eta_i g(e_i, .) as expressions."""
        return tuple(PForm(self.chart, 1, {(mu,): mul(num(s), c)
                                           for mu, c in enumerate(self.metric.lower(list(e)))})
                     for s, e in zip(self.eta, self.vectors))


def _check_pivot(vals: np.ndarray, points: Mapping[str, np.ndarray], pivot_tol: float,
                 allow_skip: bool, want: int, slot: int) -> bool:
    """Whether a Gram-Schmidt pivot with values ``vals`` at the points is
    kept (False: skipped, only with ``allow_skip``, when max |pivot| < 1e-10);
    raises as :func:`gram_schmidt_frame` does when it degenerates at some
    point, changes sign or contradicts the declared sign ``want``."""
    absvals = np.abs(vals)
    if allow_skip and absvals.max() < 1e-10:
        return False
    worst = int(np.argmin(absvals))
    if absvals[worst] < pivot_tol:
        raise SingularMetricError(f"degenerate pivot |{absvals[worst]:.3e}| < {pivot_tol:g}",
                                  point_at(points, worst))
    sign = 1 if vals[worst] > 0 else -1
    flipped = np.flatnonzero((vals > 0) != (sign > 0))
    if flipped.size:
        raise SingularMetricError("metric pivot changes sign", point_at(points, flipped[0]))
    if sign != want:
        raise SignatureError(f"pivot sign {sign:+d} at slot {slot} contradicts "
                             f"declared signature entry {want:+d}")
    return True


def _finite(points: Mapping[str, np.ndarray], *arrays):
    """Raise :class:`EvalDomainError` at the first point (last axis) where an
    array is not finite, as a walk that overflows would."""
    bad = np.zeros(arrays[0].shape[-1], dtype=bool)
    for a in arrays:
        bad |= ~np.isfinite(a).reshape(-1, a.shape[-1]).all(axis=0)
    if bad.any():
        raise EvalDomainError("evaluation produced a non-finite value",
                              point_at(points, int(np.argmax(bad))))


def gram_schmidt_frame(metric: Metric, seeds: Sequence[Sequence[Expr]],
                       expected_eta: Sequence[int],
                       samples: Mapping[str, np.ndarray],
                       pivot_tol: float = 1e-8,
                       allow_skip: bool = False):
    """Metric Gram-Schmidt over a candidate list of symbolic vectors: the
    symbolic reference of :func:`gram_schmidt_jet`, which no pipeline stage
    calls.

    Returns (vectors, eta).  Candidates whose projection is structurally or
    numerically negligible at every sample are skipped when ``allow_skip`` is
    set (rank completion); a projection that degenerates only at isolated
    samples, or changes sign, raises :class:`SingularMetricError` naming the
    first bad point, and a pivot sign against ``expected_eta`` raises
    :class:`SignatureError` (:func:`_check_pivot`).
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
        s = want[len(frame)]
        if not _check_pivot(evaluate([pivot], samples)[0], samples, pivot_tol, allow_skip, s,
                            len(frame)):
            continue
        scale = pow_(mul(num(s), pivot), Fraction(-1, 2))
        frame.append([mul(scale, c) for c in v])
        eta.append(s)
    if len(frame) != len(want):
        raise SingularMetricError(
            f"Gram-Schmidt produced {len(frame)} of {len(want)} frame vectors")
    return [tuple(r) for r in frame], tuple(eta)


def gram_schmidt_jet(g: np.ndarray, dg: np.ndarray, perm: Sequence[int],
                     expected_eta: Sequence[int], points: Mapping[str, np.ndarray],
                     pivot_tol: float = 1e-8, allow_skip: bool = False, lead=None) -> tuple:
    """Metric Gram-Schmidt of candidate vectors at every point, with its
    forward-mode tangents.

    ``g``: g_mn (axes m, n, point) and ``dg``: d_r g_mn (axes m, n, r,
    point).  The candidates are the optional leading field ``lead`` = (s^m,
    d_r s^m) (axes m, point and m, r, point), then the coordinate vectors
    d_k for k in ``perm``, constant and with zero tangents.  Each candidate
    is projected off the vectors before it (modified Gram-Schmidt,
    <a, b> = a^m g_mn b^n), v <- v - eta_j <v, e_j> e_j, has the pivot
    p = <v, v> and becomes e = v (eta p)^(-1/2).  The tangents follow by the
    product rule, with g e_j and h_j = dg e_j + g de_j kept per frame vector:

        d<v, e_j> = <dv, e_j> + v^m h_jm,
        dv <- dv - eta_j (d<v, e_j> e_j + <v, e_j> de_j),
        dp = 2 <dv, v> + v^m dg_mn v^n,
        de = (dv - v dp / (2 p)) (eta p)^(-1/2)

    (Murray, "Differentiation of the Cholesky decomposition", 2016, for
    the same rule on the Cholesky factor).  With ``allow_skip`` a candidate
    whose pivot is below 1e-10 at every point is skipped.  Each pivot is
    tested against the tolerance and its expected sign by one reduction as
    it is formed, a failing one ending the loop, and the pivots, e and de
    are tested for finiteness at once; only if a test fails are the checks
    of :func:`gram_schmidt_frame` replayed, candidate by candidate in order: a
    non-finite v or pivot is an :class:`EvalDomainError` at its point, a
    pivot zero at every point counts as vanishing identically, then
    :func:`_check_pivot`, then a non-finite tangent.  Returns (e, de, eta,
    kept): e_i^m (axes i, m, point), d_r e_i^m (axes i, m, r, point), the
    signature and the indices of the kept candidates, the lead first.
    """
    want, eye = list(expected_eta), np.eye(g.shape[0])
    frame, dframe, kept, tried = [], [], [], []
    ges, hs = [], []                    # g e_j and dg e_j + g de_j of each frame vector
    with np.errstate(all="ignore"):
        for index, k in enumerate(list(perm) if lead is None else [None, *perm]):
            slot = len(frame)
            if slot == len(want):
                break
            v, dv = lead if k is None else (eye[k][:, None], None)
            for e, de, s, ge, h in zip(frame, dframe, want, ges, hs):
                if dv is None:          # v = d_k: <v, e_j> and its tangent are rows k
                    c, dc = s * ge[k], s * h[k]
                    dv = -(e[:, None] * dc) - c * de
                else:
                    c = s * np.einsum("mp,mp->p", v, ge)
                    dc = s * (np.einsum("mrp,mp->rp", dv, ge) + np.einsum("mp,mrp->rp", v, h))
                    dv = dv - e[:, None] * dc
                    dv -= c * de
                v = v - c * e
            if dv is None:              # d_k itself: p = g_kk
                p, dgv = g[k, k], dg[:, k]
            else:
                gv = np.einsum("mnp,np->mp", g, v)
                p = np.einsum("mp,mp->p", v, gv)
            if allow_skip and np.abs(p).max() < 1e-10:
                continue
            tried.append((v, p))
            low = p.min() if want[slot] > 0 else -p.max()
            if not (low >= pivot_tol and low > 0):      # or NaN: the replay names the error
                break
            if dv is None:
                de = -(v[:, None] * (0.5 * dgv[k] / p))
            else:
                dgv = np.einsum("mnrp,np->mrp", dg, v)
                dp = np.einsum("mp,mrp->rp", v, dgv) + 2.0 * np.einsum("mrp,mp->rp", dv, gv)
                de = dv - v[:, None] * (0.5 * dp / p)
            scale = (want[slot] * p) ** -0.5
            de *= scale
            e = v * scale
            if slot + 1 < len(want):
                ges.append(np.einsum("mnp,np->mp", g, e))
                hs.append(dgv * scale + np.einsum("mnp,nrp->mrp", g, de))
            frame.append(e)
            dframe.append(de)
            kept.append(index)
        e, de = np.array(frame), np.array(dframe)
        pivots = np.array([p for _, p in tried])
        if len(tried) > len(frame) or not np.isfinite(pivots.sum() + e.sum() + de.sum()):
            for slot, (v, p) in enumerate(tried):
                _finite(points, p, v)
                if not (allow_skip or p.any()):     # as a structurally zero symbolic pivot
                    raise SingularMetricError("metric pivot vanishes identically",
                                              point_at(points, 0))
                _check_pivot(p, points, pivot_tol, allow_skip, want[slot], slot)
                if slot < len(dframe):
                    _finite(points, dframe[slot])
    if len(frame) != len(want):
        raise SingularMetricError(
            f"Gram-Schmidt produced {len(frame)} of {len(want)} frame vectors")
    return e, de, tuple(want), kept


def build_coframe(metric: Metric, samples: Mapping[str, np.ndarray],
                  order: Sequence[str] | None = None, pivot_tol: float = 1e-8) -> Coframe:
    """The coordinate frame to orthonormalise, in the given coordinate order,
    with the chart's signature in that order.  Its pivots are checked at the
    points of the curvature walk (:meth:`FrameData.curvature_values`)."""
    chart, n = metric.chart, metric.chart.n
    if order is None:
        perm = tuple(range(n))
    else:
        if sorted(order) != sorted(chart.coords):
            raise ValueError(f"order must permute {chart.coords}")
        perm = tuple(chart.index(name) for name in order)
    seeds = tuple(tuple(num(1) if mu == k else num(0) for mu in range(n)) for k in perm)
    return Coframe(chart, tuple(chart.signature[k] for k in perm), metric, seeds, samples,
                   pivot_tol)


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
    (u(Gamma^.), Gamma_.) and (Gamma^., u(Gamma_.)).  The products are one
    batched matmul over the points, their s axes stacked: (bg, s) (s, ad)."""
    n, p = ddg.shape[0], ddg.shape[-1]
    q = np.einsum("adbgp->abgdp", ddg) + np.einsum("bgadp->abgdp", ddg)
    q *= 0.5
    up = np.concatenate([u for u, _ in products]).reshape(-1, n * n, p)
    low = np.concatenate([w for _, w in products]).reshape(-1, n * n, p)
    q += (up.transpose(2, 1, 0) @ low.transpose(2, 0, 1)).reshape(    # axes (point, bg, ad)
        p, n, n, n, n).transpose(3, 1, 2, 4, 0)
    return q - np.swapaxes(q, 2, 3)


_POINT_BLOCK = 1024      # points per block of the batched matmuls: their copies stay in cache


def frame_components(vectors: Sequence[np.ndarray | None], t: np.ndarray) -> np.ndarray:
    """t_ijkl = a_i^m b_j^n c_k^r d_l^s t_mnrs for ``vectors`` (a, b, c, d), one
    per slot of t, point axis last, as a new C-contiguous array; a None entry
    leaves its slot as it is.

    The contractions are batched matmuls over a point-first copy of t with
    the contracted slots first, block by block of points: each takes the
    leading slot, (rest, m) (m, i) at every point, and appends its frame
    index, and one copy puts the slots back in order with the point axis
    last.  That pays for itself from three vectors on; the one- and
    two-slot contractions of the stages stay einsums, which need neither
    transposing copy.  The result is allocated after the first block's
    matmuls: allocated before them, beside their temporaries, it made a
    warm ``curvature-generic`` pass 12 % slower in one interpreter."""
    slots = [k for k, v in enumerate(vectors) if v is not None]
    sizes, p = t.shape[:-1], t.shape[-1]
    order = slots + [k for k, v in enumerate(vectors) if v is None]
    after = order[len(slots):] + slots          # the slot order once each has had its turn
    back = [1 + after.index(k) for k in range(len(sizes))] + [0]
    for start in range(0, max(p, 1), _POINT_BLOCK):    # one block also for no points
        points = slice(start, start + _POINT_BLOCK)
        x = np.ascontiguousarray(t[..., points].transpose(len(sizes), *order))
        dims = [sizes[k] for k in order]
        for k in slots:
            x = (x.reshape(len(x), dims[0], math.prod(dims[1:])).transpose(0, 2, 1)
                 @ vectors[k][..., points].transpose(2, 1, 0))
            dims = dims[1:] + [len(vectors[k])]
        if start == 0:      # once the matmul temporaries are freed (docstring)
            out = np.empty([sizes[k] if v is None else len(v) for k, v in enumerate(vectors)]
                           + [p])
        out[..., points] = x.reshape(len(x), *dims).transpose(back)
    return out


@dataclass
class FrameData:
    """Coframe with the first coordinate derivatives of its metric, over whose
    jet the curvature and the frame connection are numpy (:meth:`curvature_values`)."""

    coframe: Coframe
    dmetric: tuple                  # d_n g_sr as nested tuples, axes s, r, n

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

    def curvature_values(self, points: Mapping[str, np.ndarray],
                         along: Mapping[str, Expr] | None = None) -> dict:
        """Riemann, Ricci and (n >= 3) Weyl arrays with the point axis first,
        by the module docstring's formulas from one forward-mode walk over g
        and d g, with e and its coordinate jet from :func:`gram_schmidt_jet`;
        ``"jet"`` holds ({"gamma": Gamma^i_jk, "e": e_j^m, "th": theta^i_m,
        "g": g_mn}, d_n e_j^m), which the structure checks read.

        With a field ``along`` (a run's unit flow u) the walk is hyper-dual,
        as :meth:`riemann_along`'s, and ``"ambient"`` keeps the jet that
        method reads instead of walking again (:func:`_ambient_jet`).  A
        fault of the value or the derivatives is found and named as without
        ``along``; after a fault of u or of its channels alone the walk runs
        without u and no ``"ambient"`` is kept."""
        n, eta, cf = self.n, np.array(self.eta, dtype=float), self.coframe
        perm = [s.index(ONE) for s in cf.seeds]
        exprs, columns = {"g": cf.metric.entries, "dg": self.dmetric}, self.chart.columns(points)
        try:
            walk = None if along is None else evaluate_along(exprs, columns, along,
                                                             second_optional=True)
            if walk is None:
                walk = evaluate_along(exprs, columns)
        except EvalDomainError:
            # a fault in g first: pivot k reads the leading (k + 1)-block in frame order
            g = cf.metric.entries
            for k in range(1, n + 1):
                evaluate([[g[a][b] for b in perm[:k]] for a in perm[:k]], points)
            raise
        v = walk[0]
        e, de, _, _ = gram_schmidt_jet(v["g"], v["dg"], perm, cf.eta, points, cf.pivot_tol)
        jet = _ambient_jet(walk, np.einsum("imp,inp->mnp", eta[:, None, None] * e, e))
        del walk                                    # d d g freed before the Weyl temporaries
        r = np.moveaxis(frame_components([e] * 4, jet["q"]), -1, 0)
        th = eta[:, None, None] * np.einsum("mnp,inp->imp", v["g"], e)
        # Gamma^i_jk = theta^i_m e_k^n (d_n e_j^m + Gamma^m_nr e_j^r)
        gamma = np.einsum("imp,jkmp->ijkp", th, np.einsum(
            "knp,jmnp->jkmp", e, de + np.einsum("mnrp,jrp->jmnp", jet.pop("up"), e)))
        ambient = jet if "uq" in jet else None      # q is kept only in a run with a flow
        del jet
        ricci = np.einsum("i,pijil->pjl", eta, r)
        out = {"riemann": r, "ricci": ricci,
               "jet": ({"gamma": gamma, "e": e, "th": th, "g": v["g"]}, de)}
        if n >= 3:     # Schouten-type F and Weyl, as the module docstring writes them
            em = np.diag(eta)
            scalar = np.einsum("j,pjj->p", eta, ricci)
            # F and the copy of R in R's point-last memory: the updates run along the points
            f = np.moveaxis(np.moveaxis(ricci, 0, -1) / (n - 2)
                            - em[:, :, None] * scalar / (2 * (n - 1) * (n - 2)), -1, 0)
            w, ef = r.copy(order="K"), eta[:, None, None] * np.swapaxes(f, 1, 2)[:, None]
            np.einsum("paxay->paxy", w)[...] -= ef      # ef_pajl = eta_a F_lj: - eta_ik F_lj
            np.einsum("paxya->paxy", w)[...] += ef      # + eta_il F_kj
            np.einsum("pxaay->paxy", w)[...] += ef      # + eta_jk F_li
            np.einsum("pxaya->payx", w)[...] -= ef      # - eta_jl F_ik
            out["weyl"] = w
        if ambient is not None:
            out["ambient"] = ambient
        return out

    def riemann_along(self, u: Mapping[str, Expr], points: Mapping[str, np.ndarray],
                      e: np.ndarray, ue: np.ndarray, eta: Sequence[int],
                      ambient_jet: Mapping | None) -> tuple:
        """(R_abcd, u(R_abcd)), point axis last, in an orthonormal frame of
        signature ``eta`` with values ``e`` and u-derivatives ``ue`` (axes a, m)
        at ``points``: the frame change of q and u(q) from ``ambient_jet``,
        the ``"ambient"`` entry of :meth:`curvature_values` along u at
        ``points``, or, when that is None, from one hyper-dual walk over g and
        d g with ``second=u`` (:func:`_ambient_jet`), and the product rule for
        the frame change, whose slot terms are omega_a^f R_fbcd + ... with
        u(e_a) = omega_a^f e_f, omega_a^f = eta_f theta^f_m u(e_a)^m and
        theta^f_m = g_mn e_f^n."""
        eta = np.array(eta, dtype=float)[:, None, None]
        if ambient_jet is None:
            walk = evaluate_along({"g": self.coframe.metric.entries, "dg": self.dmetric},
                                  self.chart.columns(points), second=u)
            ambient_jet = _ambient_jet(walk, np.einsum("amp,anp->mnp", eta * e, e))
            del walk
        r = frame_components([e] * 4, ambient_jet["q"])
        dr = frame_components([e] * 4, ambient_jet["uq"])
        theta = eta * np.einsum("mnp,fnp->fmp", ambient_jet["g"], e)     # eta_f theta^f_m
        omega = np.einsum("fmp,amp->afp", theta, ue)
        for slots in ("afp,fbcdp", "bfp,afcdp", "cfp,abfdp", "dfp,abcfp"):
            dr += np.einsum(slots + "->abcdp", omega, r)
        return r, dr


def _ambient_jet(walk: tuple, ginv: np.ndarray) -> dict:
    """From a walk over g and d g (values, derivatives and, if it was
    hyper-dual along u, the u- and mixed channels) and g^-1: g, Gamma^m_nr
    (``up``), the coordinate Riemann tensor q and, along u, u(q) by
    u(g^-1) = -g^-1 u(g) g^-1 (``uq``)."""
    v, dv, *second = walk
    low, up = christoffel(v["dg"], ginv)
    jet = {"g": v["g"], "up": up, "q": coordinate_riemann(dv["dg"], (up, low))}
    if second:
        du, duv = second
        ulow, uup = christoffel(du["dg"], ginv)
        uginv = np.einsum("mtp,tsp->msp", np.einsum("mrp,rtp->mtp", ginv, du["g"]), ginv)
        uup -= np.einsum("msp,snrp->mnrp", uginv, low)
        jet["uq"] = coordinate_riemann(duv["dg"], (uup, low), (up, ulow))
    return jet


def curvature_package(coframe: Coframe) -> FrameData:
    """The coframe with the first derivatives of its metric, one :func:`diff`
    per symmetric pair and coordinate, built once per metric
    (:meth:`Metric.derived`): the input of the curvature walk."""
    g, n = coframe.metric.entries, coframe.n

    def derivatives():
        d = {(s, r): tuple(diff(g[s][r], c) for c in coframe.chart.coords)
             for s in range(n) for r in range(s, n)}
        return tuple(tuple(d[min(s, r), max(s, r)] for r in range(n)) for s in range(n))
    return FrameData(coframe, coframe.metric.derived("dg", derivatives))


def torsion_residual(fd: FrameData, values: Mapping) -> float:
    """max |d theta^i + alpha^i_j ^ theta^j| over coordinate coefficients and
    points, from its frame components T^i_jk = c^i_jk - Gamma^i_jk + Gamma^i_kj:
    c from the brackets of the frame (:func:`frame_connection`) and Gamma from
    the Christoffel route, both read from the walk in ``values``
    (:meth:`FrameData.curvature_values`)."""
    v, de = values["jet"]
    g, th = v["gamma"], v["th"]
    t = frame_connection(th, v["e"], de, fd.eta)[0] - g + np.swapaxes(g, 1, 2)
    mu, nu = triu_indices(fd.n, 1)
    return max_abs(np.einsum("ijkp,jmp,knp->imnp", t, th, th)[:, mu, nu])


def antisymmetry_residual(fd: FrameData, values: Mapping) -> float:
    """max |eta_i alpha^i_j + eta_j alpha^j_i| over coordinate coefficients
    and points, alpha^i_j = Gamma^i_jk theta^k, from the same inputs as
    :func:`torsion_residual`."""
    v = values["jet"][0]
    low = np.array(fd.eta, dtype=float)[:, None, None, None] * v["gamma"]
    return max_abs(np.einsum("ijkp,kmp->ijmp", low + np.swapaxes(low, 0, 1), v["th"]))


def reconstruction_residual(fd: FrameData, values: Mapping) -> float:
    """max |sum_i eta_i theta^i_mu theta^i_nu - g_mu_nu| over the points of
    ``values`` (:meth:`FrameData.curvature_values`): whether the numeric frame
    is orthonormal and complete."""
    v = values["jet"][0]
    th, g = v["th"], v["g"]
    s = sum(fd.eta[k] * th[k, :, None] * th[k, None, :] for k in range(fd.n))
    return max_abs(s - g)


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
    resid, support = r.copy(order="K"), (slice(None), *np.nonzero(unit))
    resid[support] -= kappa * unit[support[1:]]
    const_resid = max(max_abs(resid[:, i]) for i in range(n))

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
