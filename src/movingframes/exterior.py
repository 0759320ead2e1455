"""Exterior algebra of differential forms with symbolic coefficients.

A :class:`PForm` stores the coefficients of a degree-p form in a chart's
coordinate cobasis, keyed by strictly increasing p-tuples of coordinate
indices; absent keys are zero and zero coefficients are suppressed after
every operation.  :class:`MatrixForm` holds matrices of uniform-degree forms
(connections and curvatures) with an optional eta-antisymmetry tag.

Curvature convention: ``matrix_curvature(w) = dw + w ^ w`` entrywise, which
for matrix Lie algebras equals dw + (1/2)[w, w].  All sign conventions are
collected in CONVENTIONS.md.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .expression import Chart, Expr, add, diff, evaluate, mul, num, ZERO

__all__ = [
    "PForm", "MatrixForm", "wedge", "ext_d", "form_eval", "contract",
    "matrix_curvature", "pform_add", "pform_scale", "zero_form",
    "function_form", "coordinate_differential",
    "ChartMismatchError", "FormArityError",
]


class ChartMismatchError(ValueError):
    pass


class FormArityError(ValueError):
    pass


def _merge_indices(a: tuple, b: tuple):
    """Merge two strictly increasing index tuples; (sign, merged) or None."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


class PForm:
    """Degree-p differential form over a chart, sparse in the coordinate cobasis."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs: Mapping[tuple, Expr] | None = None):
        if not 0 <= degree <= chart.n:
            raise FormArityError(f"degree {degree} out of range for n={chart.n}")
        clean: dict = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or any(i < 0 or i >= chart.n for i in idx):
                raise FormArityError(f"bad index tuple {idx} for degree {degree}")
            if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                raise FormArityError(f"index tuple {idx} must be strictly increasing")
            if not c.is_zero():
                clean[idx] = c
        self.chart = chart
        self.degree = degree
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, idx: Sequence[int]) -> Expr:
        return self.coeffs.get(tuple(idx), ZERO)

    def map_coefficients(self, f) -> "PForm":
        return PForm(self.chart, self.degree, {k: f(c) for k, c in self.coeffs.items()})

    def __add__(self, other: "PForm") -> "PForm":
        return pform_add(self, other)

    def __sub__(self, other: "PForm") -> "PForm":
        return pform_add(self, pform_scale(num(-1), other))

    def __neg__(self) -> "PForm":
        return pform_scale(num(-1), self)

    def __repr__(self):
        if self.is_zero():
            return "PForm(0)"
        names = self.chart.coords
        bits = []
        for idx in sorted(self.coeffs):
            basis = "^".join(f"d{names[i]}" for i in idx) or "1"
            bits.append(f"({self.coeffs[idx]!r})*{basis}")
        return " + ".join(bits)


def zero_form(chart: Chart, degree: int) -> PForm:
    return PForm(chart, degree, {})


def function_form(chart: Chart, e: Expr) -> PForm:
    """Wrap a scalar expression as a 0-form."""
    return PForm(chart, 0, {(): e})


def coordinate_differential(chart: Chart, index: int) -> PForm:
    """The coordinate differential of the index-th chart coordinate."""
    return PForm(chart, 1, {(index,): num(1)})


def pform_add(a: PForm, b: PForm) -> PForm:
    if a.chart != b.chart:
        raise ChartMismatchError("cannot add forms over different charts")
    if a.degree != b.degree:
        raise FormArityError(f"cannot add degree {a.degree} and degree {b.degree}")
    out = dict(a.coeffs)
    for idx, c in b.coeffs.items():
        out[idx] = add(out[idx], c) if idx in out else c
    return PForm(a.chart, a.degree, out)


def pform_scale(e: Expr, a: PForm) -> PForm:
    return a.map_coefficients(lambda c: mul(e, c))


def wedge(a: PForm, b: PForm) -> PForm:
    """Graded-commutative wedge product; the add/mul constructors already
    return the coefficients in simplified form."""
    if a.chart != b.chart:
        raise ChartMismatchError("cannot wedge forms over different charts")
    n = a.chart.n
    degree = a.degree + b.degree
    if degree > n:
        return zero_form(a.chart, n)
    out: dict = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged = _merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            term = mul(num(sign), ca, cb)
            out[idx] = add(out[idx], term) if idx in out else term
    return PForm(a.chart, degree, out)


def ext_d(a: PForm) -> PForm:
    """Exterior derivative; satisfies the graded Leibniz rule and d(d a) = 0."""
    chart = a.chart
    if a.degree >= chart.n:
        return zero_form(chart, chart.n)
    out: dict = {}
    for idx, c in a.coeffs.items():
        for mu, name in enumerate(chart.coords):
            dc = diff(c, name)
            if dc.is_zero():
                continue
            merged = _merge_indices((mu,), idx)
            if merged is None:
                continue
            sign, key = merged
            term = mul(num(sign), dc)
            out[key] = add(out[key], term) if key in out else term
    return PForm(chart, a.degree + 1, out)


def _minor_det_expr(vectors: Sequence[Sequence[Expr]], idx: tuple) -> Expr:
    """det of the p x p minor [vectors[r][idx[c]]] as a symbolic expression."""
    p = len(idx)
    if p == 0:
        return num(1)
    if p == 1:
        return vectors[0][idx[0]]
    if p == 2:
        return add(mul(vectors[0][idx[0]], vectors[1][idx[1]]),
                   mul(num(-1), vectors[0][idx[1]], vectors[1][idx[0]]))
    # Leibniz expansion; p stays tiny (p <= n <= 6)
    import itertools
    terms = []
    for perm in itertools.permutations(range(p)):
        sign = 1
        seen = list(perm)
        for i in range(p):
            for j in range(i + 1, p):
                if seen[i] > seen[j]:
                    sign = -sign
        terms.append(mul(num(sign), *[vectors[r][idx[perm[r]]] for r in range(p)]))
    return add(*terms)


def contract(a: PForm, vectors: Sequence[Sequence[Expr]]) -> Expr:
    """Fully antisymmetric evaluation on symbolic vectors (one per degree)."""
    if len(vectors) != a.degree:
        raise FormArityError(f"{a.degree}-form needs {a.degree} vectors, got {len(vectors)}")
    terms = []
    for idx, c in a.coeffs.items():
        det = _minor_det_expr(vectors, idx)
        if not det.is_zero():
            terms.append(mul(c, det))
    return add(*terms)


def form_eval(a: PForm, vectors: Sequence[Sequence[float]], point: Mapping[str, float]) -> float:
    """Numeric multilinear antisymmetric evaluation at a point."""
    if len(vectors) != a.degree:
        raise FormArityError(f"{a.degree}-form needs {a.degree} vectors, got {len(vectors)}")
    vs = [np.asarray(v, dtype=float) for v in vectors]
    values = evaluate(list(a.coeffs.values()), {c: [v] for c, v in point.items()})[:, 0]
    total = 0.0
    for idx, val in zip(a.coeffs, values):
        minor = np.array([[v[i] for i in idx] for v in vs])
        det = float(np.linalg.det(minor)) if idx else 1.0
        total += float(val) * det
    return total


class MatrixForm:
    """Matrix of uniform-degree forms, optionally tagged with a signature
    under which the entries are expected to be eta-antisymmetric."""

    __slots__ = ("chart", "rows", "cols", "degree", "entries", "eta")

    def __init__(self, entries: Sequence[Sequence[PForm]], eta: Sequence[int] | None = None):
        rows = len(entries)
        if rows == 0 or any(len(r) != len(entries[0]) for r in entries):
            raise FormArityError("matrix entries must form a rectangular grid")
        cols = len(entries[0])
        chart = entries[0][0].chart
        degree = entries[0][0].degree
        for r in entries:
            for f in r:
                if f.chart != chart:
                    raise ChartMismatchError("matrix entries live on different charts")
                if f.degree != degree:
                    raise FormArityError("matrix entries must share one degree")
        self.chart = chart
        self.rows = rows
        self.cols = cols
        self.degree = degree
        self.entries = tuple(tuple(r) for r in entries)
        self.eta = tuple(int(s) for s in eta) if eta is not None else None
        if self.eta is not None and len(self.eta) != rows:
            raise FormArityError("eta tag length must match the matrix dimension")

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def eta_antisymmetry_residual(self, points: Mapping[str, np.ndarray]) -> float:
        """max |eta_i w^i_j + eta_j w^j_i| over entries, basis slots and points."""
        if self.eta is None or self.rows != self.cols:
            raise FormArityError("eta-antisymmetry check needs a tagged square matrix")
        pairs, signs = [], []
        for i in range(self.rows):
            for j in range(i, self.cols):
                lhs = self.entries[i][j]
                rhs = self.entries[j][i]
                for k in set(lhs.coeffs) | set(rhs.coeffs):
                    pairs.append((lhs.coefficient(k), rhs.coefficient(k)))
                    signs.append((self.eta[i], self.eta[j]))
        if not pairs:
            return 0.0
        vals = evaluate(pairs, points)
        signs = np.array(signs, dtype=float)[:, :, None]
        return float(np.max(np.abs(signs[:, 0] * vals[:, 0] + signs[:, 1] * vals[:, 1]),
                            initial=0.0))


def matrix_curvature(omega: MatrixForm) -> MatrixForm:
    """dw + w ^ w for a square matrix of 1-forms (2-form valued result)."""
    if omega.rows != omega.cols:
        raise FormArityError("curvature needs a square matrix of forms")
    n = omega.rows
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ext_d(omega.entries[i][j])
            for k in range(n):
                acc = pform_add(acc, wedge(omega.entries[i][k], omega.entries[k][j]))
            row.append(acc)
        out.append(row)
    return MatrixForm(out, eta=omega.eta)
