"""Test-side references for the package's fast paths.

``run_program`` is the node-by-node interpreter that the compiled programs
of ``expression._run_program`` replaced.  On every call it schedules the
roots (``schedule``), dispatches on each node's type and keeps the values
and tangents in dicts keyed by node.  It performs the same numpy operations
as the compiled runner, in the same order, so the two agree bit for bit.

``round12`` is the isinstance chain that ``cli._round12`` replaced with
exact-type tests.

``gram_schmidt_jet`` is the numeric Gram-Schmidt that ``frames.gram_schmidt_jet``
replaced: it takes every candidate as arrays of values and tangents
(``candidates`` forms them from the new kernel's arguments), forms each
projection's tangent from g, d g and the candidate afresh, and checks each
pivot as soon as it is formed.

``admissible`` is the path check that ``herglotz._admissible`` replaced: one
pass of ``path_faults`` (which walks every chunk through ``excluded_by``, with
or without exclusions) over the paths, the leaf steps and all 49 stencil
offsets of every (sample, axis) row, then every stencil's fit per row.
"""

from typing import Mapping, Sequence

import numpy as np

from movingframes.expression import (_SECOND, _TANGENT, Add, Call, Expr, Mul, Num, Pow, Sym,
                                     UnboundCoordinateError, _live_sum, _product_rule, _sum,
                                     _times, point_at)
from movingframes.frames import SingularMetricError, _check_pivot, _finite
from movingframes.herglotz import (_POINTS_PER_EVALUATE, _STENCIL_OFFSETS, _STENCIL_SPANS,
                                   PathError, _along, _in_box)


def schedule(roots: Sequence[Expr]):
    """Post-order (node, children) of the union DAG of ``roots``, and the
    position of each node's last consumer."""
    order: list = []
    seen: set = set()
    for root in roots:
        stack = [(root, None)]
        while stack:
            x, kids = stack.pop()
            if kids is not None:
                order.append((x, kids))
            elif x not in seen:
                seen.add(x)
                kids = (x.terms if isinstance(x, Add) else x.factors if isinstance(x, Mul)
                        else (x.base,) if isinstance(x, Pow)
                        else (x.arg,) if isinstance(x, Call) else ())
                stack.append((x, kids))
                stack.extend((c, None) for c in kids if c not in seen)
    last: dict = {}
    for i, (_, kids) in enumerate(order):
        for c in kids:
            last[c] = i
    return order, last


def _tangent(x: Expr, kids: tuple, v, vals: dict, tans: dict, seeds: Mapping):
    """Directional derivative of node ``x`` from its children's values and
    tangents; None when it is structurally zero."""
    if isinstance(x, Sym):
        return seeds.get(x.name)
    if isinstance(x, Add):
        return _sum([tans[c] for c in kids if c in tans])
    if isinstance(x, Mul):
        return _product_rule([vals[c] for c in kids], [tans.get(c) for c in kids])
    t = tans.get(kids[0]) if kids else None
    if t is None:
        return None
    a = vals[kids[0]]
    if isinstance(x, Pow):          # e a^(e-1) a', as diff writes it
        return float(x.exponent) * a ** float(x.exponent - 1) * t
    return _TANGENT[x.fn](a, v) * t


def _mixed(x: Expr, kids: tuple, v, vals: dict, tans: dict, utans: dict, mixed: dict):
    """u(X f) of node ``x`` from its children's four channels; None when
    structurally zero, as for every leaf."""
    if isinstance(x, Add):
        return _sum([mixed[c] for c in kids if c in mixed])
    if isinstance(x, Mul):          # left fold of (ab)'' = a'' b + a' b_u + a_u b' + a b''
        p, t, s, w = vals[kids[0]], tans.get(kids[0]), utans.get(kids[0]), mixed.get(kids[0])
        for c in kids[1:]:
            f, tf, sf, wf = vals[c], tans.get(c), utans.get(c), mixed.get(c)
            w = _live_sum(_times(w, f), _times(t, sf), _times(s, tf), _times(p, wf))
            t, s = _live_sum(_times(t, f), _times(p, tf)), _live_sum(_times(s, f), _times(p, sf))
            p = p * f
        return w
    t = tans.get(kids[0]) if kids else None
    if t is None:
        return None
    s, w = utans.get(kids[0]), mixed.get(kids[0])
    a = vals[kids[0]]
    if isinstance(x, Pow):
        e = x.exponent
        d1 = float(e) * a ** float(e - 1)
        d2 = None if s is None else float(e * (e - 1)) * a ** float(e - 2)
    else:
        d1 = _TANGENT[x.fn](a, v)
        d2 = None if s is None else _SECOND[x.fn](a, v, d1)
    return _live_sum(_times(d2, _times(s, t)), _times(d1, w))


def run_program(roots: list, points, n: int, seeds: Mapping | None = None, d: int = 1,
                useeds: Mapping | None = None):
    """``expression._run_program``'s arguments and results: values, and with
    ``seeds`` the (d, N) tangents, and with ``useeds`` as well the u-tangents
    and the mixed derivatives of every root."""
    order, last = schedule(roots)
    rows: dict = {}
    for r, x in enumerate(roots):
        rows.setdefault(x, []).append(r)
    out = np.empty((len(roots), n))
    if seeds is not None:
        dout = np.zeros((len(roots), d, n))
    if useeds is not None:
        uout, mout = np.zeros((len(roots), n)), np.zeros((len(roots), d, n))
    vals: dict = {}
    tans: dict = {}
    utans: dict = {}
    mixed: dict = {}
    for i, (x, kids) in enumerate(order):
        if isinstance(x, Num):
            v = np.float64(float(x.value))
        elif isinstance(x, Sym):
            try:
                v = np.asarray(points[x.name], dtype=float)
            except KeyError:
                raise UnboundCoordinateError(x.name) from None
            if not np.isfinite(v).all():
                raise FloatingPointError("non-finite coordinate")
        elif isinstance(x, Add):
            v = vals[kids[0]] + vals[kids[1]]
            for t in kids[2:]:
                v += vals[t]
        elif isinstance(x, Mul):
            v = vals[kids[0]] * vals[kids[1]]
            for f in kids[2:]:
                v *= vals[f]
        elif isinstance(x, Pow):
            v = vals[kids[0]] ** float(x.exponent)
        else:
            v = getattr(np, x.fn)(vals[kids[0]])
        if useeds is not None:
            for channel, result, t in ((utans, uout, _tangent(x, kids, v, vals, utans, useeds)),
                                       (mixed, mout, _mixed(x, kids, v, vals, tans, utans, mixed))):
                if t is not None:
                    if x in rows:
                        result[rows[x]] = t
                    if x in last:
                        channel[x] = t
        if seeds is not None:
            t = _tangent(x, kids, v, vals, tans, seeds)
            if t is not None:
                if x in rows:
                    dout[rows[x]] = t
                if x in last:
                    tans[x] = t
        if x in rows:
            out[rows[x]] = v
        if x in last:
            vals[x] = v
        for c in kids:
            if last[c] == i:
                vals.pop(c, None)
                tans.pop(c, None)
                if useeds is not None:
                    utans.pop(c, None)
                    mixed.pop(c, None)
    if seeds is None:
        return out
    return (out, dout) if useeds is None else (out, dout, uout, mout)


def round12(value):
    """Every float of ``value`` rounded to 12 significant digits; tuples
    become lists."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


def candidates(perm: Sequence[int], n: int, count: int, lead=None) -> tuple:
    """The candidates of ``frames.gram_schmidt_jet(..., perm, ..., lead=lead)``
    as this module's kernel takes them: (values, tangents), the lead first,
    then d_k for k in ``perm`` as constant rows with zero tangents."""
    seeds = [np.broadcast_to(np.eye(n)[k][:, None], (n, count)) for k in perm]
    dseeds = [np.broadcast_to(0.0, (n, n, count))] * len(perm)
    if lead is not None:
        seeds, dseeds = [lead[0]] + seeds, [lead[1]] + dseeds
    return seeds, dseeds


def gram_schmidt_jet(g: np.ndarray, dg: np.ndarray, seeds, dseeds,
                     expected_eta: Sequence[int], points: Mapping[str, np.ndarray],
                     pivot_tol: float = 1e-8, allow_skip: bool = False) -> tuple:
    """Metric Gram-Schmidt of the candidates ``seeds`` (axes candidate, m,
    point) with tangents ``dseeds`` (axes candidate, m, r, point), in
    modified form, each pivot checked before its tangent is formed; returns
    (e, de, eta, kept) as ``frames.gram_schmidt_jet`` does."""
    want = list(expected_eta)
    frame, dframe, kept = [], [], []
    with np.errstate(all="ignore"):
        for index, v in enumerate(seeds):
            if len(frame) == len(want):
                break
            dv = dseeds[index]
            for e, de, s in zip(frame, dframe, want):
                ge = np.einsum("mnp,np->mp", g, e)
                c = s * np.einsum("mp,mp->p", v, ge)
                dc = s * (np.einsum("mrp,mp->rp", dv, ge)
                          + np.einsum("mp,mnrp,np->rp", v, dg, e)
                          + np.einsum("mp,mrp->rp", np.einsum("mnp,np->mp", g, v), de))
                dv = dv - e[:, None] * dc - c * de
                v = v - c * e
            gv = np.einsum("mnp,np->mp", g, v)
            p = np.einsum("mp,mp->p", v, gv)
            _finite(points, v, p)
            if not (allow_skip or p.any()):     # as a structurally zero symbolic pivot
                raise SingularMetricError("metric pivot vanishes identically",
                                          point_at(points, 0))
            if not _check_pivot(p, points, pivot_tol, allow_skip, want[len(frame)], len(frame)):
                continue
            scale = (want[len(frame)] * p) ** -0.5
            dp = 2.0 * np.einsum("mrp,mp->rp", dv, gv) + np.einsum("mp,mnrp,np->rp", v, dg, v)
            de = (dv - v[:, None] * (0.5 * dp / p)) * scale
            _finite(points, de)
            frame.append(v * scale)
            dframe.append(de)
            kept.append(index)
    if len(frame) != len(want):
        raise SingularMetricError(
            f"Gram-Schmidt produced {len(frame)} of {len(want)} frame vectors")
    return np.array(frame), np.array(dframe), tuple(want), kept


def path_faults(chart, pts: np.ndarray) -> np.ndarray:
    """Per row: -1 admissible, 0 outside the padded box, 1 + e inside
    exclusion e, ``_POINTS_PER_EVALUATE`` rows at a time."""
    faults = np.zeros(len(pts), dtype=int)
    for lo in range(0, len(pts), _POINTS_PER_EVALUATE):
        rows = pts[lo:lo + _POINTS_PER_EVALUATE]
        inside = _in_box(chart, rows)
        first = chart.excluded_by(dict(zip(chart.coords, rows[inside].T)))
        faults[lo:lo + len(rows)][inside] = np.where(first < 0, -1, first + 1)
    return faults


def admissible(chart, paths: np.ndarray, leaf_from: np.ndarray, leaf_to: np.ndarray,
               p: np.ndarray, e: np.ndarray):
    """One pass: a :class:`PathError` at the first bad row of ``paths``, else
    whether each leaf step fits (at 17 points) and, per stencil (central,
    forward, backward), whether it fits at each row of p with steps e."""
    leaf = _along(leaf_from, leaf_to, 17)
    line = p[:, None, :] + _STENCIL_OFFSETS[:, None] * e[:, None, :]
    faults = path_faults(chart, np.concatenate([paths, leaf, line.reshape(-1, chart.n)]))
    if np.any(faults[:len(paths)] >= 0):
        k = int(np.argmax(faults >= 0))
        where = ("leaves the domain box" if faults[k] == 0 else "crosses excluded region "
                 f"({chart.exclusions[faults[k] - 1].text})")
        raise PathError(f"integration path {where} at {chart.point(paths[k])}")
    leaf_fit = np.all(faults[len(paths):len(paths) + len(leaf)].reshape(-1, 17) < 0, axis=1)
    ok = faults[len(paths) + len(leaf):].reshape(len(p), -1) < 0
    return leaf_fit, np.array([np.all(ok[:, span], axis=1) for span in _STENCIL_SPANS])
