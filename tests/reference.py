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

``frame_components`` and ``coordinate_riemann`` are the einsum forms of the
contraction kernel and of the coordinate Riemann tensor in ``frames``, and
``frame_gamma``, ``inverse_metric``, ``ambient_jet`` and ``riemann_along``
the einsums over five or six joint indices that the curvature stage splits
into pairwise contractions.

``jump_table`` grows the PCG64 jump-ahead table of ``expression._lcg_states``
by doubling alone, as it did before its first columns came by integer steps.
"""

from typing import Mapping, Sequence

import numpy as np

from movingframes.expression import (_M32, _PCG_MULT, _SECOND, _SPREAD, _TANGENT, Add, Call,
                                     Expr, Mul, Num, Pow, Sym, UnboundCoordinateError,
                                     _live_sum, _product_rule, _sum, _times, point_at)
from movingframes.frames import SingularMetricError, _check_pivot, _finite, christoffel
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


def frame_components(vectors, t: np.ndarray) -> np.ndarray:
    """Slot k of t (point axis last) contracted with ``vectors[k]`` (axes i, m,
    point), a None entry keeping its slot: one einsum over every slot."""
    slots, frame = "abcdefgh"[:t.ndim - 1], "ABCDEFGH"
    operands = [(f"{frame[k]}{slots[k]}p", v) for k, v in enumerate(vectors) if v is not None]
    result = "".join(slots[k] if v is None else frame[k] for k, v in enumerate(vectors))
    return np.einsum(",".join([o for o, _ in operands] + [slots + "p"]) + f"->{result}p",
                     *[v for _, v in operands], t)


def coordinate_riemann(ddg: np.ndarray, *products) -> np.ndarray:
    """q_abgd - q_abdg with each product's sum over s as its own einsum."""
    q = np.einsum("adbgp->abgdp", ddg) + np.einsum("bgadp->abgdp", ddg)
    q *= 0.5
    for up, low in products:
        q += np.einsum("sbgp,sadp->abgdp", up, low)
    return q - np.swapaxes(q, 2, 3)


def inverse_metric(eta, e: np.ndarray) -> np.ndarray:
    """g^mn = sum_i eta_i e_i^m e_i^n."""
    return np.einsum("i,imp,inp->mnp", np.array(eta, dtype=float), e, e)


def frame_gamma(th: np.ndarray, e: np.ndarray, de: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Gamma^i_jk = theta^i_m (e_k(e_j^m) + Gamma^m_nr e_k^n e_j^r)."""
    return np.einsum("imp,jkmp->ijkp", th, np.einsum("knp,jmnp->jkmp", e, de)
                     + np.einsum("mnrp,knp,jrp->jkmp", up, e, e))


def ambient_jet(walk: tuple, ginv: np.ndarray) -> dict:
    """``frames._ambient_jet`` with u(g^-1) in one einsum and these forms."""
    v, dv, *second = walk
    low, up = christoffel(v["dg"], ginv)
    jet = {"g": v["g"], "up": up, "q": coordinate_riemann(dv["dg"], (up, low))}
    if second:
        du, duv = second
        ulow, uup = christoffel(du["dg"], ginv)
        uup -= np.einsum("msp,snrp->mnrp", np.einsum("mrp,rtp,tsp->msp", ginv, du["g"], ginv),
                         low)
        jet["uq"] = coordinate_riemann(duv["dg"], (uup, low), (up, ulow))
    return jet


def riemann_along(ambient_jet: dict, e: np.ndarray, ue: np.ndarray, eta) -> tuple:
    """(R, u(R)) of ``FrameData.riemann_along`` from a kept ambient jet, with
    omega in one einsum and each slot term its own einsum."""
    eta = np.array(eta, dtype=float)
    r = frame_components([e] * 4, ambient_jet["q"])
    dr = frame_components([e] * 4, ambient_jet["uq"])
    omega = np.einsum("f,mnp,fnp,amp->afp", eta, ambient_jet["g"], e, ue)
    for slots in ("afp,fbcdp", "bfp,afcdp", "cfp,abfdp", "dfp,abcfp"):
        dr += np.einsum(slots + "->abcdp", omega, r)
    return r, dr


def jump_table(m: int) -> np.ndarray:
    """The jump table of ``expression._lcg_states`` (a^j and its sum
    1 + a + ... + a^(j-1) as 16-bit limbs, j = 1, 2, ...) with at least m
    columns, grown from its first by doubling: column n + j is column j
    stepped from column n by a matmul of the table's first n columns."""
    table = np.array([[v >> 16 * k & 0xFFFF] for v in (_PCG_MULT, 1) for k in range(8)], float)
    while table.shape[1] < m:
        n = table.shape[1]
        p, g = (int.from_bytes(table[h:h + 8, -1].astype("<u2").tobytes(), "little")
                for h in (0, 8))
        halves = []
        for s, c in ((p, 0), (g, 1)):
            seeds = np.frombuffer((s * _SPREAD[0] + c * _SPREAD[1]).to_bytes(512, "little"),
                                  "<u4")
            q = seeds.reshape(16, 8)[:, :4].T @ table
            q = (q + 2.0 ** 52).view(np.uint64) & 2**52 - 1
            t = (q[0] >> 32) + q[1]
            halves += [(q[0] & _M32) | (t << 32), (t >> 32) + q[2] + (q[3] << 32)]
        more = np.stack(halves, 1).astype("<u8", copy=False).view("<u2").T
        table = np.concatenate([table, more], 1)
    return table
