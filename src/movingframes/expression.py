"""Symbolic scalar expressions over named chart coordinates.

Expressions are immutable, hash-consed trees built from exact rational
constants, coordinate symbols, n-ary sums and products, rational powers and
elementary function applications.  Construction happens through smart
constructors (``add``, ``mul``, ``pow_``, ``call``) which apply a fixed,
terminating rewrite system: constant folding, flattening, additive and
multiplicative identities, like-term and like-base collection, and power
merging.  There is deliberately no general canonical-form simplification (no
trig identities, no factoring); numerical evaluation at sample points is the
ground truth everywhere downstream.

Every distinct structure exists exactly once (interning), so structural
equality is identity, and the global derivative cache makes repeated
differentiation of shared subtrees cheap.

The module also owns :class:`Chart` (coordinate names, signature, sampling
domain, excluded regions) and the deterministic samplers used by the rest of
the package.

Grammar accepted by :func:`parse_expr` (EBNF, also documented in the README)::

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;          (right associative, e.g. 2^3^2)
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;
    NUMBER  = digits [ "." digits ] [ ("e"|"E") ["+"|"-"] digits ] ;

Exponents must reduce to rational constants.  Implicit multiplication is a
syntax error.  Function names: sin cos tan sinh cosh tanh exp log sqrt.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Expr", "Num", "Sym", "Add", "Mul", "Pow", "Call",
    "num", "sym", "add", "mul", "pow_", "call",
    "parse_expr", "diff", "simplify", "eval_at", "evaluate", "evaluate_along",
    "max_abs", "to_string",
    "Chart", "Exclusion", "parse_exclusion", "sample_points", "point_at",
    "ExprError", "ParseError", "UndeclaredSymbolError", "EvalDomainError",
    "UnboundCoordinateError",
    "ZERO", "ONE",
]

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt")


class ExprError(ValueError):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UndeclaredSymbolError(ParseError):
    def __init__(self, name: str, position: int):
        ParseError.__init__(self, f"undeclared symbol '{name}'", position)
        self.name = name


class EvalDomainError(ExprError):
    """Evaluation hit a domain fault (log of non-positive, sqrt of negative,
    division by zero, non-integer power of a negative base, overflow)."""

    def __init__(self, message: str, point: Mapping[str, float] | None = None):
        if point is not None:
            message += f" at point {dict(point)}"
        super().__init__(message)
        self.point = dict(point) if point is not None else None


class UnboundCoordinateError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"coordinate '{name}' is not bound at the evaluation point")
        self.name = name


# --------------------------------------------------------------------------
# hash-consed nodes
# --------------------------------------------------------------------------

_TABLE: dict = {}
_UIDS = itertools.count()
_REPR_TREE_NODES = 1000      # repr prints an expression in full below this tree size


def _intern(key, factory):
    node = _TABLE.get(key)
    if node is None:
        cand = factory()
        object.__setattr__(cand, "uid", next(_UIDS))
        # setdefault is atomic under the GIL: concurrent constructors of the
        # same structure all receive the one canonical node
        node = _TABLE.setdefault(key, cand)
    return node


class Expr:
    """Base node.  Immutable and interned; equality is identity."""

    __slots__ = ("uid",)

    # arithmetic sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return add(self, mul(NEG_ONE, _as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), mul(NEG_ONE, self))

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, pow_(_as_expr(other), -1))

    def __rtruediv__(self, other):
        return mul(_as_expr(other), pow_(self, -1))

    def __pow__(self, e):
        return pow_(self, e)

    def __neg__(self):
        return mul(NEG_ONE, self)

    def __repr__(self):
        # to_string expands shared subexpressions, so a large DAG would print
        # (and take) time exponential in its depth; summarise those instead
        order, _ = _schedule([self])
        size: dict = {}
        for x, kids in order:
            size[x] = 1 + sum(size[c] for c in kids)
        if size[self] < _REPR_TREE_NODES:
            return to_string(self)
        return f"<Expr: {size[self]} tree nodes, {len(order)} DAG nodes>"

    def is_zero(self) -> bool:
        return self is ZERO


class Num(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        if not isinstance(value, Fraction):
            value = Fraction(value)

        def build():
            self = object.__new__(cls)
            object.__setattr__(self, "value", value)
            return self

        return _intern(("n", value), build)


class Sym(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        def build():
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            return self

        return _intern(("s", name), build)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        def build():
            self = object.__new__(cls)
            object.__setattr__(self, "fn", fn)
            object.__setattr__(self, "arg", arg)
            return self

        return _intern(("c", fn, arg.uid), build)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Fraction):
        def build():
            self = object.__new__(cls)
            object.__setattr__(self, "base", base)
            object.__setattr__(self, "exponent", exponent)
            return self

        return _intern(("p", base.uid, exponent), build)


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        def build():
            self = object.__new__(cls)
            object.__setattr__(self, "terms", terms)
            return self

        return _intern(("a",) + tuple(t.uid for t in terms), build)


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        def build():
            self = object.__new__(cls)
            object.__setattr__(self, "factors", factors)
            return self

        return _intern(("m",) + tuple(f.uid for f in factors), build)


ZERO = Num(0)
ONE = Num(1)
NEG_ONE = Num(-1)


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Num(x)
    if isinstance(x, float):
        return Num(Fraction(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def num(value) -> Num:
    return Num(value)


def sym(name: str) -> Sym:
    return Sym(name)


def _uid(e: Expr) -> int:
    return e.uid


# --------------------------------------------------------------------------
# smart constructors
# --------------------------------------------------------------------------

def _split_coefficient(t: Expr):
    """Split a canonical term into (rational coefficient, remainder)."""
    if isinstance(t, Mul) and isinstance(t.factors[0], Num):
        rest = t.factors[1:]
        rem = rest[0] if len(rest) == 1 else Mul(rest)
        return t.factors[0].value, rem
    return Fraction(1), t


def add(*terms) -> Expr:
    """Sum with flattening, constant folding and like-term collection."""
    const = Fraction(0)
    groups: dict = {}
    stack = [_as_expr(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
        elif isinstance(t, Num):
            const += t.value
        else:
            coeff, rem = _split_coefficient(t)
            got = groups.get(rem)
            groups[rem] = coeff if got is None else got + coeff
    parts = []
    for rem, coeff in groups.items():
        if coeff == 0:
            continue
        parts.append(rem if coeff == 1 else mul(Num(coeff), rem))
    if any(isinstance(p, Add) for p in parts):
        # a sum left with coefficient 1: collect its terms with the others
        return add(Num(const), *parts)
    parts.sort(key=_uid)
    if const != 0:
        parts.insert(0, Num(const))
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return Add(tuple(parts))


def mul(*factors) -> Expr:
    """Product with flattening, zero absorption and like-base power merging."""
    const = Fraction(1)
    groups: dict = {}
    stack = [_as_expr(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Num):
            const *= f.value
        else:
            if isinstance(f, Pow):
                base, exp = f.base, f.exponent
            else:
                base, exp = f, Fraction(1)
            got = groups.get(base)
            groups[base] = exp if got is None else got + exp
    if const == 0:
        return ZERO
    parts = []
    for base, exp in groups.items():
        p = pow_(base, exp)
        if isinstance(p, Num):
            const *= p.value
        elif isinstance(p, Mul):
            # a distributed power; its factors are already canonical
            for sub in p.factors:
                if isinstance(sub, Num):
                    const *= sub.value
                else:
                    parts.append(sub)
        else:
            parts.append(p)
    if const == 0:
        return ZERO
    bases = {p.base if isinstance(p, Pow) else p for p in parts}
    if len(bases) < len(parts):
        # a merged or distributed power landed on another group's base
        return mul(Num(const), *parts)
    parts.sort(key=_uid)
    if not parts:
        return Num(const)
    if const != 1:
        parts.insert(0, Num(const))
    if len(parts) == 1:
        return parts[0]
    return Mul(tuple(parts))


def _int_root(n: int, q: int):
    """Exact integer q-th root of n >= 0, or None (also beyond float range)."""
    if n in (0, 1):
        return n
    try:
        r = round(n ** (1.0 / q))
    except OverflowError:
        return None
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** q == n:
            return cand
    return None


# largest exact power folded to a constant, in bits of numerator or denominator
_FOLD_BITS = 4096


def _fold_num_pow(base: Fraction, exp: Fraction):
    """Exact value of base**exp, or None if it stays symbolic (also when the
    value would pass ``_FOLD_BITS``)."""
    bits = max(base.numerator.bit_length(), base.denominator.bit_length())
    if abs(exp) * (bits - 1) > _FOLD_BITS:
        return None
    if exp.denominator == 1:
        e = exp.numerator
        if base == 0:
            if e < 0:
                return None  # division by zero surfaces at evaluation
            return Fraction(0) if e > 0 else Fraction(1)
        return base ** e
    if base < 0 or (base == 0 and exp < 0):
        return None  # as above, the fault surfaces at evaluation
    p, q = exp.numerator, exp.denominator
    rn = _int_root(base.numerator, q)
    rd = _int_root(base.denominator, q)
    if rn is None or rd is None:
        return None
    root = Fraction(rn, rd)
    return root ** p


def pow_(base, exponent) -> Expr:
    """Power with a rational exponent; merges nested integer powers."""
    base = _as_expr(base)
    if isinstance(exponent, Expr):
        if not isinstance(exponent, Num):
            raise ExprError("power exponent must reduce to a rational constant")
        exponent = exponent.value
    if not isinstance(exponent, Fraction):
        exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Num):
        folded = _fold_num_pow(base.value, exponent)
        if folded is not None:
            return Num(folded)
        return Pow(base, exponent)
    if isinstance(base, Pow) and exponent.denominator == 1:
        return pow_(base.base, base.exponent * exponent)
    if isinstance(base, Mul) and exponent.denominator == 1:
        return mul(*[pow_(f, exponent) for f in base.factors])
    return Pow(base, exponent)


_EXACT_CALLS = {
    ("sin", Fraction(0)): ZERO,
    ("tan", Fraction(0)): ZERO,
    ("sinh", Fraction(0)): ZERO,
    ("tanh", Fraction(0)): ZERO,
    ("cos", Fraction(0)): ONE,
    ("cosh", Fraction(0)): ONE,
    ("exp", Fraction(0)): ONE,
    ("log", Fraction(1)): ZERO,
}


def call(fn: str, arg) -> Expr:
    arg = _as_expr(arg)
    if fn == "sqrt":
        return pow_(arg, Fraction(1, 2))
    if fn not in FUNCTIONS:
        raise ExprError(f"unknown function '{fn}'")
    if isinstance(arg, Num):
        exact = _EXACT_CALLS.get((fn, arg.value))
        if exact is not None:
            return exact
    return Call(fn, arg)


# --------------------------------------------------------------------------
# simplify / diff / eval
# --------------------------------------------------------------------------

_SIMPLIFY_CACHE: dict = {}


def simplify(e: Expr) -> Expr:
    """Rebuild ``e`` bottom-up through the smart constructors.

    The constructors reach their own fixed point, so this returns every
    constructed expression unchanged; the pipeline never calls it, and the
    tests use it as the reference for that property.
    """

    def rec(x: Expr) -> Expr:
        out = _SIMPLIFY_CACHE.get(x)
        if out is not None:
            return out
        if isinstance(x, (Num, Sym)):
            out = x
        elif isinstance(x, Add):
            out = add(*[rec(t) for t in x.terms])
        elif isinstance(x, Mul):
            out = mul(*[rec(f) for f in x.factors])
        elif isinstance(x, Pow):
            out = pow_(rec(x.base), x.exponent)
        elif isinstance(x, Call):
            out = call(x.fn, rec(x.arg))
        else:  # pragma: no cover
            raise TypeError(type(x))
        _SIMPLIFY_CACHE[x] = out
        _SIMPLIFY_CACHE[out] = out
        return out

    return rec(e)


_DIFF_TABLE: dict = {
    "sin": lambda u: call("cos", u),
    "cos": lambda u: mul(NEG_ONE, call("sin", u)),
    "tan": lambda u: add(ONE, pow_(call("tan", u), 2)),
    "sinh": lambda u: call("cosh", u),
    "cosh": lambda u: call("sinh", u),
    "tanh": lambda u: add(ONE, mul(NEG_ONE, pow_(call("tanh", u), 2))),
    "exp": lambda u: call("exp", u),
    "log": lambda u: pow_(u, -1),
}

_DIFF_CACHE: dict = {}


def diff(e: Expr, coord: str, chart: "Chart | None" = None) -> Expr:
    """Symbolic partial derivative with respect to a coordinate name."""
    if chart is not None and coord not in chart.coords:
        raise UndeclaredSymbolError(coord, 0)

    def rec(x: Expr) -> Expr:
        key = (x, coord)
        out = _DIFF_CACHE.get(key)
        if out is not None:
            return out
        if isinstance(x, Num):
            out = ZERO
        elif isinstance(x, Sym):
            out = ONE if x.name == coord else ZERO
        elif isinstance(x, Add):
            out = add(*[rec(t) for t in x.terms])
        elif isinstance(x, Mul):
            pieces = []
            for i, f in enumerate(x.factors):
                df = rec(f)
                if df.is_zero():
                    continue
                pieces.append(mul(*x.factors[:i], df, *x.factors[i + 1:]))
            out = add(*pieces)
        elif isinstance(x, Pow):
            db = rec(x.base)
            if db.is_zero():
                out = ZERO
            else:
                out = mul(Num(x.exponent), pow_(x.base, x.exponent - 1), db)
        elif isinstance(x, Call):
            da = rec(x.arg)
            out = ZERO if da.is_zero() else mul(_DIFF_TABLE[x.fn](x.arg), da)
        else:  # pragma: no cover
            raise TypeError(type(x))
        _DIFF_CACHE[key] = out
        return out

    return rec(e)


def _as_walked(op, v: float, constant: bool) -> float:
    """``op`` applied as :func:`evaluate` applies it: to a numpy scalar when
    the operand is a constant, else to a one-element array, so the scalar
    reference and the batch walk round alike."""
    with np.errstate(all="ignore"):
        return float(op(np.float64(v)) if constant else op(np.array([v]))[0])


def _eval_call(x: Call, v: float) -> float:
    if x.fn == "log" and v <= 0.0:
        raise EvalDomainError(f"log of non-positive value {v!r}")
    out = _as_walked(getattr(np, x.fn), v, isinstance(x.arg, Num))
    if not math.isfinite(out):
        raise EvalDomainError(f"overflow in {x.fn}({v!r})")
    return out


def eval_at(e: Expr, point: Mapping[str, float], memo: dict | None = None) -> float:
    """Evaluate to a float at a coordinate binding (the scalar reference).

    Raises :class:`EvalDomainError` on domain faults and
    :class:`UnboundCoordinateError` when a symbol is missing from ``point``.
    An explicit ``memo`` dict may be shared by evaluations at one point so
    common subtrees are computed once.  Sums run left to right in term
    order, as in :func:`evaluate`.
    """
    if memo is None:
        memo = {}

    def rec(x: Expr) -> float:
        out = memo.get(x)
        if out is not None:
            return out
        if isinstance(x, Num):
            out = float(x.value)
        elif isinstance(x, Sym):
            try:
                out = float(point[x.name])
            except KeyError:
                raise UnboundCoordinateError(x.name) from None
        elif isinstance(x, Add):
            out = rec(x.terms[0])
            for t in x.terms[1:]:
                out += rec(t)
        elif isinstance(x, Mul):
            out = 1.0
            for f in x.factors:
                out *= rec(f)
        elif isinstance(x, Pow):
            b = rec(x.base)
            ex = x.exponent
            if ex.denominator != 1 and b < 0.0:
                raise EvalDomainError(f"non-integer power {ex} of negative base {b!r}")
            if b == 0.0 and ex < 0:
                raise EvalDomainError("division by zero")
            power = float(ex)
            out = _as_walked(lambda a: a ** power, b, isinstance(x.base, Num))
        elif isinstance(x, Call):
            out = _eval_call(x, rec(x.arg))
        else:  # pragma: no cover
            raise TypeError(type(x))
        if out != out or out in (math.inf, -math.inf):
            raise EvalDomainError("evaluation produced a non-finite value")
        memo[x] = out
        return out

    try:
        return rec(e)
    except OverflowError as exc:     # a constant or a power beyond float range
        raise EvalDomainError(f"overflow: {exc}") from exc


def _schedule(roots: Sequence[Expr]):
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


_TANGENT = {                 # d fn(a)/da from the argument a and the value v
    "sin": lambda a, v: np.cos(a),
    "cos": lambda a, v: -np.sin(a),
    "tan": lambda a, v: 1.0 + v ** 2.0,
    "sinh": lambda a, v: np.cosh(a),
    "cosh": lambda a, v: np.sinh(a),
    "tanh": lambda a, v: 1.0 - v ** 2.0,
    "exp": lambda a, v: v,
    "log": lambda a, v: a ** -1.0,
}

_SECOND = {                  # d^2 fn(a)/da^2 from a, the value v and the first derivative t
    "sin": lambda a, v, t: -v,
    "cos": lambda a, v, t: -v,
    "tan": lambda a, v, t: 2.0 * v * t,
    "sinh": lambda a, v, t: v,
    "cosh": lambda a, v, t: v,
    "tanh": lambda a, v, t: -2.0 * v * t,
    "exp": lambda a, v, t: v,
    "log": lambda a, v, t: -(t * t),
}


def _sum(terms: list):
    """Left-to-right sum of the arrays in ``terms``; None when there are none."""
    if not terms:
        return None
    out = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    for t in terms[2:]:
        out += t
    return out


def _product_rule(values: list, tangents: list):
    """Tangent of a product: sum over factors i of (prod before i) t_i (prod
    after i), from prefix and suffix products, so no value is divided out."""
    live = [i for i, t in enumerate(tangents) if t is not None]
    if not live:
        return None
    pre = [None]                     # pre[i]: product of the first i factors
    for f in values[:live[-1]]:
        pre.append(f if pre[-1] is None else pre[-1] * f)
    suf = [None]                     # suf[j]: product of the last j factors
    for f in reversed(values[live[0] + 1:]):
        suf.append(f if suf[-1] is None else f * suf[-1])
    terms = []
    for i in live:
        t = tangents[i] if pre[i] is None else pre[i] * tangents[i]
        after = suf[len(values) - 1 - i]
        terms.append(t if after is None else t * after)
    return _sum(terms)


def _tangent(x: Expr, kids: tuple, v, vals: dict, tans: dict, seeds: Mapping):
    """Directional derivative of node ``x`` from its children's values and
    tangents; None when it is structurally zero, so the derivative terms that
    :func:`diff` skips are skipped here too."""
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


def _times(a, b):
    """a * b, None when either is structurally zero."""
    return None if a is None or b is None else a * b


def _live_sum(*terms):
    """:func:`_sum` of the terms that are not structurally zero."""
    return _sum([t for t in terms if t is not None])


def _mixed(x: Expr, kids: tuple, v, vals: dict, tans: dict, utans: dict, mixed: dict):
    """u(X f) of node ``x`` (hyper-dual numbers: value, X-tangent, u-tangent and
    mixed part) from its children's four channels; None when structurally zero,
    as for every leaf, since the X-tangents of the symbols are constant."""
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


def _run_program(roots: list, points, n: int, seeds: Mapping | None = None, d: int = 1,
                 useeds: Mapping | None = None):
    """Each DAG node as one numpy operation over all points, in post-order;
    an intermediate is dropped after its last consumer.

    With ``seeds`` (coordinate name -> constant (d, N) tangent basis, absent
    where zero) every node also carries its d directional derivatives X f
    (vector forward mode), and the result is the pair (values, derivatives),
    derivatives shaped (roots, d, N).  With ``useeds`` as well (coordinate
    name -> (N,) components of a field u), every node also carries u f and
    the mixed derivatives u(X f) (hyper-dual numbers), and the result is
    (values, derivatives, u-derivatives, mixed), the last shaped (roots, N)
    and (roots, d, N).
    """
    order, last = _schedule(roots)
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
            v = getattr(np, x.fn)(vals[kids[0]])       # numpy names every FUNCTIONS entry
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


_FAULTS = dict(divide="raise", over="raise", invalid="raise", under="ignore")


def _flatten(exprs):
    """Named groups of object arrays, and their expressions in one flat list."""
    groups = exprs if isinstance(exprs, Mapping) else {None: exprs}
    grids = {k: np.array(v, dtype=object) for k, v in groups.items()}
    return grids, [e for g in grids.values() for e in g.ravel()]


def _unflatten(exprs, grids: dict, flat: np.ndarray):
    """Split ``flat`` (one leading row per expression) back into the groups."""
    parts = np.split(flat, np.cumsum([g.size for g in grids.values()])[:-1])
    out = {k: v.reshape(g.shape + flat.shape[1:]) for (k, g), v in zip(grids.items(), parts)}
    return out if isinstance(exprs, Mapping) else out[None]


def evaluate(exprs, points):
    """Values of expressions at every sample point, as one numpy program.

    ``exprs``: a rectangular nested sequence of shape S (result: S + (N,)),
    or a mapping of names to such sequences (result: a dict of arrays from
    one walk of the union DAG, so shared subexpressions run once).
    ``points``: coordinate name -> length-N column.  After a floating-point
    fault the points are re-run in order through :func:`eval_at`, whose
    :class:`EvalDomainError` names the first bad point.
    """
    grids, roots = _flatten(exprs)
    n = len(next(iter(points.values()), ()))
    try:
        with np.errstate(**_FAULTS):
            flat = _run_program(roots, points, n)
    except (FloatingPointError, OverflowError):
        flat = _reference(roots, points, n)
    return _unflatten(exprs, grids, flat)


def _along(e: Expr, field: Mapping) -> Expr:
    """The derivative of ``e`` along a field, built with :func:`diff`."""
    return add(*[mul(v, diff(e, c)) for c, v in field.items() if not v.is_zero()])


def evaluate_along(exprs, points, second: Mapping | None = None):
    """Values of expressions and their coordinate derivatives.

    The derivatives d_c e are taken along every coordinate c of ``points``,
    in key order (chart order for sample columns), all d = len(points) at
    once by vector forward mode through the walk of :func:`evaluate` (each
    node carries a (d, N) tangent; sums in the same order), so no derivative
    expression is built.  Returns (values, derivatives): values shaped as
    :func:`evaluate` shapes them, derivatives S + (d, N).  With ``second``, a
    vector field u (coordinate name -> component expression), the same walk
    also carries u(e) and the mixed second derivatives u(d_c e) of every node
    (hyper-dual numbers, Fike & Alonso, AIAA 2011-886), and the result is
    (values, derivatives, u-derivatives, mixed), u-derivatives shaped as
    values and mixed as derivatives.  After a floating-point fault the roots
    and their symbolic derivatives go through the scalar reference, so the
    fault names the first bad point as ``evaluate`` of all of them would.
    """
    grids, roots = _flatten(exprs)
    coords = list(points)
    d, n = len(coords), len(next(iter(points.values()), ()))
    try:
        with np.errstate(**_FAULTS):
            useeds = None
            if second is not None:
                ulive = [c for c, e in second.items() if not e.is_zero()]
                useeds = dict(zip(ulive, _run_program([second[c] for c in ulive], points, n)))
            basis = np.repeat(np.eye(d)[:, :, None], n, axis=2)
            channels = _run_program(roots, points, n, dict(zip(coords, basis)), d, useeds)
    except (FloatingPointError, OverflowError):
        derivs = [diff(e, c) for e in roots for c in coords]
        if second is not None:
            derivs += [_along(e, second) for e in roots + derivs]
        k = len(roots)
        parts = np.split(_reference(roots + derivs, points, n), np.cumsum([k, k * d, k]))
        channels = [p.reshape(k, d, n) if i % 2 else p
                    for i, p in enumerate(parts[:2 if second is None else 4])]
    return tuple(_unflatten(exprs, grids, c) for c in channels)


def point_at(points: Mapping, k: int) -> dict:
    """Point ``k`` of coordinate columns, as a coordinate -> float mapping."""
    return {c: float(col[k]) for c, col in points.items()}


def _reference(roots: list, points: Mapping, n: int) -> np.ndarray:
    """The scalar walk point by point; raises at the first faulting point."""
    out = np.empty((len(roots), n))
    for k in range(n):
        p = point_at(points, k)
        memo: dict = {}
        try:
            out[:, k] = [eval_at(e, p, memo) for e in roots]
        except EvalDomainError as exc:
            raise EvalDomainError(str(exc), p) from exc
    return out


def max_abs(a: np.ndarray) -> float:
    """max |a| over an array, 0.0 when it is empty, with no temporary of a's
    size; abs makes a zero result +0.0, as np.abs would."""
    a = np.asarray(a)
    return float(abs(max(a.max(initial=0.0), -a.min(initial=0.0))))


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def to_string(e: Expr) -> str:
    """Readable infix form (re-parseable for integer-valued constants)."""

    def prec(x: Expr) -> int:
        if isinstance(x, Add):
            return 1
        if isinstance(x, Mul):
            return 2
        if isinstance(x, Pow):
            return 3
        if isinstance(x, Num) and (x.value < 0 or x.value.denominator != 1):
            return 2
        return 9

    def wrap(x: Expr, level: int) -> str:
        s = rec(x)
        return f"({s})" if prec(x) < level else s

    def rec(x: Expr) -> str:
        if isinstance(x, Num):
            return _frac_str(x.value)
        if isinstance(x, Sym):
            return x.name
        if isinstance(x, Add):
            out = wrap(x.terms[0], 1)
            for t in x.terms[1:]:
                c, rem = _split_coefficient(t)
                if isinstance(t, Num) and t.value < 0:
                    out += f" - {_frac_str(-t.value)}"
                elif c < 0:
                    out += " - " + wrap(mul(Num(-c), rem), 2)
                else:
                    out += " + " + wrap(t, 2)
            return out
        if isinstance(x, Mul):
            return "*".join(wrap(f, 3) for f in x.factors)
        if isinstance(x, Pow):
            if x.exponent == Fraction(1, 2):
                return f"sqrt({rec(x.base)})"
            b = wrap(x.base, 4)
            if x.exponent.denominator == 1 and x.exponent > 0:
                return f"{b}^{x.exponent.numerator}"
            return f"{b}^({_frac_str(x.exponent)})"
        if isinstance(x, Call):
            return f"{x.fn}({rec(x.arg)})"
        raise TypeError(type(x))  # pragma: no cover

    return rec(e)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# A float carries 17 significant digits and decimal exponents up to 308, so
# longer literals hold nothing evaluation can use; the caps keep the exact
# rational of a literal small.
_LITERAL_DIGITS = 1000
_LITERAL_EXPONENT = 1000


def _number_value(text: str, pos: int) -> Fraction:
    mantissa, _, exp = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    if (len(whole + frac) > _LITERAL_DIGITS or len(exp.lstrip("+-0")) > 4
            or abs(int(exp or 0)) > _LITERAL_EXPONENT):
        raise ParseError(f"number literal beyond {_LITERAL_DIGITS} digits or "
                         f"exponent {_LITERAL_EXPONENT}", pos)
    return Fraction(int(whole + frac), 10 ** len(frac)) * Fraction(10) ** int(exp or 0)


class _Parser:
    def __init__(self, text: str, chart: "Chart"):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected '{op}'", pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else add(e, mul(NEG_ONE, rhs))
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                e = mul(e, rhs) if value == "*" else mul(e, pow_(rhs, -1))
            else:
                return e

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return mul(NEG_ONE, self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.unary()
            if not isinstance(exponent, Num):
                raise ParseError("exponent must be a rational constant", pos)
            return pow_(base, exponent.value)
        return base

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(_number_value(value, pos))
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function '{value}'", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return call(value, arg)
            if value in FUNCTIONS:
                raise ParseError(f"function '{value}' used without arguments", pos)
            if value not in self.chart.coords:
                raise UndeclaredSymbolError(value, pos)
            return Sym(value)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_expr(text: str, chart: "Chart") -> Expr:
    """Parse an expression string over the chart's coordinates."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    try:
        return _Parser(text, chart).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


# --------------------------------------------------------------------------
# charts, exclusions and sampling
# --------------------------------------------------------------------------

class Exclusion:
    """A predicate carving a region out of the sampling box (True = excluded)."""

    __slots__ = ("expr", "op", "bound", "text")
    _OPS: dict = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __init__(self, expr: Expr, op: str, bound: float, text: str = ""):
        if op not in self._OPS:
            raise ExprError(f"unsupported comparison '{op}'")
        self.expr = expr
        self.op = op
        self.bound = float(bound)
        self.text = text or f"{to_string(expr)} {op} {bound}"

    def compare(self, value):
        """Whether a value (or each of an array of values) of ``expr`` is excluded."""
        return self._OPS[self.op](value, self.bound)

    def __repr__(self):
        return f"Exclusion({self.text!r})"


_EXCL_RE = re.compile(r"(<=|>=|<|>)")


def parse_exclusion(text: str, chart: "Chart") -> Exclusion:
    parts = _EXCL_RE.split(text, maxsplit=1)
    if len(parts) != 3:
        raise ExprError(f"exclusion {text!r} needs one comparison operator")
    lhs, op, rhs = parts
    bound = parse_expr(rhs, chart)
    if not isinstance(bound, Num):
        raise ExprError(f"exclusion bound {rhs.strip()!r} must be constant")
    return Exclusion(parse_expr(lhs, chart), op, float(bound.value), text.strip())


class Chart:
    """Ordered coordinate names with signature, sampling box and exclusions."""

    def __init__(self, coords: Sequence[str], signature: Sequence[int] | None = None,
                 domain: Mapping[str, Sequence[float]] | None = None,
                 exclusions: Iterable[Exclusion] = (),
                 simply_connected: bool = True):
        coords = tuple(coords)
        if len(coords) < 2:
            raise ExprError("a chart needs at least two coordinates")
        if len(set(coords)) != len(coords):
            raise ExprError("coordinate names must be unique")
        for c in coords:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", c) or c in FUNCTIONS:
                raise ExprError(f"invalid coordinate name {c!r}")
        if signature is None:
            signature = (1,) * len(coords)
        signature = tuple(int(s) for s in signature)
        if len(signature) != len(coords) or any(s not in (-1, 1) for s in signature):
            raise ExprError("signature must list +1/-1 once per coordinate")
        self.coords = coords
        self.signature = signature
        box = {}
        domain = dict(domain or {})
        for c in coords:
            lo, hi = domain.pop(c, (-1.0, 1.0))
            lo, hi = float(lo), float(hi)
            if not lo < hi:
                raise ExprError(f"empty domain interval for {c!r}")
            if not math.isfinite(hi - lo):
                raise ExprError(f"domain interval for {c!r} is wider than a float")
            box[c] = (lo, hi)
        if domain:
            raise ExprError(f"domain given for unknown coordinates {sorted(domain)}")
        self.domain = box
        self.exclusions = tuple(exclusions)
        # a declaration by the user, never inferred; gates the Poincare-lemma
        # step of the log-magnitude reconstruction
        self.simply_connected = bool(simply_connected)

    @property
    def n(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        return self.coords.index(name)

    def admits(self, point: Mapping[str, float]) -> bool:
        if not all(lo <= point[c] <= hi for c, (lo, hi) in self.domain.items()):
            return False
        return self.excluded_by({c: np.array([point[c]]) for c in self.coords})[0] < 0

    def excluded_by(self, points: Mapping[str, np.ndarray]) -> np.ndarray:
        """Per point of the columns: the index of the first exclusion that
        holds there, or -1.  Each exclusion is evaluated only on the points
        the earlier ones kept, so a later one may be undefined where an
        earlier one holds (``x < 0.5`` before ``log(x - 0.5) > 5``)."""
        first = np.full(len(next(iter(points.values()))), -1)
        live = np.arange(len(first))
        for e, ex in enumerate(self.exclusions):
            kept = {c: col[live] for c, col in points.items()} if e else points
            hit = ex.compare(evaluate([ex.expr], kept)[0])
            first[live[hit]] = e
            live = live[~hit]
        return first

    def columns(self, points: Mapping[str, np.ndarray]) -> dict:
        """The columns of ``points`` in chart order: evaluate_along's derivative axis."""
        return {c: points[c] for c in self.coords}

    def point(self, values: Sequence[float]) -> dict:
        return dict(zip(self.coords, (float(v) for v in values)))

    def __eq__(self, other):
        return (isinstance(other, Chart) and other.coords == self.coords
                and other.signature == self.signature)

    def __hash__(self):
        return hash((self.coords, self.signature))

    def __repr__(self):
        sig = ",".join("+" if s > 0 else "-" for s in self.signature)
        return f"Chart({','.join(self.coords)}; {sig})"


def sample_points(chart: Chart, mode: str = "random", count: int = 50,
                  seed: int | None = None) -> dict:
    """Deterministic sample points inside the chart box minus exclusions, as
    coordinate name -> float64 column, in chart order.

    ``random`` draws uniformly with numpy's seeded PCG64 generator (the seed
    is required); ``grid`` lays a regular lattice and filters it.  Batches of
    the missing count give the points of one draw at a time.
    """
    los = np.array([chart.domain[c][0] for c in chart.coords])
    his = np.array([chart.domain[c][1] for c in chart.coords])
    if mode == "random":
        if seed is None:
            raise ExprError("random sampling requires a seed")
        rng = np.random.default_rng(int(seed))
        limit = 1000 * count

        def take(start, k):
            return rng.uniform(los, his, size=(k, chart.n))
    elif mode == "grid":
        m = max(2, math.ceil(count ** (1.0 / chart.n)))
        axes = [np.linspace(lo, hi, m) for lo, hi in zip(los, his)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, chart.n)
        limit = len(grid)

        def take(start, k):
            return grid[start:start + k]
    else:
        raise ExprError(f"unknown sampling mode {mode!r}")
    kept, accepted, drawn = [], 0, 0
    while accepted < count and drawn < limit:
        k = min(count - accepted, limit - drawn)
        cols = np.ascontiguousarray(take(drawn, k).T)
        drawn += k
        cols = cols[:, chart.excluded_by(dict(zip(chart.coords, cols))) < 0]
        kept.append(cols)
        accepted += cols.shape[1]
    if accepted < count and mode == "random":
        raise ExprError("sampling failed: exclusions reject too much of the box")
    if not accepted:
        raise ExprError("grid sampling produced no admissible points")
    return dict(zip(chart.coords, np.concatenate(kept, axis=1)))
