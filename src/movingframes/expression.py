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

import functools
import itertools
import math
import re
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Expr", "Num", "Sym", "Add", "Mul", "Pow", "Call",
    "num", "sym", "add", "mul", "pow_", "call",
    "parse_expr", "diff", "simplify", "eval_at", "evaluate", "evaluate_along",
    "max_abs", "triu_indices", "to_string",
    "Chart", "Exclusion", "parse_exclusion", "sample_points", "point_at",
    "ExprError", "PointError", "ParseError", "UndeclaredSymbolError", "EvalDomainError",
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


class PointError(ValueError):
    """An input error at a point: the message ends with the point, which
    ``.point`` keeps (None when no point is given)."""

    def __init__(self, message: str, point: Mapping[str, float] | None = None):
        if point is not None:
            message += f" at point {dict(point)}"
        super().__init__(message)
        self.point = dict(point) if point is not None else None


class EvalDomainError(PointError, ExprError):
    """Evaluation hit a domain fault (log of non-positive, sqrt of negative,
    division by zero, non-integer power of a negative base, overflow)."""


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


def _exact(value):
    """An exact constant as an int when integral, else a Fraction: the form of
    every Num value and Pow exponent (an int hashes equal to that Fraction)."""
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


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
        value = _exact(value)

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

    def __new__(cls, base: Expr, exponent):
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
    if isinstance(x, (int, Fraction, float)):
        return Num(x)
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
    return 1, t


def add(*terms) -> Expr:
    """Sum with flattening, constant folding and like-term collection."""
    const = 0
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
    const = 1
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
                base, exp = f, 1
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


def _fold_num_pow(base, exp):
    """Exact value of base**exp, or None if it stays symbolic (also when the
    value would pass ``_FOLD_BITS``); powers of a Fraction, as int ** -1 is a float."""
    bits = max(base.numerator.bit_length(), base.denominator.bit_length())
    if abs(exp) * (bits - 1) > _FOLD_BITS:
        return None
    if exp.denominator == 1:
        e = exp.numerator
        if base == 0:
            if e < 0:
                return None  # division by zero surfaces at evaluation
            return 0 if e > 0 else 1
        return Fraction(base) ** e
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
    exponent = _exact(exponent)
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
    ("sin", 0): ZERO,
    ("tan", 0): ZERO,
    ("sinh", 0): ZERO,
    ("tanh", 0): ZERO,
    ("cos", 0): ONE,
    ("cosh", 0): ONE,
    ("exp", 0): ONE,
    ("log", 1): ZERO,
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
    except OverflowError as exc:     # a constant beyond float range, int or Fraction alike
        raise EvalDomainError("overflow: integer division result too large for a float") from exc


def _schedule(roots: Sequence[Expr]):
    """Post-order (node, children) of the union DAG of ``roots``, and each
    node's position in it."""
    order: list = []
    index: dict = {}                 # node -> position; None while its children run
    for root in roots:
        if root in index:
            continue
        stack = [(root, None)]
        push = stack.append
        while stack:
            x, kids = stack.pop()
            if kids is not None:
                index[x] = len(order)
                order.append((x, kids))
            elif x not in index:
                index[x] = None
                t = type(x)
                kids = (x.factors if t is Mul else x.terms if t is Add else (x.base,) if t is Pow
                        else (x.arg,) if t is Call else ())
                push((x, kids))
                for c in kids:
                    if c not in index:
                        push((c, None))
    return order, index


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


def _times(a, b):
    """a * b, None when either is structurally zero."""
    return None if a is None or b is None else a * b


def _live_sum(*terms):
    """:func:`_sum` of the terms that are not structurally zero."""
    return _sum([t for t in terms if t is not None])


_CALLS = {fn: (getattr(np, fn), _TANGENT.get(fn), _SECOND.get(fn)) for fn in FUNCTIONS}
_POWERS: dict = {}          # each exponent e compiled -> floats of e, e - 1, e (e - 1), e - 2
_PROGRAM_CAP = 256
# tuple of roots -> program, oldest first: at most _PROGRAM_CAP programs of
# one six-field tuple per DAG node (about 210 bytes a node) and no arrays
_PROGRAMS: OrderedDict = OrderedDict()
_EVICTING = threading.Lock()


def _checked_power(p: tuple) -> tuple:
    """Exponent floats ``p`` as a Call runs them, the power faulting on a negative base."""
    def power(a):
        if (a < 0).any():
            raise FloatingPointError("non-integer power of a negative base")
        return a ** p[0]
    return power, lambda a, v: p[0] * a ** p[1], lambda a, v, t: p[2] * a ** p[3]


def _compile(roots: tuple) -> tuple:
    """Per node of :func:`_schedule`'s post-order, whose position is its
    register: (node type, children's registers, argument, root rows written,
    registers freed after it, whether it has a consumer).  The argument is
    the np.float64 constant, the coordinate name, the exponent floats or
    (ufunc, derivative, second derivative)."""
    order, index = _schedule(roots)
    rows: dict = {}
    for r, x in enumerate(roots):
        rows.setdefault(index[x], []).append(r)
    used = bytearray(len(order))
    position, marked = index.__getitem__, used.__getitem__
    prog = [None] * len(order)
    for i in range(len(order) - 1, -1, -1):      # backwards: a child is freed at its last use
        x, kids = order[i]
        op = type(x)
        if op is Num:
            arg = np.float64(float(x.value))
        elif op is Sym:
            arg = x.name
        elif op is Pow:
            e = x.exponent               # a Fraction hashes slowly: key by its two ints
            key = e if type(e) is int else (e.numerator, e.denominator)
            arg = _POWERS.get(key) or _POWERS.setdefault(
                key, (float(e), float(e - 1), float(e * (e - 1)), float(e - 2)))
            if type(e) is not int and arg[0].is_integer():  # |e| >= 2^53: numpy takes
                op, arg = Call, _checked_power(arg)         # a negative base to it unfaulted
        else:
            arg = _CALLS[x.fn] if op is Call else None
        regs = tuple(map(position, kids))
        frees = tuple(itertools.filterfalse(marked, regs))
        for r in frees:
            used[r] = 1
        row = rows.get(i)                        # an int, or a list to index with
        prog[i] = (op, regs, arg, row and (row[0] if len(row) == 1 else row), frees,
                   used[i])
    return tuple(prog)


def _run_program(roots: list, points, n: int, seeds: Mapping | None = None, d: int = 1,
                 useeds: Mapping | None = None):
    """Run the compiled program of ``roots``: each DAG node as one numpy
    operation over all points, in post-order; an intermediate is dropped
    after its last consumer.  Programs are compiled once per tuple of roots
    and kept in ``_PROGRAMS``, oldest evicted first beyond ``_PROGRAM_CAP``.

    With ``seeds`` (coordinate name -> constant (d, N) tangent basis, absent
    where zero) every node also carries its d directional derivatives X f
    (vector forward mode), and the result is the pair (values, derivatives),
    derivatives shaped (roots, d, N).  With ``useeds`` as well (coordinate
    name -> (N,) components of a field u), every node also carries u f and
    the mixed derivatives u(X f) (hyper-dual numbers), and the result is
    (values, derivatives, u-derivatives, mixed), the last shaped (roots, N)
    and (roots, d, N).  A tangent is None where it is structurally zero, so
    the derivative terms that :func:`diff` skips are skipped here too.  A
    node's value and derivatives are formed before its u-channels, so a
    fault in a u-channel alone, which the walk without ``useeds`` would
    pass, is raised as a :class:`_SecondFault`.
    """
    key = tuple(roots)
    prog = _PROGRAMS.get(key)
    if prog is None:
        prog = _PROGRAMS.setdefault(key, _compile(key))     # as _intern: one program wins
        with _EVICTING:
            while len(_PROGRAMS) > _PROGRAM_CAP:
                _PROGRAMS.popitem(last=False)
    out = np.empty((len(roots), n))
    vals, tans, utans, mixed = ([None] * len(prog) for _ in range(4))
    chans: tuple = ()                # (registers, seeds, result) per tangent channel
    if seeds is not None:
        dout = np.zeros((len(roots), d, n))
        chans = ((tans, seeds, dout),)
    if useeds is not None:
        uout, mout = np.zeros((len(roots), n)), np.zeros((len(roots), d, n))
        chans += ((utans, useeds, uout),)
    for i, (op, kids, arg, rows, frees, keep) in enumerate(prog):
        if op is Mul:
            v = vals[kids[0]] * vals[kids[1]]
            for c in kids[2:]:
                v *= vals[c]
        elif op is Add:
            v = vals[kids[0]] + vals[kids[1]]
            for c in kids[2:]:
                v += vals[c]
        elif op is Pow:
            v = vals[kids[0]] ** arg[0]
        elif op is Call:
            v = arg[0](vals[kids[0]])
        elif op is Sym:
            try:
                v = np.asarray(points[arg], dtype=float)
            except KeyError:
                raise UnboundCoordinateError(arg) from None
            if not np.isfinite(v).all():
                raise FloatingPointError("non-finite coordinate")
        else:
            v = arg
        try:
            for chan, seedmap, result in chans:
                if op is Mul:
                    t = _product_rule([vals[c] for c in kids], [chan[c] for c in kids])
                elif op is Add:
                    t = _sum([chan[c] for c in kids if chan[c] is not None])
                elif op is Sym:
                    t = seedmap.get(arg)
                else:
                    t = chan[kids[0]] if kids else None
                    if t is not None:           # e a^(e-1) a', as diff writes it
                        a = vals[kids[0]]
                        t = arg[0] * a ** arg[1] * t if op is Pow else arg[1](a, v) * t
                if t is not None:
                    if rows is not None:
                        result[rows] = t
                    if keep:
                        chan[i] = t
            if useeds is not None and kids:     # u(X f); leaves have none
                if op is Add:
                    w = _sum([mixed[c] for c in kids if mixed[c] is not None])
                elif op is Mul:    # left fold of (ab)'' = a'' b + a' b_u + a_u b' + a b''
                    c = kids[0]
                    p, t, s, w = vals[c], tans[c], utans[c], mixed[c]
                    for c in kids[1:]:
                        f, tf, sf, wf = vals[c], tans[c], utans[c], mixed[c]
                        w = _live_sum(_times(w, f), _times(t, sf), _times(s, tf), _times(p, wf))
                        t, s = (_live_sum(_times(t, f), _times(p, tf)),
                                _live_sum(_times(s, f), _times(p, sf)))
                        p = p * f
                elif tans[kids[0]] is None:
                    w = None
                else:
                    a, t, s, w = vals[kids[0]], tans[kids[0]], utans[kids[0]], mixed[kids[0]]
                    if op is Pow:
                        d1 = arg[0] * a ** arg[1]
                        d2 = None if s is None else arg[2] * a ** arg[3]
                    else:
                        d1 = arg[1](a, v)
                        d2 = None if s is None else arg[2](a, v, d1)
                    w = _live_sum(_times(d2, _times(s, t)), _times(d1, w))
                if w is not None:
                    if rows is not None:
                        mout[rows] = w
                    if keep:
                        mixed[i] = w
        except (FloatingPointError, OverflowError) as exc:
            if chan is utans:               # u f or u(X f): the walk without u goes on
                raise _SecondFault(str(exc)) from exc
            raise
        if rows is not None:
            out[rows] = v
        if keep:
            vals[i] = v
        for c in frees:
            vals[c] = tans[c] = utans[c] = mixed[c] = None
    if seeds is None:
        return out
    return (out, dout) if useeds is None else (out, dout, uout, mout)


_FAULTS = dict(divide="raise", over="raise", invalid="raise", under="ignore")


class _SecondFault(FloatingPointError):
    """A floating-point fault of a hyper-dual walk that only its u-channels meet."""


def _flatten(exprs):
    """Named groups of object arrays, and their expressions in one flat list."""
    groups = exprs if isinstance(exprs, Mapping) else {None: exprs}
    grids = {k: np.array(v, dtype=object) for k, v in groups.items()}
    return grids, [e for g in grids.values() for e in g.ravel()]


def _unflatten(exprs, grids: dict, flat: np.ndarray):
    """Split ``flat`` (one leading row per expression) back into the groups."""
    out, start = {}, 0
    for k, g in grids.items():
        out[k] = flat[start:start + g.size].reshape(g.shape + flat.shape[1:])
        start += g.size
    return out if isinstance(exprs, Mapping) else out[None]


def evaluate(exprs, points):
    """Values of expressions at every sample point, as one numpy program,
    compiled once per tuple of roots (:func:`_run_program`).

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


def evaluate_along(exprs, points, second: Mapping | None = None,
                   second_optional: bool = False):
    """Values of expressions and their coordinate derivatives.

    The derivatives d_c e are taken along every coordinate c of ``points``,
    in key order (chart order for sample columns), all d = len(points) at
    once by vector forward mode through the compiled program of
    :func:`evaluate` (each node carries a (d, N) tangent; sums in the same
    order), so no derivative expression is built.  Returns (values, derivatives): values shaped as
    :func:`evaluate` shapes them, derivatives S + (d, N).  With ``second``, a
    vector field u (coordinate name -> component expression), the same walk
    also carries u(e) and the mixed second derivatives u(d_c e) of every node
    (hyper-dual numbers, Fike & Alonso, AIAA 2011-886), and the result is
    (values, derivatives, u-derivatives, mixed), u-derivatives shaped as
    values and mixed as derivatives.  After a floating-point fault the roots
    and their symbolic derivatives go through the scalar reference, so the
    fault names the first bad point as ``evaluate`` of all of them would.

    With ``second_optional``, a fault that the call without ``second`` would
    meet as well (in a value or a coordinate derivative) is taken as that
    call takes it, whose error or (values, derivatives) it gives, and a
    fault of u or of the u-channels alone gives None, for a caller that then
    walks without u.
    """
    coords = list(points)
    d, n = len(coords), len(next(iter(points.values()), ()))
    roots = None
    try:
        with np.errstate(**_FAULTS):
            useeds = None
            if second is not None:
                ulive = [c for c, e in second.items() if not e.is_zero()]
                useeds = dict(zip(ulive, _run_program([second[c] for c in ulive], points, n)))
            grids, roots = _flatten(exprs)
            basis = np.repeat(np.eye(d)[:, :, None], n, axis=2)
            channels = _run_program(roots, points, n, dict(zip(coords, basis)), d, useeds)
    except (FloatingPointError, OverflowError) as exc:
        if second_optional:
            if roots is None or isinstance(exc, _SecondFault):
                return None
            second = None
        if roots is None:
            grids, roots = _flatten(exprs)
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


@functools.cache
def triu_indices(n: int, k: int = 0) -> tuple:
    """``np.triu_indices(n, k)``, built once per (n, k); its arrays are read-only."""
    rows, cols = np.triu_indices(n, k)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


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


# numpy's default_rng(seed).uniform, reproduced bit for bit without importing
# numpy.random (its lazy import was most of a cold run's sampling time).
# SeedSequence (NEP 19) hashes the seed into PCG64's state s and increment c;
# a draw steps the 128-bit LCG s -> a*s + c, folds s to 64 bits by XSL-RR
# (O'Neill, HMC-CS-2014-0905) and returns low + (high - low)*(x >> 11)*2^-53.
# A block's states come by jump-ahead, s_j = a^j*s + (1 + a + ... + a^(j-1))*c
# mod 2^128, in one float64 matmul: _JUMPS holds a^j and the sum as 16-bit
# limbs (grown on use), s*_SPREAD[0] + c*_SPREAD[1] the 32-bit words of
# s*2^(16r) and c*2^(16r), r < 8, so every partial sum is below 2^52.

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LANES = 4096       # states per block: its arrays stay in cache
_STEPPED = 256      # table columns grown one integer step at a time; wider ones double
_SPREAD = tuple(sum(1 << 16 * r + 256 * (8 * half + r) for r in range(8)) for half in (0, 1))
_JUMPS = np.array([[v >> 16 * k & 0xFFFF] for v in (_PCG_MULT, 1) for k in range(8)], float)


def _lcg_states(s: int, c: int, m: int) -> tuple:
    """The (lo, hi) uint64 words of the states 1..m of the LCG from s with increment c."""
    global _JUMPS
    table = _JUMPS      # one table throughout, whatever another thread stores meanwhile
    while table.shape[1] < m:
        n = table.shape[1]
        p, g = (int.from_bytes(table[h:h + 8, -1].astype("<u2").tobytes(), "little")
                for h in (0, 8))
        if n < _STEPPED:            # a^(j+1) = a*a^j and its sum S_(j+1) = S_j + a^j
            words = []
            for _ in range(min(m, _STEPPED) - n):
                p, g = p * _PCG_MULT & _M128, g + p & _M128
                words += (p.to_bytes(16, "little"), g.to_bytes(16, "little"))
            more = np.frombuffer(b"".join(words), "<u2").reshape(-1, 16).T
        else:                       # column n + j is column j stepped from column n
            more = np.stack([*_lcg_states(p, 0, n), *_lcg_states(g, 1, n)], 1)
            more = more.astype("<u8", copy=False).view("<u2").T
        table = _JUMPS = np.concatenate([table, more], 1)
    seeds = np.frombuffer((s * _SPREAD[0] + c * _SPREAD[1]).to_bytes(512, "little"), "<u4")
    q = seeds.reshape(16, 8)[:, :4].T @ table[:, :m]    # 32-bit columns, carries pending
    q = (q + 2.0 ** 52).view(np.uint64) & 2**52 - 1     # below 2^52: the mantissa is q
    t = (q[0] >> 32) + q[1]
    return (q[0] & _M32) | (t << 32), (t >> 32) + q[2] + (q[3] << 32)


class _PCG64:
    """``numpy.random.default_rng(seed)``, as far as ``uniform`` draws it: an
    array of ``size = (k, n)`` from ``low`` and ``high`` of length n."""

    def __init__(self, seed: int):
        """The state and increment PCG64 takes from SeedSequence(seed)."""
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
        # hashmix: x ^= h; h *= MULT; x *= h; x ^= x >> 16 (h runs on across calls)
        h, pool = 0x43B0D7E5, []
        for w in (words + [0, 0, 0])[:4]:
            v = (w ^ h) * (h := h * 0x931E8875 & _M32) & _M32
            pool.append(v ^ v >> 16)
        # mix each pool word, then each later word, into the other pool words
        for i, j in ((i, j) for i in range(max(4, len(words))) for j in range(4) if j != i):
            v = ((pool[i] if i < 4 else words[i]) ^ h) * (h := h * 0x931E8875 & _M32) & _M32
            v = (0xCA01F9DD * pool[j] - 0x4973F715 * (v ^ v >> 16)) & _M32
            pool[j] = v ^ v >> 16
        h, out = 0x8B51F9DD, 0      # generate_state: the same hash on the pool, cycled
        for i in range(8):
            v = (pool[i % 4] ^ h) * (h := h * 0x58F38DED & _M32) & _M32
            out |= (v ^ v >> 16) << 32 * i
        # pcg64_set_seed: s from words 0, 1 (high first), the stream from 2, 3; step, add s, step
        s = (out & _M64) << 64 | out >> 64 & _M64
        c = ((out >> 128 & _M64) << 65 | out >> 192 << 1 | 1) & _M128
        self.state, self.inc = ((c + s) * _PCG_MULT + c) & _M128, c

    def uniform(self, low, high, size) -> np.ndarray:
        u = np.empty(math.prod(size))
        for start in range(0, len(u), _LANES):
            lo, hi = _lcg_states(self.state, self.inc, min(_LANES, len(u) - start))
            self.state = int(hi[-1]) << 64 | int(lo[-1])
            x, r = hi ^ lo, hi >> 58
            np.multiply(((x >> r | x << (64 - r)) >> 11).view(np.int64), 2.0 ** -53,
                        out=u[start:start + len(x)])
        cols = u.reshape(size).T.copy()     # long contiguous rows, not a broadcast over n
        np.multiply((high - low)[:, None], cols, out=cols)
        return np.add(low[:, None], cols, out=cols).T


def sample_points(chart: Chart, mode: str = "random", count: int = 50,
                  seed: int | None = None) -> dict:
    """Deterministic sample points inside the chart box minus exclusions, as
    coordinate name -> float64 column, in chart order.

    ``random`` draws numpy's ``default_rng(seed).uniform`` stream (PCG64),
    reproduced in-module without importing ``numpy.random`` (the seed is
    required); ``grid`` lays a regular lattice and filters it.  Batches of
    the missing count give the points of one draw at a time.
    """
    los = np.array([chart.domain[c][0] for c in chart.coords])
    his = np.array([chart.domain[c][1] for c in chart.coords])
    if mode == "random":
        if seed is None:
            raise ExprError("random sampling requires a seed")
        rng = _PCG64(int(seed))
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
