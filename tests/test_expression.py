"""Parser, differentiation, simplification and evaluation."""

import collections
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from movingframes import expression
from movingframes.expression import (ZERO, Add, Call, Chart, EvalDomainError, Expr, Mul,
                                     Num, ParseError, Pow, Sym,
                                     UnboundCoordinateError,
                                     UndeclaredSymbolError, ExprError, _fold_num_pow, add,
                                     call, diff,
                                     eval_at, evaluate, evaluate_along, max_abs, mul, num,
                                     parse_exclusion, parse_expr, pow_,
                                     sample_points, simplify, sym,
                                     to_string)

from movingframes.exterior import matrix_curvature
from movingframes.frames import build_coframe, classify_space, curvature_package, solve_connection
from movingframes.herglotz import run_herglotz
from movingframes.submersion import (analyze_flow, constraint_residuals, directional,
                                     flow_invariants)

import reference
from helpers import columns, random_expr, random_point, rows, symbolic_riemann

CHART = Chart(["x", "y", "z"])
X, Y, Z = sym("x"), sym("y"), sym("z")


class TestParser:
    def test_product_of_function_and_power(self):
        e = parse_expr("sin(x)*y^2", CHART)
        assert isinstance(e, Mul)
        assert call("sin", X) in e.factors
        assert pow_(Y, 2) in e.factors

    def test_zero_literal(self):
        assert parse_expr("0", CHART) is num(0)

    def test_incomplete_input_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x +", CHART)
        assert err.value.position == 3

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("2x", CHART)

    def test_undeclared_symbol(self):
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_expr("x + q", CHART)
        assert err.value.name == "q"

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expr("   ", CHART)

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than * /
        assert eval_at(parse_expr("-x^2", CHART), {"x": 3.0}) == -9.0
        assert eval_at(parse_expr("2^3^2", CHART), {"x": 0.0}) == 512.0
        assert eval_at(parse_expr("6/2*3", CHART), {"x": 0.0}) == 9.0

    def test_decimal_literals_exact(self):
        e = parse_expr("0.3", CHART)
        assert isinstance(e, Num) and e.value == Fraction(3, 10)
        e = parse_expr("2.5e2", CHART)
        assert e.value == 250

    def test_number_literal_caps(self):
        """A literal has at most 1000 digits and a decimal exponent of at
        most 1000 in magnitude; past that it is a parse error, not a
        million-digit rational or a ValueError from int()."""
        assert parse_expr("9" * 1000, CHART).value == 10 ** 1000 - 1
        assert parse_expr("1e-1000", CHART).value == Fraction(1, 10 ** 1000)
        for text in ("1" * 1001, "0." + "0" * 1000, "1" * 5001, "1e1001",
                     "2.5E-1001", "1e999999", "1e" + "9" * 5001):
            with pytest.raises(ParseError) as err:
                parse_expr("x + " + text, CHART)
            assert err.value.position == 4

    def test_oversized_constant_power_stays_symbolic(self):
        assert _fold_num_pow(Fraction(2), Fraction(4096)) == 2 ** 4096
        assert _fold_num_pow(Fraction(2), Fraction(4097)) is None
        assert _fold_num_pow(Fraction(1, 2), Fraction(-4097)) is None
        assert _fold_num_pow(Fraction(-1), Fraction(10 ** 9)) == 1
        assert _fold_num_pow(Fraction(10), Fraction(10 ** 9)) is None
        e = parse_expr("10^1000000000", CHART)
        assert isinstance(e, Pow) and e.base is num(10)

    def test_non_constant_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("x^y", CHART)

    def test_rational_exponent_through_parens(self):
        e = parse_expr("x^(1/2)", CHART)
        assert e == call("sqrt", X)

    def test_to_string_reparses(self):
        e = parse_expr("x^-2 + 2^3^2 + 3*y - sin(z)", CHART)
        back = parse_expr(to_string(e), CHART)
        p = {"x": 1.7, "y": -0.4, "z": 0.9}
        assert eval_at(back, p) == pytest.approx(eval_at(e, p), rel=1e-14)


class TestDiff:
    def test_polynomial_rule(self):
        f = X ** 2 * call("sin", Y)
        assert diff(f, "x") == 2 * X * call("sin", Y)

    def test_chain_rule(self):
        f = X ** 2 * call("sin", Y)
        assert diff(f, "y") == X ** 2 * call("cos", Y)

    def test_absent_variable(self):
        f = X ** 2 * call("sin", Y)
        assert diff(f, "z") is num(0)

    def test_quotient_and_sqrt(self):
        f = call("sqrt", 1 + X ** 2)
        df = diff(f, "x")
        for v in (0.3, -1.2, 2.0):
            expected = v / math.sqrt(1 + v * v)
            assert eval_at(df, {"x": v}) == pytest.approx(expected, rel=1e-12)

    def test_undeclared_coordinate(self):
        with pytest.raises(UndeclaredSymbolError):
            diff(X, "q", CHART)


class TestSimplify:
    def test_constant_fold(self):
        assert mul(num(2), num(3), X) == 6 * X

    def test_additive_identity(self):
        assert add(X, num(0)) is X

    def test_power_merge(self):
        assert pow_(pow_(X, 2), 3) == pow_(X, 6)

    def test_zero_annihilates(self):
        assert (X * 0) is num(0)

    def test_double_negation(self):
        assert -(-X) is X

    def test_like_terms(self):
        assert 2 * X + 3 * X == 5 * X
        assert (X - X) is num(0)

    def test_sqrt_of_perfect_square_constant(self):
        assert call("sqrt", num(4)) is num(2)
        assert isinstance(call("sqrt", num(2)), Pow)

    def test_integral_constants_are_ints(self):
        """Num values and Pow exponents are int when integral, else Fraction;
        a negative power of an int folds exactly, not to a float."""
        assert type(num(Fraction(4, 2)).value) is int
        assert type(num(Fraction(1, 2)).value) is Fraction
        assert num(Fraction(4, 2)) is num(2) and num(2.0) is num(2)
        assert pow_(num(2), -1) is num(Fraction(1, 2))
        assert pow_(num(4), Fraction(-3, 2)) is num(Fraction(1, 8))
        assert pow_(X, Fraction(2, 2)) is X
        assert type(pow_(X, Fraction(4, 2)).exponent) is int
        assert type(diff(pow_(X, Fraction(3, 2)), "x").factors[0].value) is Fraction

    # the constructors reach their own fixed point: simplify, which rebuilds
    # through them, returns what they built unchanged
    def test_sum_collected_to_coefficient_one_is_flattened(self):
        eta = sym("eta")
        s = eta + eta ** 3
        got = add(eta, 2 * s, -s)
        assert got is add(2 * eta, eta ** 3) and simplify(got) is got
        assert add(eta, 2 * s, -s, -2 * eta, -eta ** 3).is_zero()

    def test_power_landing_on_another_base_is_merged(self):
        cos2 = call("cos", sym("eta")) ** 2
        got = mul(pow_(cos2, Fraction(-1, 2)), pow_(cos2, Fraction(-3, 2)), cos2)
        assert got is pow_(call("cos", sym("eta")), -2) and simplify(got) is got

    def test_distributed_power_is_merged(self):
        got = mul(pow_(X * Y, Fraction(1, 2)), pow_(X * Y, Fraction(3, 2)), X)
        assert got is mul(X ** 3, Y ** 2) and simplify(got) is got

    def test_every_node_of_a_pipeline_run_is_a_fixed_point(self, screw, conformal4,
                                                           hyperbolic3, sphere1, polar3):
        """simplify returns unchanged every node that the stages hold or
        intern on the fixture metrics and flows, the Herglotz stage on the
        screw flow and the symbolic curvature route included."""
        start = len(expression._TABLE)
        x, y = sym("x"), sym("y")
        held = []
        for metric, flow in ((screw["metric"], screw["flow"]),
                             (conformal4[1], [-y, x, num(1), num(0)]),
                             (hyperbolic3[1], None), (sphere1[1], None), (polar3[1], None)):
            pts = sample_points(metric.chart, "random", 6, seed=5)
            fd = curvature_package(build_coframe(metric, pts))
            cf = fd.coframe
            # the connection 1-forms and the library route to the curvature
            # (d alpha + alpha ^ alpha, contracted) are no pipeline stage, but
            # their nodes are checked as before
            alpha = solve_connection(cf)
            held += [metric.entries, fd.dmetric, cf.vectors, [t.coeffs.values() for t in cf.theta],
                     symbolic_riemann(cf), [f.coeffs.values() for m in (alpha, matrix_curvature(
                         alpha)) for r in m.entries for f in r]]
            if flow is not None:
                fl = analyze_flow(metric, flow, pts)
                cls = classify_space(fd, fd.curvature_values(pts))
                constraint_residuals(fl, fd, None)
                run_herglotz(fl, cls, {c: float(v[0]) for c, v in pts.items()})
                inv = flow_invariants(fl.adapted)
                held += [fl.adapted.norm2, fl.adapted.u, inv.m, inv.k]
        order, _ = expression._schedule(list(_exprs(held)))
        nodes = {node for node, _ in order} | set(list(expression._TABLE.values())[start:])
        assert len(nodes) > 500
        assert [e for e in nodes if simplify(e) is not e] == []


def _exprs(nested):
    if isinstance(nested, Expr):
        yield nested
    else:
        for item in nested:
            yield from _exprs(item)


class TestEval:
    def test_sin_zero(self):
        assert eval_at(call("sin", X), {"x": 0.0}) == 0.0

    def test_sqrt_negative_domain_error(self):
        with pytest.raises(EvalDomainError):
            eval_at(call("sqrt", X), {"x": -1.0})

    def test_polynomial(self):
        assert eval_at(X ** 2 + Y, {"x": 2.0, "y": 1.0}) == 5.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            eval_at(1 / X, {"x": 0.0})

    def test_log_non_positive(self):
        with pytest.raises(EvalDomainError):
            eval_at(call("log", X), {"x": 0.0})

    def test_unbound_coordinate(self):
        with pytest.raises(UnboundCoordinateError):
            eval_at(X + Y, {"x": 1.0})


class TestRepr:
    def test_small_expression_prints_in_full(self):
        e = X ** 2 + call("sin", Y)
        assert repr(e) == to_string(e)

    def test_shared_dag_is_summarised(self):
        """Each level doubles the tree and adds three DAG nodes."""
        e = X
        for _ in range(60):
            e = call("sin", e) + call("cos", e)
        text = repr(e)
        assert text.startswith("<Expr: ") and "181 DAG nodes" in text

    def test_report_holding_quotient_curvature(self, screw):
        """pytest reprs a failing test's arguments; this must not expand
        curvature-size expressions.  The ambient Riemann tensor in the
        adapted frame of the screw flow is what the quotient curvature Rq is
        built from (10^7 tree nodes per component)."""
        riemann = symbolic_riemann(screw["flow_data"].adapted.coframe)
        text = repr(riemann)
        assert len(text) < 5000
        assert "tree nodes" in text


# -- randomized properties ---------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_simplify_preserves_value_and_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    e = random_expr(rng, CHART.coords, depth=4)
    s = simplify(e)
    assert s is e and simplify(s) is s
    for _ in range(3):
        p = random_point(rng, CHART)
        try:
            ve = eval_at(e, p)
        except EvalDomainError:
            continue
        vs = eval_at(s, p)
        assert abs(vs - ve) <= 1e-10 * max(1.0, abs(ve))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
@example(18532)                 # x*z*(x + y): no Num or Pow in it or its derivatives
def test_interned_constants_are_ints_exactly_when_integral(seed):
    """Every Num value and Pow exponent of a random expression e, of (3/2) e
    and e^(-1/2), and of their derivatives (the nodes their construction
    interned or found) is an int exactly when its denominator is 1.  The
    scaled and the powered e bring a Num or a Pow into every draw."""
    e = random_expr(np.random.default_rng(seed), CHART.coords, depth=4)
    exprs = [e, mul(num(Fraction(3, 2)), e), pow_(e, Fraction(-1, 2))]
    order, _ = expression._schedule(exprs + [diff(x, c) for x in exprs for c in CHART.coords])
    nodes = [x for x, _ in order]
    exact = [x.value for x in nodes if isinstance(x, Num)]
    exact += [x.exponent for x in nodes if isinstance(x, Pow)]
    assert exact and all(type(c) in (int, Fraction) and (type(c) is int) == (c.denominator == 1)
                         for c in exact)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_diff_is_linear(seed):
    rng = np.random.default_rng(seed)
    e1 = random_expr(rng, CHART.coords, depth=3)
    e2 = random_expr(rng, CHART.coords, depth=3)
    a, b = Fraction(3, 2), Fraction(-2, 7)
    combo = diff(add(mul(num(a), e1), mul(num(b), e2)), "x")
    parts = add(mul(num(a), diff(e1, "x")), mul(num(b), diff(e2, "x")))
    for _ in range(3):
        p = random_point(rng, CHART)
        try:
            lhs = eval_at(combo, p)
            rhs = eval_at(parts, p)
        except EvalDomainError:
            continue
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_diff_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    e = random_expr(rng, CHART.coords, depth=3)
    coord = str(rng.choice(CHART.coords))
    de = diff(e, coord)
    h = 1e-6
    checked = 0
    for _ in range(6):
        # stay away from the box edge so the stencil remains in-domain
        p = {c: float(rng.uniform(-0.9, 0.9)) for c in CHART.coords}
        hi = dict(p)
        lo = dict(p)
        hi[coord] += h
        lo[coord] -= h
        try:
            fd = (eval_at(e, hi) - eval_at(e, lo)) / (2 * h)
            sd = eval_at(de, p)
        except EvalDomainError:
            continue
        if abs(fd) < 1e-4:
            continue  # relative comparison is meaningless near critical points
        assert abs(sd - fd) <= 1e-5 * max(1.0, abs(fd))
        checked += 1


def test_eval_agrees_with_unsimplified_tree():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        e = random_expr(rng, CHART.coords, depth=4)
        s = simplify(e)
        p = random_point(rng, CHART)
        try:
            ve = eval_at(e, p)
        except EvalDomainError:
            continue
        assert abs(eval_at(s, p) - ve) <= 1e-12 * max(1.0, abs(ve))


# -- batch evaluation ----------------------------------------------------------

class TestEvaluate:
    POINTS = [{"x": 0.3, "y": -1.2, "z": 2.0}, {"x": -0.7, "y": 0.4, "z": 1.5}]
    COLUMNS = columns(POINTS)

    def test_shape_follows_nesting(self):
        e = parse_expr("sin(x)*y^2 + exp(z)/y", CHART)
        vals = evaluate([[e, X], [num(3), e]], self.COLUMNS)
        assert vals.shape == (2, 2, 2)
        for k, p in enumerate(self.POINTS):
            assert vals[0, 0, k] == pytest.approx(eval_at(e, p), rel=1e-14)
            assert vals[0, 1, k] == p["x"] and vals[1, 0, k] == 3.0

    def test_groups_and_coordinate_columns(self):
        e = parse_expr("x*y - z^3", CHART)
        out = evaluate({"a": [e, Y], "b": e}, self.COLUMNS)
        assert out["a"].shape == (2, 2) and out["b"].shape == (2,)
        assert list(out["b"]) == [eval_at(e, p) for p in self.POINTS]
        assert max_abs(out["a"]) == np.max(np.abs(out["a"]))

    def test_no_points_and_unbound(self):
        assert evaluate([X, Y], {"x": np.empty(0), "y": np.empty(0)}).shape == (2, 0)
        assert max_abs(np.empty((2, 0))) == 0.0
        assert str(max_abs(np.array([-0.0, 0.0]))) == "0.0" and max_abs([-3.0, 2.0]) == 3.0
        with pytest.raises(UnboundCoordinateError):
            evaluate([X + Y], {"x": [1.0]})

    @pytest.mark.parametrize("text, point", [
        ("x + y", {"x": 1.5e308, "y": 1.5e308, "z": 0.0}),
        ("10^400*x", {"x": 1.0, "y": 0.0, "z": 0.0}),
        ("log(x)", {"x": -2.0, "y": 0.0, "z": 0.0})])
    def test_domain_fault_names_first_point(self, text, point):
        e = parse_expr(text, CHART)
        with pytest.raises(EvalDomainError):
            eval_at(e, point)
        fine = {"x": 0.5, "y": 0.5, "z": 0.5}
        if text == "10^400*x":   # the constant faults everywhere
            fine = point
        with pytest.raises(EvalDomainError) as err:
            evaluate([X, e], columns([fine, point, dict(point, z=1.0)]))
        assert err.value.point == (fine if text == "10^400*x" else point)

    def test_negative_base_to_a_non_integer_power_with_an_integral_float(self):
        """float(10^20/3) is an integer, so numpy takes -0.25 to it without a
        fault; the walk checks the base of such a power and, as eval_at,
        refuses a negative one at its point.  Positive bases keep the values
        of the interpreter the compiled programs replaced (tests/reference.py)."""
        e = parse_expr("x^(10^20/3)", CHART)
        assert isinstance(e, Pow) and float(e.exponent).is_integer()
        good, bad = {"x": 0.5, "y": 0.0, "z": 0.0}, {"x": -0.25, "y": 0.0, "z": 0.0}
        with pytest.raises(EvalDomainError) as want:
            eval_at(e, bad)
        for walk in (evaluate, evaluate_along):
            with pytest.raises(EvalDomainError) as err:
                walk([e], columns([good, bad, dict(bad, z=1.0)]))
            assert (str(err.value), err.value.point) == (f"{want.value} at point {bad}", bad)
        points = columns([good, {"x": 1.0, "y": 0.0, "z": 0.0}])
        basis = dict(zip(CHART.coords, np.repeat(np.eye(3)[:, :, None], 2, axis=2)))
        with np.errstate(**expression._FAULTS):
            ref = reference.run_program([e], points, 2, basis, 3, {"x": np.ones(2)})
        assert evaluate([e], points).tolist() == ref[0].tolist() == [[0.0, 1.0]]
        got = evaluate_along([e], points, second={"x": num(1)})
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))



def test_index_tables_are_built_once_and_read_only():
    """The stages' index pairs come from one cached, read-only table per
    (n, k): a write to a shared table would corrupt every later run."""
    for n, k in ((4, 1), (3, 0), (2, 0)):
        table = expression.triu_indices(n, k)
        assert expression.triu_indices(n, k) is table
        assert [a.tolist() for a in table] == [a.tolist() for a in np.triu_indices(n, k)]
        for a in table:
            with pytest.raises(ValueError):
                a[0] = 1


_COORD = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e120, 1e120))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.tuples(_COORD, _COORD, _COORD),
                                          min_size=1, max_size=6))
# sin(z^2 exp(9/20)) at z = 111: math.exp and numpy's exp differ by one ulp,
# which the large sin argument amplified to 2.6e-12
@example(seed=372648, coords=[(0.0, 0.0, 111.0)])
def test_evaluate_matches_eval_at(seed, coords):
    """evaluate agrees with the scalar walk, and faults exactly where it does."""
    rng = np.random.default_rng(seed)
    exprs = [random_expr(rng, CHART.coords, depth=4) for _ in range(3)]
    points = [dict(zip(CHART.coords, c)) for c in coords]
    cols = columns(points)
    first_fault = None
    expected = []
    for p in points:
        memo = {}
        try:
            expected.append([eval_at(e, p, memo) for e in exprs])
        except EvalDomainError:
            first_fault = p
            break
    if first_fault is not None:
        with pytest.raises(EvalDomainError) as err:
            evaluate(exprs, cols)
        assert err.value.point == first_fault
        return
    got = evaluate(exprs, cols)
    for k, row in enumerate(expected):
        for i, want in enumerate(row):
            assert abs(got[i, k] - want) <= 1e-12 * max(1.0, abs(want))


# -- forward-mode derivatives ----------------------------------------------------

def _jet(e):
    """The coordinate derivatives of e, built with diff, in chart order."""
    return [diff(e, c) for c in CHART.coords]


def _along(e, field):
    """The derivative of e along a field, built with diff."""
    return add(*[mul(v, diff(e, c)) for c, v in field.items() if not v.is_zero()])


class TestEvaluateAlong:
    COLUMNS = TestEvaluate.COLUMNS

    def test_matches_the_symbolic_derivative(self):
        e = parse_expr("sin(x)*y^2 + exp(z)/y - sqrt(tan(x*z)^2 + 1) + log(2 + x^2)", CHART)
        vals, ders = evaluate_along([[e, X], [num(3), Y]], self.COLUMNS)
        want = evaluate([[_jet(e), _jet(X)], [_jet(num(3)), _jet(Y)]], self.COLUMNS)
        assert vals.shape == (2, 2, 2) and ders.shape == (2, 2, 3, 2)
        assert np.array_equal(vals, evaluate([[e, X], [num(3), Y]], self.COLUMNS))
        assert np.allclose(ders, want, rtol=1e-12, atol=1e-12)
        # along a field with non-constant components: the u-channel
        vector = {"x": parse_expr("y*z", CHART), "y": num(2), "z": ZERO}
        uders = evaluate_along([e], self.COLUMNS, second=vector)[2]
        want = evaluate([directional(e, [vector[c] for c in CHART.coords], CHART)], self.COLUMNS)
        assert np.allclose(uders, want, rtol=1e-12, atol=1e-12)

    def test_groups_and_a_zero_vector(self):
        e = parse_expr("x*y*z", CHART)
        vals, ders, uders, mixed = evaluate_along({"a": [e], "b": e}, self.COLUMNS,
                                                  second={"x": ZERO})
        assert vals["a"].shape == (1, 2) and ders["b"].shape == (3, 2)
        assert uders["a"].shape == (1, 2) and mixed["b"].shape == (3, 2)
        assert np.array_equal(ders["a"][0], ders["b"])
        for channel in (uders, mixed):
            assert not channel["a"].any() and not channel["b"].any()

    def test_product_rule_needs_no_division(self):
        # d(x*y*z)/dx at x = 0 is y*z: no value is divided out of the product
        e = parse_expr("x*y*z", CHART)
        _, ders = evaluate_along([e], {"x": [0.0], "y": [2.0], "z": [3.0]})
        assert ders[0].tolist() == [[6.0], [0.0], [0.0]]

    def test_fault_names_first_point(self):
        # sqrt(x) has a finite value at 0 but its derivative x^(-1/2)/2 does not
        e = parse_expr("sqrt(x) + y", CHART)
        good, bad = {"x": 1.0, "y": 0.0, "z": 0.0}, {"x": 0.0, "y": 0.0, "z": 0.0}
        assert np.array_equal(evaluate([e], columns([bad])), [[0.0]])
        _, ders = evaluate_along([e], columns([good]))
        assert ders[0].tolist() == [[0.5], [1.0], [0.0]]
        with pytest.raises(EvalDomainError) as err:
            evaluate_along([e], columns([good, bad, dict(bad, z=1.0)]))
        assert err.value.point == bad


_BOX = st.floats(-2.0, 2.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.tuples(_BOX, _BOX, _BOX), min_size=1, max_size=6))
def test_evaluate_along_matches_symbolic_directional(seed, coords):
    """Forward mode agrees with evaluating the symbolic derivatives along the
    coordinate fields, d_c e = diff(e, c), and faults exactly where that
    evaluation does.

    The faults come from square roots and logarithms of random expressions
    that change sign in the box.  Overflow is left out: where it sets in
    depends on how the symbolic derivative groups factors (y*y^2 is folded
    to y^3), so near the float limit the two can differ by design.
    """
    rng = np.random.default_rng(seed)
    exprs = [random_expr(rng, CHART.coords, depth=4),
             pow_(add(num(1), random_expr(rng, CHART.coords, depth=3)), Fraction(1, 2)),
             call("log", add(num(1), random_expr(rng, CHART.coords, depth=3)))]
    points = columns([dict(zip(CHART.coords, c)) for c in coords])
    try:
        want = evaluate({"v": exprs, "d": [_jet(e) for e in exprs]}, points)
    except EvalDomainError as exc:
        with pytest.raises(EvalDomainError) as err:
            evaluate_along(exprs, points)
        assert err.value.point == exc.point
        return
    vals, ders = evaluate_along(exprs, points)
    for got, ref in ((vals, want["v"]), (ders, want["d"])):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


_NAMES = ("x", "y", "z", "w")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4),
       st.lists(st.tuples(_BOX, _BOX, _BOX, _BOX), min_size=1, max_size=6))
def test_evaluate_along_vector_mode(seed, d, coords):
    """All d coordinates of the columns in one walk, whatever d (one
    included): the derivative axis has length d and follows the key order
    of the columns, each row equals the evaluated diff(e, c), and a fault
    names the first point where that symbolic evaluation faults."""
    rng = np.random.default_rng(seed)
    names = [str(c) for c in rng.permutation(_NAMES[:d])]      # the key order
    exprs = [random_expr(rng, names, depth=4),
             pow_(add(num(1), random_expr(rng, names, depth=3)), Fraction(1, 2))]
    points = columns([dict(zip(names, c)) for c in coords])
    derivs = [[diff(e, c) for c in names] for e in exprs]
    try:
        want = evaluate({"v": exprs, "d": derivs}, points)
    except EvalDomainError as exc:
        with pytest.raises(EvalDomainError) as err:
            evaluate_along(exprs, points)
        assert err.value.point == exc.point
        return
    vals, ders = evaluate_along(exprs, points)
    assert ders.shape == (len(exprs), d, len(coords))
    for got, ref in ((vals, want["v"]), (ders, want["d"])):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestMixedChannel:
    COLUMNS = TestEvaluate.COLUMNS

    def test_matches_the_symbolic_second_derivative(self):
        e = parse_expr("sin(x)*y^2 + exp(z)/y - sqrt(tan(x*z)^2 + 1) + log(2 + x^2)", CHART)
        u = {"x": parse_expr("cos(y)", CHART), "z": Y}
        vals, ders, uders, mixed = evaluate_along([e, X], self.COLUMNS, second=u)
        want = evaluate({"u": [_along(e, u), u["x"]],
                         "m": [[_along(x, u) for x in _jet(e)], [ZERO] * 3]}, self.COLUMNS)
        plain = evaluate_along([e, X], self.COLUMNS)
        assert np.array_equal(vals, plain[0]) and np.array_equal(ders, plain[1])
        assert uders.shape == (2, 2) and mixed.shape == (2, 3, 2)
        assert np.allclose(uders, want["u"], rtol=1e-12, atol=1e-12)
        assert np.allclose(mixed, want["m"], rtol=1e-12, atol=1e-12)

    def test_fault_names_first_point(self):
        # x^(3/2) and its first derivative are finite at 0, the second is not
        e = parse_expr("x^(3/2) + y", CHART)
        good, bad = {"x": 1.0, "y": 0.0, "z": 0.0}, {"x": 0.0, "y": 0.0, "z": 0.0}
        _, ders = evaluate_along([e], columns([good, bad]))
        assert ders[0].tolist() == [[1.5, 0.0], [1.0, 1.0], [0.0, 0.0]]
        _, _, _, mixed = evaluate_along([e], columns([good, bad]), second={"y": num(1)})
        assert not mixed.any()
        with pytest.raises(EvalDomainError) as err:
            evaluate_along([e], columns([good, bad, dict(bad, z=1.0)]), second={"x": num(1)})
        assert err.value.point == bad

    def test_fault_of_the_walk_alone_falls_back(self):
        """Along u = x d/dx the walk forms 0 * 0^(-1/2) for u(d_x x^(3/2)) at
        x = 0, where the symbolic derivative x * (3/4) x^(-1/2) = (3/4) x^(1/2)
        is finite: the scalar reference gives the values."""
        bad = columns([{"x": 0.0, "y": 0.0, "z": 0.0}, {"x": 4.0, "y": 0.0, "z": 0.0}])
        got = evaluate_along([parse_expr("x^(3/2)", CHART)], bad, second={"x": X})
        assert [c.tolist() for c in got] == [[[0.0, 8.0]], [[[0.0, 3.0], [0.0, 0.0], [0.0, 0.0]]],
                                             [[0.0, 12.0]],
                                             [[[0.0, 1.5], [0.0, 0.0], [0.0, 0.0]]]]

    def test_second_optional_locates_only_what_the_first_order_walk_meets(self):
        """With second_optional, a fault of u or of a u-channel alone gives
        None, and a fault of a value or a coordinate derivative is located
        as the call without u locates it."""
        e = parse_expr("x^(3/2) + y", CHART)
        zero = columns([{"x": 1.0, "y": 0.0, "z": 0.0}, {"x": 0.0, "y": 0.0, "z": 0.0}])
        negative = columns([{"x": 1.0, "y": 0.0, "z": 0.0}, {"x": -1.0, "y": 0.0, "z": 0.0}])
        # u(d_x x^(3/2)) = (3/4) x^(-1/2) faults at x = 0, e and d e do not
        assert evaluate_along([e], zero, second={"x": num(1)}, second_optional=True) is None
        # u = log(y) faults before the walk of e
        assert evaluate_along([e], negative, second={"y": parse_expr("log(y)", CHART)},
                              second_optional=True) is None
        # x^(3/2) faults at x = -1: the error of the walk without u
        with pytest.raises(EvalDomainError) as plain:
            evaluate_along([e], negative)
        with pytest.raises(EvalDomainError) as err:
            evaluate_along([e], negative, second={"x": num(1)}, second_optional=True)
        assert (str(err.value), err.value.point) == (str(plain.value), plain.value.point)
        # d_x x^(1/2) faults at x = 0, along u = d_y nothing does
        root = parse_expr("x^(1/2)", CHART)
        with pytest.raises(EvalDomainError) as plain:
            evaluate_along([root], zero)
        with pytest.raises(EvalDomainError) as err:
            evaluate_along([root], zero, second={"y": num(1)}, second_optional=True)
        assert (str(err.value), err.value.point) == (str(plain.value), plain.value.point)


def _magnitude(roots, points) -> np.ndarray:
    """Per root and point, the root evaluated with every term of its sums
    and every factor of its products in absolute value, down to the powers,
    calls, numbers and coordinates, whose |value| it takes: a float
    evaluation through those sums and products is off by a few roundings of
    this much at most, however much they cancel.  The bases and arguments of
    the powers and calls are values, which both routes compute alike."""
    nodes, stack = {}, list(roots)
    while stack:
        x = stack.pop()
        if x not in nodes:
            nodes[x] = None
            stack.extend(x.terms if isinstance(x, Add) else x.factors if isinstance(x, Mul)
                         else ())
    leaves = [x for x in nodes if not isinstance(x, (Add, Mul))]
    size = dict(zip(leaves, np.abs(evaluate(leaves, points))))

    def of(x):
        if x not in size:
            parts = [of(t) for t in (x.terms if isinstance(x, Add) else x.factors)]
            size[x] = np.sum(parts, axis=0) if isinstance(x, Add) else np.prod(parts, axis=0)
        return size[x]
    with np.errstate(over="ignore"):
        return np.array([of(r) for r in roots])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.tuples(_BOX, _BOX, _BOX), min_size=1, max_size=6))
@example(seed=1734, coords=[(1.0, 1.5558033942358565e-152, 0.0)])
def test_mixed_channel_matches_symbolic_second_derivatives(seed, coords):
    """The hyper-dual channel: u(e) and u(d_c e) agree with evaluating the
    diff-built first and second derivatives, the values and coordinate
    derivatives equal the call without u bit for bit, and a fault names the
    first point where the symbolic evaluation faults.  The values and
    coordinate derivatives agree to 1e-12 of max(1, |value|) (as in
    test_evaluate_matches_eval_at), u(e) and u(d_c e) to 1e-12 of
    max(1, |value|, :func:`_magnitude` of the diff-built derivative): the two
    routes sum the same product-rule terms in different groupings, so where
    those terms cancel they differ by roundings of the terms, not of the
    result.  At the pinned example, u(d_x e) for e = log(sin(x y)) at
    y = 1.56e-152 is -1.0 (mpmath, 80 digits): both routes cancel terms of
    about 1/y = 6.4e151, the symbolic one exactly, the channel to 2.3e136,
    one rounding of its terms 8/(3y) = 1.7e152."""
    rng = np.random.default_rng(seed)
    exprs = [random_expr(rng, CHART.coords, depth=4),
             pow_(add(num(1), random_expr(rng, CHART.coords, depth=3)), Fraction(1, 2)),
             call("log", add(num(1), random_expr(rng, CHART.coords, depth=3)))]
    u = {c: ZERO if rng.random() < 0.3 else random_expr(rng, CHART.coords, depth=2)
         for c in CHART.coords}
    derivs = [_jet(e) for e in exprs]
    points = columns([dict(zip(CHART.coords, c)) for c in coords])
    try:
        want = evaluate({"v": exprs, "d": derivs, "u": [_along(e, u) for e in exprs],
                         "m": [[_along(x, u) for x in row] for row in derivs]}, points)
    except EvalDomainError as exc:
        with pytest.raises(EvalDomainError) as err:
            evaluate_along(exprs, points, second=u)
        assert err.value.point == exc.point
        return
    got = evaluate_along(exprs, points, second=u)
    plain = evaluate_along(exprs, points)
    assert np.array_equal(got[0], plain[0]) and np.array_equal(got[1], plain[1])
    along = {"u": [_along(e, u) for e in exprs],
             "m": [[_along(x, u) for x in row] for row in derivs]}
    for g, name in zip(got, "vdum"):
        ref = want[name]
        scale = np.abs(ref)
        if name in along:
            roots = np.array(along[name], dtype=object).ravel()
            scale = np.maximum(scale, _magnitude(roots, points).reshape(ref.shape))
        assert np.all(np.abs(g - ref) <= 1e-12 * np.maximum(1.0, scale)), name


def _sympy_of(e, sp, memo):
    if e not in memo:
        if isinstance(e, Num):
            out = sp.Rational(e.value.numerator, e.value.denominator)
        elif isinstance(e, Sym):
            out = sp.Symbol(e.name)
        elif isinstance(e, Add):
            out = sp.Add(*[_sympy_of(t, sp, memo) for t in e.terms])
        elif isinstance(e, Mul):
            out = sp.Mul(*[_sympy_of(f, sp, memo) for f in e.factors])
        elif isinstance(e, Pow):
            out = sp.Pow(_sympy_of(e.base, sp, memo),
                         sp.Rational(e.exponent.numerator, e.exponent.denominator))
        else:
            out = getattr(sp, e.fn)(_sympy_of(e.arg, sp, memo))
        memo[e] = out
    return memo[e]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.tuples(_BOX, _BOX, _BOX), min_size=1, max_size=4))
def test_differential_against_sympy(seed, coords):
    """diff, evaluate, evaluate_along and its u- and mixed channels against
    SymPy's derivatives, evaluated at 30 digits, on random smooth expressions."""
    sp = pytest.importorskip("sympy")
    rng = np.random.default_rng(seed)
    e = random_expr(rng, CHART.coords, depth=4)
    u = {c: random_expr(rng, CHART.coords, depth=2) for c in CHART.coords}
    memo: dict = {}
    syms = [sp.Symbol(c) for c in CHART.coords]

    def along(f, vec):
        return sum(_sympy_of(vec[c], sp, memo) * sp.diff(f, s) for c, s in zip(CHART.coords, syms))

    f = _sympy_of(e, sp, memo)
    jet = [sp.diff(f, s) for s in syms]
    refs = [f, jet[0], *jet, along(f, u), *[along(g, u) for g in jet]]
    points = columns([dict(zip(CHART.coords, c)) for c in coords])
    try:
        vals, ders, uders, mixed = evaluate_along([e, diff(e, "x")], points, second=u)
        plain = evaluate([e, diff(e, "x")], points)
    except EvalDomainError:
        return
    got = [vals[0], vals[1], *ders[0], uders[0], *mixed[0]]
    assert np.array_equal(plain, vals)
    for k in range(len(coords)):
        at = {s: sp.Float(float(points[c][k]), 30) for c, s in zip(CHART.coords, syms)}
        for g, ref in zip(got, refs):
            want = complex(ref.evalf(30, subs=at))
            assert want.imag == 0.0
            assert abs(g[k] - want.real) <= 1e-10 * max(1.0, abs(want.real))


# -- compiled programs ----------------------------------------------------------

def _rows(channel: dict, width: int) -> np.ndarray:
    """A dict of grouped results back in the flat order of the roots."""
    return np.concatenate([a.reshape((-1,) + a.shape[a.ndim - width:])
                           for a in channel.values()])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_compiled_programs_match_the_interpreter(seed):
    """evaluate and evaluate_along give the values, jet, u and mixed channels
    of the node-by-node interpreter that the compiled programs replaced
    (tests/reference.py) bit for bit, on a first run and again from the
    cache, with roots repeated within a group and shared between groups."""
    rng = np.random.default_rng(seed)
    a, b, c = (random_expr(rng, CHART.coords, depth=4) for _ in range(3))
    groups = {"p": [a, b, a, ZERO], "q": [[b, c], [a, num(1)]]}
    roots = [a, b, a, ZERO, b, c, a, num(1)]
    u = {"x": c, "y": ZERO, "z": random_expr(rng, CHART.coords, depth=2)}
    points = sample_points(CHART, "random", 4, seed=seed)
    basis = dict(zip(CHART.coords, np.repeat(np.eye(3)[:, :, None], 4, axis=2)))
    assert expression._schedule(roots)[0] == reference.schedule(roots)[0]
    with np.errstate(**expression._FAULTS):
        try:
            useeds = dict(zip(["x", "z"], reference.run_program([u["x"], u["z"]], points, 4)))
            want = reference.run_program(roots, points, 4, basis, 3, useeds)
        except FloatingPointError:
            with pytest.raises(FloatingPointError):
                useeds = dict(zip(["x", "z"],
                                  expression._run_program([u["x"], u["z"]], points, 4)))
                expression._run_program(roots, points, 4, basis, 3, useeds)
            return
    for _ in range(2):
        got = evaluate_along(groups, points, second=u)
        for g, w, width in zip(got, want, (1, 2, 1, 2)):
            assert np.array_equal(_rows(g, width), w)
        assert np.array_equal(_rows(evaluate_along(groups, points)[1], 2), want[1])
        assert np.array_equal(_rows(evaluate(groups, points), 1), want[0])


def test_program_cache_is_bounded(monkeypatch):
    """More distinct root sets than the program cache holds leave it at its
    cap, the oldest evicted first, and an evicted root set is compiled and
    evaluated again."""
    monkeypatch.setattr(expression, "_PROGRAMS", collections.OrderedDict())
    points = {"x": np.array([0.5, 2.0]), "y": np.array([1.0, -3.0])}
    first = add(num(Fraction(1, 7919)), X)
    assert np.array_equal(evaluate([first], points), [points["x"] + 1 / 7919])
    for k in range(expression._PROGRAM_CAP + 1):
        got = evaluate([mul(num(k + 2), X), Y], points)
        assert np.array_equal(got, [(k + 2) * points["x"], points["y"]])
    assert len(expression._PROGRAMS) == expression._PROGRAM_CAP
    assert (first,) not in expression._PROGRAMS
    assert np.array_equal(evaluate([first], points), [points["x"] + 1 / 7919])
    assert (first,) in expression._PROGRAMS
    assert len(expression._PROGRAMS) <= expression._PROGRAM_CAP


def test_program_cache_under_threads(monkeypatch):
    """Threads that compile, share and evict programs of overlapping root sets
    through a small cache all get the single-threaded results, and the cache
    ends within its cap."""
    monkeypatch.setattr(expression, "_PROGRAMS", collections.OrderedDict())
    monkeypatch.setattr(expression, "_PROGRAM_CAP", 3)
    points = sample_points(CHART, "random", 5, seed=3)
    rng = np.random.default_rng(17)
    sets = [[random_expr(rng, CHART.coords, depth=3) for _ in range(3)] for _ in range(8)]
    want = [evaluate_along(roots, points) for roots in sets]
    wrong, start = [], threading.Barrier(6)

    def work(k):
        start.wait(timeout=60)
        for j in range(40):
            i = (k * 5 + j) % len(sets)
            got = evaluate_along(sets[i], points)
            if not all(np.array_equal(g, w) for g, w in zip(got, want[i])):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(expression._PROGRAMS) <= 3


# -- charts, sampling, exclusions ---------------------------------------------

class TestChart:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Chart(["x", "x"])

    def test_needs_two_coordinates(self):
        with pytest.raises(ValueError):
            Chart(["x"])

    def test_signature_length(self):
        with pytest.raises(ValueError):
            Chart(["x", "y"], signature=[1])

    def test_function_name_collision(self):
        with pytest.raises(ValueError):
            Chart(["sin", "y"])

    def test_random_sampling_needs_seed(self):
        with pytest.raises(ValueError):
            sample_points(CHART, "random", 5)

    def test_random_sampling_deterministic(self):
        a = sample_points(CHART, "random", 8, seed=5)
        b = sample_points(CHART, "random", 8, seed=5)
        assert list(a) == list(b) == list(CHART.coords)
        assert all(np.array_equal(a[c], b[c]) for c in CHART.coords)

    def test_grid_mode(self):
        pts = sample_points(CHART, "grid", 8)
        assert all(col.dtype == np.float64 and col.shape == (8,) for col in pts.values())
        assert all(CHART.admits(p) for p in rows(pts))

    def test_exclusions_respected(self):
        ex = parse_exclusion("x^2 + y^2 < 0.25", CHART)
        chart = Chart(["x", "y", "z"], exclusions=(ex,))
        pts = sample_points(chart, "random", 30, seed=9)
        assert np.all(pts["x"] ** 2 + pts["y"] ** 2 >= 0.25)

    @staticmethod
    def _one_draw_per_row(chart, mode, count, seed=None):
        """The sampler as one draw per row, each tested by the exclusions in
        turn until one removes it."""
        los = [chart.domain[c][0] for c in chart.coords]
        his = [chart.domain[c][1] for c in chart.coords]
        if mode == "random":
            rng = np.random.default_rng(seed)
            draws = (rng.uniform(los, his) for _ in range(1000 * count))
        else:
            m = max(2, math.ceil(count ** (1.0 / chart.n)))
            axes = [np.linspace(lo, hi, m) for lo, hi in zip(los, his)]
            draws = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, chart.n)
        points = []
        for row in draws:
            p = chart.point(row)
            if not any(ex.compare(eval_at(ex.expr, p)) for ex in chart.exclusions):
                points.append(p)
            if len(points) == count:
                break
        return points

    @pytest.mark.parametrize("mode, exclusions, count", [
        ("random", ["x^2 + y^2 < 0.5", "x < -0.5"], 40),
        ("random", ["x < 0.5", "log(x - 0.5) > -1"], 25),
        ("grid", ["x^2 + y^2 < 0.5"], 30),
        ("grid", ["x + y + z > 2.5"], 1000)])
    def test_columns_equal_one_draw_per_row(self, mode, exclusions, count):
        chart = Chart(["x", "y", "z"])
        chart = Chart(chart.coords, exclusions=[parse_exclusion(t, chart) for t in exclusions])
        got = sample_points(chart, mode, count, seed=13)
        assert list(got) == list(chart.coords)
        assert rows(got) == self._one_draw_per_row(chart, mode, count, seed=13)

    def test_fault_and_draw_cap_as_one_draw_per_row(self):
        chart = Chart(["x", "y", "z"])
        faulty = Chart(chart.coords, exclusions=[parse_exclusion("x < -0.5", chart),
                                                 parse_exclusion("log(x) > 0", chart)])
        with pytest.raises(EvalDomainError) as got:
            sample_points(faulty, "random", 50, seed=3)
        with pytest.raises(EvalDomainError) as want:
            self._one_draw_per_row(faulty, "random", 50, seed=3)
        # the same first faulting row; the batch also names its point
        assert str(got.value) == f"{want.value} at point {got.value.point}"
        assert got.value.point["x"] == float(str(want.value).rsplit(" ", 1)[1])
        # a box the exclusion covers but for a sliver: the cap of 1000 draws
        # per point runs out before 5 points are found
        sliver = Chart(chart.coords, exclusions=[parse_exclusion("x < 0.9999", chart)])
        with pytest.raises(ExprError, match="reject too much"):
            sample_points(sliver, "random", 5, seed=3)
        assert len(self._one_draw_per_row(sliver, "random", 5, seed=3)) < 5

    def test_exclusion_requires_constant_bound(self):
        with pytest.raises(ValueError):
            parse_exclusion("x < y", CHART)


class TestSeededStream:
    """``random`` sampling's in-module generator is numpy's
    ``default_rng(seed).uniform``, bit for bit; numpy.random is the oracle."""

    LOS = np.array([0.4, -0.6, -1.0, 0.0, -3.0, 1e-3])
    HIS = np.array([1.6, 0.6, 1.0, 1e-9, 250.0, 2e-3])

    def _assert_batches_equal(self, seed, n, rows):
        ours, oracle = expression._PCG64(seed), np.random.default_rng(seed)
        for k in rows:
            got = ours.uniform(self.LOS[:n], self.HIS[:n], size=(k, n))
            want = oracle.uniform(self.LOS[:n], self.HIS[:n], size=(k, n))
            assert np.array_equal(got, want), (seed, n, k)

    @pytest.mark.parametrize("seed", [
        0, 1, 2**32 - 1, 2**32,          # one word, two words of entropy
        2**64 + 5, 2**200 + 3, 10**300])  # more than the pool's four words
    def test_batches_equal_default_rng(self, seed):
        """Consecutive batches on one generator, as the rejection loop draws
        them, with sizes on both sides of the jump-ahead block."""
        lanes = expression._LANES
        for n in range(1, 7):
            block = lanes // n
            self._assert_batches_equal(seed, n, [1, block - 1, block, block + 1, 2, 3 * block + 7])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 6),
           st.lists(st.integers(1, 3000), min_size=1, max_size=4))
    def test_random_seeds_equal_default_rng(self, seed, n, rows):
        self._assert_batches_equal(seed, n, rows)

    def test_threads_growing_the_jump_table_draw_the_same_streams(self):
        """The jump-ahead table is grown on use and shared by the process:
        threads that grow it at once each draw numpy's stream, and the table
        they leave holds the same columns as one grown by a single thread."""
        cases = [(seed, 1 + 97 * seed ** 2, 1 + seed % 6) for seed in range(8)]
        want = {seed: np.random.default_rng(seed).uniform(self.LOS[:n], self.HIS[:n], size=(k, n))
                for seed, k, n in cases}
        wrong, start = [], threading.Barrier(len(cases))

        def draw(seed, k, n):
            start.wait(timeout=60)
            got = expression._PCG64(seed).uniform(self.LOS[:n], self.HIS[:n], size=(k, n))
            if not np.array_equal(got, want[seed]):
                wrong.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                expression._JUMPS = expression._JUMPS[:, :1].copy()
                threads = [threading.Thread(target=draw, args=case) for case in cases]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                shared = expression._JUMPS
                expression._JUMPS = shared[:, :1].copy()
                expression._lcg_states(0, 0, shared.shape[1])
                assert np.array_equal(shared, expression._JUMPS[:, :shared.shape[1]])
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_points(CHART, "random", 5, seed=-1)
