"""Parser, differentiation, simplification and evaluation."""

import math
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
from movingframes.submersion import analyze_flow, constraint_residuals, directional

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
                constraint_residuals(fl, fd)
                run_herglotz(fl, cls, {c: float(v[0]) for c, v in pts.items()})
                held += [fl.adapted.norm2, fl.adapted.u, fl.m, fl.k]
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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.tuples(_BOX, _BOX, _BOX), min_size=1, max_size=6))
def test_mixed_channel_matches_symbolic_second_derivatives(seed, coords):
    """The hyper-dual channel: u(e) and u(d_c e) agree with evaluating the
    diff-built first and second derivatives (to 1e-12 relative, as in
    test_evaluate_matches_eval_at), the values and coordinate derivatives
    equal the call without u bit for bit, and a fault names the first point
    where the symbolic evaluation faults."""
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
    for g, name in zip(got, "vdum"):
        ref = want[name]
        assert np.all(np.abs(g - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), name


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
