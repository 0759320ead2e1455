"""Parser, differentiation, simplification and evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from movingframes.expression import (ZERO, Add, Call, Chart, EvalDomainError, Mul,
                                     Num, ParseError, Pow, Sym,
                                     UnboundCoordinateError,
                                     UndeclaredSymbolError, ExprError, _fold_num_pow, add,
                                     call, diff,
                                     eval_at, evaluate, evaluate_along, mul, num,
                                     parse_exclusion, parse_expr, pow_,
                                     sample_points, simplify, sup_abs, sym,
                                     to_string)

from movingframes.frames import curvature_package
from movingframes.submersion import directional

from helpers import columns, random_expr, random_point, rows

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
        riemann = curvature_package(screw["flow_data"].adapted.coframe).riemann
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
    assert simplify(s) is s
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
        assert sup_abs([e, Y], self.COLUMNS) == np.max(np.abs(out["a"]))

    def test_no_points_and_unbound(self):
        assert evaluate([X, Y], {"x": np.empty(0), "y": np.empty(0)}).shape == (2, 0)
        assert sup_abs([], self.COLUMNS) == 0.0
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

class TestEvaluateAlong:
    COLUMNS = TestEvaluate.COLUMNS

    def test_matches_the_symbolic_derivative(self):
        e = parse_expr("sin(x)*y^2 + exp(z)/y - sqrt(tan(x*z)^2 + 1) + log(2 + x^2)", CHART)
        vector = {"x": parse_expr("y*z", CHART), "y": num(2), "z": ZERO}
        vals, ders = evaluate_along([[e, X], [num(3), Y]], vector, self.COLUMNS)
        want = evaluate([[directional(e, [vector[c] for c in CHART.coords], CHART),
                          vector["x"]], [ZERO, num(2)]], self.COLUMNS)
        assert vals.shape == ders.shape == (2, 2, 2)
        assert np.array_equal(vals, evaluate([[e, X], [num(3), Y]], self.COLUMNS))
        assert np.allclose(ders, want, rtol=1e-12, atol=1e-12)

    def test_groups_and_a_zero_vector(self):
        e = parse_expr("x*y*z", CHART)
        vals, ders = evaluate_along({"a": [e], "b": e}, {"x": ZERO}, self.COLUMNS)
        assert vals["a"].shape == (1, 2) and ders["b"].shape == (2,)
        assert not ders["a"].any() and not ders["b"].any()

    def test_product_rule_needs_no_division(self):
        # d(x*y*z)/dx at x = 0 is y*z: no value is divided out of the product
        e = parse_expr("x*y*z", CHART)
        _, ders = evaluate_along([e], {"x": num(1)}, {"x": [0.0], "y": [2.0], "z": [3.0]})
        assert ders[0, 0] == 6.0

    def test_fault_names_first_point(self):
        # sqrt(x) has a finite value at 0 but its derivative x^(-1/2)/2 does not
        e = parse_expr("sqrt(x) + y", CHART)
        good, bad = {"x": 1.0, "y": 0.0, "z": 0.0}, {"x": 0.0, "y": 0.0, "z": 0.0}
        assert np.array_equal(evaluate([e], columns([bad])), [[0.0]])
        _, ders = evaluate_along([e], {"y": num(1)}, columns([good, bad]))
        assert list(ders[0]) == [1.0, 1.0]
        with pytest.raises(EvalDomainError) as err:
            evaluate_along([e], {"x": num(1)}, columns([good, bad, dict(bad, z=1.0)]))
        assert err.value.point == bad


_BOX = st.floats(-2.0, 2.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.tuples(_BOX, _BOX, _BOX), min_size=1, max_size=6))
def test_evaluate_along_matches_symbolic_directional(seed, coords):
    """Forward mode agrees with evaluating the symbolic directional derivative,
    and faults exactly where that evaluation does.

    The faults come from square roots and logarithms of random expressions
    that change sign in the box.  Overflow is left out: where it sets in
    depends on how the symbolic derivative groups factors (y*y^2 is folded
    to y^3), so near the float limit the two can differ by design.
    """
    rng = np.random.default_rng(seed)
    exprs = [random_expr(rng, CHART.coords, depth=4),
             pow_(add(num(1), random_expr(rng, CHART.coords, depth=3)), Fraction(1, 2)),
             call("log", add(num(1), random_expr(rng, CHART.coords, depth=3)))]
    vector = [ZERO if rng.random() < 0.25 else random_expr(rng, CHART.coords, depth=2)
              for _ in CHART.coords]
    derivs = [directional(e, vector, CHART) for e in exprs]
    points = columns([dict(zip(CHART.coords, c)) for c in coords])
    try:
        want = evaluate({"v": exprs, "d": derivs}, points)
    except EvalDomainError as exc:
        with pytest.raises(EvalDomainError) as err:
            evaluate_along(exprs, dict(zip(CHART.coords, vector)), points)
        assert err.value.point == exc.point
        return
    vals, ders = evaluate_along(exprs, dict(zip(CHART.coords, vector)), points)
    for got, ref in ((vals, want["v"]), (ders, want["d"])):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4),
       st.lists(st.tuples(_BOX, _BOX, _BOX), min_size=1, max_size=6))
def test_evaluate_along_vector_mode(seed, d, coords):
    """d vector fields in one walk: each tangent row equals the one-field call
    and the evaluated symbolic directional derivative, and a fault names the
    first point where that symbolic evaluation faults."""
    rng = np.random.default_rng(seed)
    exprs = [random_expr(rng, CHART.coords, depth=4),
             pow_(add(num(1), random_expr(rng, CHART.coords, depth=3)), Fraction(1, 2))]
    fields = [{c: ZERO if rng.random() < 0.4 else random_expr(rng, CHART.coords, depth=2)
               for c in CHART.coords} for _ in range(d)]
    derivs = [[directional(e, [f[c] for c in CHART.coords], CHART) for f in fields]
              for e in exprs]
    points = columns([dict(zip(CHART.coords, c)) for c in coords])
    try:
        want = evaluate({"v": exprs, "d": derivs}, points)
    except EvalDomainError as exc:
        with pytest.raises(EvalDomainError) as err:
            evaluate_along(exprs, fields, points)
        assert err.value.point == exc.point
        return
    vals, ders = evaluate_along(exprs, fields, points)
    assert ders.shape == (len(exprs), d, len(coords))
    singles = np.stack([evaluate_along(exprs, f, points)[1] for f in fields], axis=1)
    for got, ref in ((vals, want["v"]), (ders, want["d"]), (ders, singles)):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


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
            if not any(ex.excludes(p) for ex in chart.exclusions):
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
