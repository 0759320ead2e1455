import pytest
from fractions import Fraction

from movingframes.expression import Chart, call, mul, num, pow_, sample_points, sym
from movingframes.frames import Metric, build_coframe, classify_space, curvature_package
from movingframes.submersion import analyze_flow, constraint_residuals

from helpers import columns, rows


def _identity(chart):
    n = chart.n
    return Metric(chart, [[num(1) if i == j else num(0) for j in range(n)]
                          for i in range(n)])


@pytest.fixture(scope="session")
def flat3():
    chart = Chart(["x", "y", "z"])
    return chart, _identity(chart)


@pytest.fixture(scope="session")
def polar3():
    chart = Chart(["r", "phi", "z"],
                  domain={"r": (0.5, 2.0), "phi": (0.1, 1.3), "z": (-1.0, 1.0)})
    r = sym("r")
    metric = Metric(chart, [[num(1), num(0), num(0)],
                            [num(0), r ** 2, num(0)],
                            [num(0), num(0), num(1)]])
    return chart, metric


def _sphere(a):
    chart = Chart(["phi", "psi"], domain={"phi": (0.3, 2.8), "psi": (0.1, 6.1)})
    phi = sym("phi")
    metric = Metric(chart, [[num(a * a), num(0)],
                            [num(0), mul(num(a * a), call("sin", phi) ** 2)]])
    return chart, metric


@pytest.fixture(scope="session")
def sphere1():
    return _sphere(1)


@pytest.fixture(scope="session")
def sphere2():
    return _sphere(2)


@pytest.fixture(scope="session")
def hyperbolic3():
    chart = Chart(["x", "y", "z"],
                  domain={"x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (0.5, 2.0)})
    w = pow_(sym("z"), -2)
    metric = Metric(chart, [[w, num(0), num(0)],
                            [num(0), w, num(0)],
                            [num(0), num(0), w]])
    return chart, metric


@pytest.fixture(scope="session")
def conformal4():
    chart = Chart(["x", "y", "z", "w"])
    # g = e^{2f} delta with f = 0.3 x + 0.1 y^2
    factor = call("exp", mul(num(Fraction(3, 5)), sym("x"))
                  + mul(num(Fraction(1, 5)), sym("y") ** 2))
    metric = Metric(chart, [[factor if i == j else num(0) for j in range(4)]
                            for i in range(4)])
    return chart, metric


def _frame_bundle(chart, metric, seed, count=40):
    points = sample_points(chart, "random", count, seed=seed)
    fd = curvature_package(build_coframe(metric, samples=points))
    return {"chart": chart, "metric": metric, "points": points, "frame": fd,
            "classification": classify_space(fd, fd.curvature_values(points))}


@pytest.fixture(scope="session")
def flat3_frame(flat3):
    return _frame_bundle(*flat3, seed=101)


@pytest.fixture(scope="session")
def polar3_frame(polar3):
    return _frame_bundle(*polar3, seed=102)


@pytest.fixture(scope="session")
def sphere1_frame(sphere1):
    return _frame_bundle(*sphere1, seed=103)


@pytest.fixture(scope="session")
def sphere2_frame(sphere2):
    return _frame_bundle(*sphere2, seed=104)


@pytest.fixture(scope="session")
def hyperbolic3_frame(hyperbolic3):
    return _frame_bundle(*hyperbolic3, seed=105)


@pytest.fixture(scope="session")
def conformal4_frame(conformal4):
    return _frame_bundle(*conformal4, seed=106, count=15)


@pytest.fixture(scope="session")
def screw():
    """Screw flow V = (-y, x, 1) in flat R^3, fully analysed."""
    chart = Chart(["x", "y", "z"],
                  domain={"x": (0.4, 2.2), "y": (-0.6, 0.6), "z": (-1.0, 1.0)})
    metric = _identity(chart)
    base = {"x": 1.0, "y": 0.0, "z": 0.0}
    far = {"x": 2.0, "y": 0.0, "z": 0.0}
    points = columns([base, far] + rows(sample_points(chart, "random", 20, seed=11)))
    y = sym("y")
    x = sym("x")
    flow = [-y, x, num(1)]
    flow_data = analyze_flow(metric, flow, points)
    fd = curvature_package(build_coframe(metric, samples=points))
    return {
        "chart": chart, "metric": metric, "points": points,
        "basepoint": base, "far": far, "flow": flow,
        "flow_data": flow_data, "frame": fd,
        "constraints": constraint_residuals(flow_data, fd, None),
        "classification": classify_space(fd, fd.curvature_values(points)),
    }
