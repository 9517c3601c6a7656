"""Shared fixtures and instance builders for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from sdpexact import model

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def q(A, b, c):
    return model.QuadraticForm(np.asarray(A, dtype=float),
                               np.asarray(b, dtype=float), float(c))


def make_explicit_instance():
    """Norm objective, two concentric-hyperbola constraints; optimum 2 at the
    four corners (+-1, +-1)."""
    return model.QcqpInstance(
        2, q(np.eye(2), [0, 0], 0),
        (q(np.diag([-2.0, 1.0]), [0, 0], 1.0),
         q(np.diag([1.0, -2.0]), [0, 0], 1.0)))


def make_gtrs(seed):
    """Random diagonal objective over the unit ball (n = 2)."""
    rng = np.random.default_rng(seed)
    A = np.diag(rng.uniform(-1.0, 1.0, size=2))
    b = rng.uniform(-0.5, 0.5, size=2)
    return model.QcqpInstance(
        2, q(A, b, 0.0), (q(np.eye(2), [0, 0], -1.0),))


def make_separation_instance():
    """Norm objective with two diagonal constraints whose slice is hull-exact
    but whose constraint pair is not rank-one generated."""
    return model.QcqpInstance(
        2, q(np.eye(2), [0, 0], 0),
        (q(np.diag([-1.0, 1.0]), [0, 0], -1.0),
         q(np.diag([2.0, -1.0]), [0, 0], -1.0)))


def make_perspective_instance():
    """min x^2 subject to x(1-y) = 0 and y(1-y) = 0."""
    return model.QcqpInstance(
        2, q(np.diag([1.0, 0.0]), [0, 0], 0),
        (),
        (q([[0.0, -0.5], [-0.5, 0.0]], [0.5, 0.0], 0.0),
         q(np.diag([0.0, -1.0]), [0.0, 0.5], 0.0)))


def make_lineality_instance():
    """min x1^2 - x2^2 over the unit disc and the line x1 + x2 = 1/2.  The
    equality's quadratic term is zero, so its multiplier spans a line of
    the multiplier cone: the cone has a lineality space."""
    return model.QcqpInstance(
        2, q(np.diag([1.0, -1.0]), [0, 0], 0),
        (q(np.eye(2), [0, 0], -1.0),),
        (q(np.zeros((2, 2)), [0.5, 0.5], -0.5),))


def diag_family(seed, count, n, extra):
    """count random diagonal instances: an objective diag(U(-1, 1)^n) with
    b ~ U(-0.5, 0.5)^n, the unit ball, then `extra` constraints diag(U(-1, 1)^n)
    with b ~ U(-0.5, 0.5)^n and c ~ U(-1, 0.2), drawn in that order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        obj = q(np.diag(rng.uniform(-1.0, 1.0, n)), rng.uniform(-0.5, 0.5, n), 0.0)
        cons = [q(np.eye(n), np.zeros(n), -1.0)]
        for _ in range(extra):
            A = np.diag(rng.uniform(-1.0, 1.0, n))
            b = rng.uniform(-0.5, 0.5, n)
            cons.append(q(A, b, rng.uniform(-1.0, 0.2)))
        out.append(model.QcqpInstance(n, obj, tuple(cons)))
    return out


# d2 instances 0-39 (seed 0, n = 2, one further constraint) and d3 instances
# 0-19 (seed 5, n = 3, two)
WEAK_FAMILY = diag_family(0, 40, 2, 1) + diag_family(5, 20, 3, 2)

DIAGONAL_GALLERY = ("centered", "diag_sign_definite", "explicit_sdp",
                    "gtrs_indefinite", "qmp_k2", "rog_vs_ch", "swiss_cheese_2x2",
                    "trs_1d")


def scaled(inst, s):
    """inst with every form multiplied by s."""
    def scale(form):
        return model.QuadraticForm(s * form.A, s * form.b, s * form.c)
    return model.QcqpInstance(inst.n, scale(inst.objective), tuple(map(scale, inst.inequalities)),
                              tuple(map(scale, inst.equalities)))


def random_sym(rng, d):
    G = rng.standard_normal((d, d))
    return 0.5 * (G + G.T)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance scorecard after the run (capture hides it inline)."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.SCORECARD:
        terminalreporter.section("acceptance scorecard")
        for line in test_acceptance.SCORECARD:
            terminalreporter.write_line(line)


@pytest.fixture
def explicit_instance():
    return make_explicit_instance()


@pytest.fixture
def separation_instance():
    return make_separation_instance()


@pytest.fixture
def perspective_instance():
    return make_perspective_instance()
