"""QCQP data model.

A quadratic form is the triple (A, b, c) representing
x |-> x^T A x + 2 b^T x + c, together with its (n+1) x (n+1) homogeneous
embedding [[A, b], [b^T, c]].  An instance bundles an objective form with
inequality (<= 0) and equality (= 0) constraint forms, and stacks their
embeddings once, objective first, then inequalities, then equalities
(``QcqpInstance.forms``): the lifted relaxation, the multiplier cone and
the homogenized LMI set all read slices of that one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

FEAS_TOL = 1e-7  # absolute slack on every constraint value


@dataclass(frozen=True)
class QuadraticForm:
    A: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "A", linalg.sym(self.A))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if b.shape[0] != self.A.shape[0]:
            raise ValueError("b length must match A dimension")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def embed(self) -> np.ndarray:
        """Homogeneous (n+1)x(n+1) embedding [[A, b], [b^T, c]]."""
        n = self.n
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = self.A
        M[:n, n] = self.b
        M[n, :n] = self.b
        M[n, n] = self.c
        return M


def eval_form(q: QuadraticForm, x) -> float:
    return float(linalg.form_values(q.embed(), _point(x, q.n)))


def _point(x, n: int, finite: bool = False) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != n or (finite and not np.all(np.isfinite(x))):
        raise ValueError(f"x must have {n} {'finite ' * finite}entries, got {x.tolist()}")
    return x


@dataclass(frozen=True)
class QcqpInstance:
    n: int
    objective: QuadraticForm
    inequalities: tuple = ()
    equalities: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        for q in (self.objective, *self.inequalities, *self.equalities):
            if q.n != self.n:
                raise ValueError("all forms must share dimension n")
        # the (m+1) x (n+1) x (n+1) stack of embeddings, read-only because
        # every relaxation, cone and LMI set of the instance shares it
        forms = np.array([q.embed() for q in (self.objective, *self.constraints)])
        forms.setflags(write=False)
        object.__setattr__(self, "forms", forms)

    @property
    def m_i(self) -> int:
        return len(self.inequalities)

    @property
    def m_e(self) -> int:
        return len(self.equalities)

    @property
    def m(self) -> int:
        return self.m_i + self.m_e

    @property
    def constraints(self) -> tuple:
        # inequality forms first (indices [m_I]), then equalities
        return self.inequalities + self.equalities

    @property
    def senses(self) -> tuple:
        """Sense of each constraint, in the order of ``forms[1:]``."""
        return ("LE",) * self.m_i + ("EQ",) * self.m_e


def aggregate(inst: QcqpInstance, g) -> np.ndarray:
    """Embedded aggregate g_0 F_0 + (g_1 F_1 + ... + g_m F_m) of the stacked
    forms F = ``inst.forms``, for multipliers g = (g_obj, gamma) in R^{m+1}."""
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.shape[0] != inst.m + 1:
        raise ValueError(f"g has length {g.shape[0]}, expected m+1={inst.m + 1}")
    acc = np.zeros_like(inst.forms[0])
    for gi, F in zip(g[1:], inst.forms[1:]):
        acc += gi * F
    return g[0] * inst.forms[0] + acc


def scan(inst: QcqpInstance, xs, slack: float):
    """Feasibility mask and objective values on the coordinate arrays xs.

    xs is an open mesh (np.ix_), the rows of an (n, N) array of point
    columns, or one point (``linalg.form_values``); both results have the
    broadcast shape.  A point is feasible when every inequality form is at
    most `slack` and every equality form is within `slack` of zero.
    """
    vals = linalg.form_values(inst.forms[0], xs)
    ok = np.ones(np.shape(vals), dtype=bool)
    for F in inst.forms[1:1 + inst.m_i]:
        ok &= linalg.form_values(F, xs) <= slack
    for F in inst.forms[1 + inst.m_i:]:
        ok &= np.abs(linalg.form_values(F, xs)) <= slack
    return ok, vals


def is_feasible(inst: QcqpInstance, x) -> bool:
    """Whether x satisfies every constraint within FEAS_TOL; ValueError
    unless x has n finite entries."""
    return bool(scan(inst, _point(x, inst.n, finite=True), FEAS_TOL)[0])


def epigraph_member(inst: QcqpInstance, x, t) -> bool:
    """Whether x is feasible with q_obj(x) <= t + FEAS_TOL; ValueError unless
    x has n finite entries and t is finite."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    ok, val = scan(inst, _point(x, inst.n, finite=True), FEAS_TOL)
    return bool(ok and val <= t + FEAS_TOL)


def congruence_transform(inst: QcqpInstance, P) -> QcqpInstance:
    """Change of variables x = P y: each form (A,b,c) -> (P^T A P, P^T b, c)."""
    P = np.asarray(P, dtype=float)
    if P.shape != (inst.n, inst.n):
        raise ValueError("P must be n x n")
    if np.linalg.matrix_rank(P, tol=1e-10 * max(1.0, np.linalg.norm(P, 2))) < inst.n:
        raise ValueError("P must be invertible")

    def tf(q: QuadraticForm) -> QuadraticForm:
        return QuadraticForm(P.T @ q.A @ P, P.T @ q.b, q.c)

    return QcqpInstance(
        n=inst.n,
        objective=tf(inst.objective),
        inequalities=tuple(tf(q) for q in inst.inequalities),
        equalities=tuple(tf(q) for q in inst.equalities),
    )


def is_diagonal_instance(inst: QcqpInstance) -> bool:
    n = inst.n
    off = inst.forms[:, :n, :n][:, ~np.eye(n, dtype=bool)]
    return bool(np.max(np.abs(off), initial=0.0) <= 1e-12)


# ---------------------------------------------------------------------------
# JSON (de)serialization.
#
# Canonical encoding: keys in fixed order, numbers formatted with 17
# significant digits so round-trips are bit-identical.
# ---------------------------------------------------------------------------


def _num(x: float) -> float:
    return float(format(float(x), ".17g"))


def matrix_to_dict(M) -> dict:
    """Encode a square matrix: "diag" when it has no off-diagonal entry, else "dense"."""
    M = np.asarray(M, dtype=float)
    d = np.diag(M)
    if np.max(np.abs(M - np.diag(d)), initial=0.0) == 0.0:
        return {"kind": "diag", "data": [_num(v) for v in d]}
    return {"kind": "dense", "data": [_num(v) for v in M.reshape(-1)]}


def matrix_from_dict(enc: dict) -> np.ndarray:
    """Inverse of matrix_to_dict.

    Raises ValueError for an unknown kind or a dense payload whose length
    is not a perfect square.
    """
    kind = enc["kind"]
    data = [float(v) for v in enc["data"]]
    if kind == "diag":
        return np.diag(data)
    if kind != "dense":
        raise ValueError(f"unknown matrix kind {kind!r}")
    d = math.isqrt(len(data))
    if d * d != len(data):
        raise ValueError(f"dense matrix data of length {len(data)} is not square")
    return np.array(data).reshape(d, d)


def _form_to_dict(q: QuadraticForm) -> dict:
    return {"A": matrix_to_dict(q.A), "b": [_num(v) for v in q.b], "c": _num(q.c)}


def _form_from_dict(d: dict, n: int) -> QuadraticForm:
    return QuadraticForm(matrix_from_dict(d["A"]), d.get("b", [0.0] * n), d.get("c", 0.0))


def instance_to_dict(inst: QcqpInstance, gamma_generators=None) -> dict:
    out = {
        "n": inst.n,
        "objective": _form_to_dict(inst.objective),
        "inequalities": [_form_to_dict(q) for q in inst.inequalities],
        "equalities": [_form_to_dict(q) for q in inst.equalities],
    }
    if gamma_generators is not None:
        out["gamma_generators"] = [[_num(v) for v in g] for g in gamma_generators]
    return out


def instance_from_dict(d: dict):
    """Parse an instance dict; returns (instance, gamma_generators or None)."""
    n = int(d["n"])
    inst = QcqpInstance(
        n=n,
        objective=_form_from_dict(d["objective"], n),
        inequalities=tuple(_form_from_dict(q, n) for q in d.get("inequalities", [])),
        equalities=tuple(_form_from_dict(q, n) for q in d.get("equalities", [])),
    )
    gens = d.get("gamma_generators")
    if gens is not None:
        gens = [np.asarray([float(v) for v in g]) for g in gens]
    return inst, gens
