"""Minimization of a ratio of quadratic forms over an LMI-cut domain.

The ratio problem min z^T M_obj z / z^T B z over feasible z with positive
denominator re-homogenizes to an SDP with the normalization <B, Z> = 1.
Equality of the chain is guaranteed when the slice is rank-one generated and
a bounded dual certificate exists; both hypotheses are checked, never
assumed, and failures downgrade the claim to a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import linalg, rog, solver


@dataclass(frozen=True)
class RatioProblem:
    M_obj: np.ndarray
    B: np.ndarray
    mset: rog.LmiSet

    def __post_init__(self):
        object.__setattr__(self, "M_obj", linalg.sym(self.M_obj))
        object.__setattr__(self, "B", linalg.sym(self.B))
        if self.mset.matrices and self.mset.dim != self.M_obj.shape[0]:
            raise ValueError("dimension mismatch")

    @property
    def dim(self) -> int:
        return self.M_obj.shape[0]


def _dual_certificate(p: RatioProblem, tol: float = 1e-7, bound: float = 1e6):
    """Search for theta >= 0, lambda with M_obj + sum theta_j M_j + lambda B PSD."""
    mats = list(p.mset.expanded())
    k = len(mats)

    def neg_lmin(v):
        M = p.M_obj + v[k] * p.B
        for th, Mj in zip(v[:k], mats):
            M = M + th * Mj
        return -float(np.linalg.eigvalsh(M)[0])

    x0 = np.zeros(k + 1)
    if neg_lmin(x0) <= tol:
        return {"found": True, "theta": np.zeros(k), "lam": 0.0,
                "lambda_min": -neg_lmin(x0)}
    bounds = [(0.0, bound)] * k + [(-bound, bound)]
    best = None
    for start in ([np.zeros(k + 1)] +
                  [np.concatenate([np.ones(k), [s]]) for s in (-1.0, 1.0)]):
        res = scipy.optimize.minimize(neg_lmin, start, bounds=bounds,
                                      method="Nelder-Mead",
                                      options={"maxiter": 2000, "xatol": 1e-10,
                                               "fatol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res
    if best is not None and best.fun <= tol:
        return {"found": True, "theta": best.x[:k], "lam": float(best.x[k]),
                "lambda_min": -float(best.fun)}
    return {"found": False, "lambda_min": (-float(best.fun)) if best is not None else None}


def solve_ratio(p: RatioProblem, eps: float = 1e-8, max_iter: int = 400000) -> dict:
    """Solve the normalized SDP and report the hypothesis checks.

    Returns {value, z, Z, hypotheses, claim} where claim is EXACT when the
    rank-one recovery and both checkable hypotheses succeed, else
    LOWER_BOUND_ONLY.
    """
    cons = [solver.Constraint(M, s, 0.0)
            for M, s in zip(p.mset.matrices, p.mset.senses)]
    cons.append(solver.Constraint(p.B, "EQ", 1.0))
    prog = solver.ConicProgram(dim=p.dim, objective_matrix=p.M_obj,
                               constraints=tuple(cons))
    sol = solver.solve(prog, eps=eps, max_iter=max_iter)
    rv = rog.check_set(p.mset)
    hyp = {
        "rog": {"status": rv.status, "certificate": rv.certificate},
        "dual": _dual_certificate(p),
    }
    out = {"value": sol.objective_value, "Z": sol.Z, "solution": sol,
           "hypotheses": hyp, "z": None, "sigma_ratio": None,
           "claim": "LOWER_BOUND_ONLY"}
    spec = linalg.eig_sym(sol.Z)
    w = spec.eigenvalues[::-1]
    if w[0] > 0:
        ratio = float(w[1] / w[0]) if len(w) > 1 else 0.0
        out["sigma_ratio"] = ratio
        if ratio <= 1e-5:
            z = np.sqrt(max(w[0], 0.0)) * spec.eigenvectors[:, -1]
            if abs(z[-1]) > 1e-7:
                z = z / z[-1]
            out["z"] = z
    hyp_ok = hyp["rog"]["status"] in ("ROG_CERTIFIED", "ROG_BY_SUFFICIENT_RULE") \
        and hyp["dual"]["found"]
    if hyp_ok and out["z"] is not None and sol.status == solver.SolveStatus.OPTIMAL:
        out["claim"] = "EXACT"
    return out


def build_rtls(data_rows, rhs, radius: float) -> RatioProblem:
    """Regularized total-least-squares ratio over a centered ball.

    min ||A x - b||^2 / (||x||^2 + 1)  subject to  ||x||^2 <= radius^2.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    A = np.asarray(data_rows, dtype=float)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    if A.shape[0] != b.shape[0]:
        raise ValueError("row count mismatch")
    q = A.shape[1]
    M_obj = np.zeros((q + 1, q + 1))
    M_obj[:q, :q] = A.T @ A
    M_obj[:q, q] = -A.T @ b
    M_obj[q, :q] = -A.T @ b
    M_obj[q, q] = float(b @ b)
    B = np.eye(q + 1)
    ball = np.diag(np.concatenate([np.ones(q), [-radius**2]]))
    mset = rog.LmiSet((ball,), ("LE",))
    return RatioProblem(M_obj=M_obj, B=B, mset=mset)


def rtls_grid_value(data_rows, rhs, radius: float, resolution: float = 0.01) -> float:
    """Brute-force ratio value over the ball (dimension <= 2)."""
    A = np.asarray(data_rows, dtype=float)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    q = A.shape[1]
    if q > 2:
        raise ValueError("grid limited to 2 variables")
    axes = [np.arange(-radius, radius + resolution / 2, resolution) for _ in range(q)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    pts = pts[np.sum(pts**2, axis=1) <= radius**2 + 1e-12]
    resid = pts @ A.T - b
    num = np.sum(resid**2, axis=1)
    den = np.sum(pts**2, axis=1) + 1.0
    return float(np.min(num / den))
