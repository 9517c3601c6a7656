"""Brute-force ground truth at desk scale.

Grid scans, sphere sampling, and sampled convex-hull membership.  These are
one-sided evidence used to validate checker verdicts; they never certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, model

SPHERE_SLACK = 1e-6  # a unit z is feasible when every z^T M z is at most this
MEMBERSHIP_TOL = 1e-2  # sup-norm distance from the sampled hull read as in


@dataclass(frozen=True)
class CompareReport:
    opt_grid: float
    opt_sdp: float
    gap: float
    exactness_flag: bool
    argmin: np.ndarray | None


def _feasibility_slack(inst, resolution: float) -> float:
    n = inst.n
    curv = np.max(np.linalg.norm(inst.forms[1:, :n, :n], 2, axis=(1, 2)), initial=0.0)
    lin = np.max(np.linalg.norm(inst.forms[1:, :n, n], axis=1), initial=0.0)
    # equality-constrained sets are measure zero; scale the accept band with
    # the grid cell so tight constraints keep representatives
    return max(1e-8, curv * n * resolution**2 * 4.0 + 2.0 * resolution * lin)


def _axes(box, resolution: float):
    return [np.arange(lo, hi + resolution / 2, resolution) for lo, hi in box]


_SLAB_POINTS = 1 << 18  # grid points evaluated at once: 2 MiB per float array


def grid_opt(inst, box):
    """Exhaustive scan of a box at resolution 0.01; returns (approx min,
    argmin or None), the argmin being the first minimiser in C order.

    The grid is an open mesh, never stored as points, evaluated in slabs of
    at most _SLAB_POINTS points along the first axis, so memory stays
    bounded: [-2, 2]^2 (401^2 points) is one slab, [-2, 2]^3 is 401.
    """
    if inst.n > 3:
        raise ValueError("grid oracle limited to n <= 3")
    axes = _axes(box, 0.01)
    slack = _feasibility_slack(inst, 0.01)
    rows = max(1, _SLAB_POINTS // int(np.prod([a.size for a in axes[1:]])))
    best, arg = np.inf, None
    for lo in range(0, axes[0].size, rows):
        slab = [axes[0][lo:lo + rows], *axes[1:]]
        ok, vals = model.scan(inst, np.ix_(*slab), slack)
        vals = np.where(ok, vals, np.inf)
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[idx] < best:  # strict, so ties keep the earlier slab's point
            best = float(vals[idx])
            arg = np.array([a[i] for a, i in zip(slab, idx)])
    return best, arg


def sphere_min_rank_one(Mset, C, samples: int = 200000, seed: int = 0,
                        stop_at: float | None = None):
    """Approximate min of z^T C z over unit z with z^T M z <= SPHERE_SLACK
    for all M.

    With a finite stop_at, the multi-start polish ends before any start after
    the first once the best feasible value is at most stop_at.  Later starts
    can only lower the value, v_full <= v_early <= stop_at, so whether the
    value exceeds stop_at reads the same as after the full polish.
    """
    import scipy.optimize

    Mlist = [linalg.sym(M) for M in Mset]
    C = linalg.sym(C)
    d = C.shape[0]
    if d > 5:
        raise ValueError("sphere oracle limited to dimension <= 5")
    z = np.random.default_rng(seed).standard_normal((samples, d))
    nrm = np.linalg.norm(z, axis=1)
    z = z[nrm > 1e-9] / nrm[nrm > 1e-9][:, None]
    viol = np.zeros(z.shape[0])
    for M in Mlist:
        viol = np.maximum(viol, linalg.form_values(M, z.T))
    all_vals = linalg.form_values(C, z.T)

    best_val = np.inf
    best_vec = None
    strict = viol <= SPHERE_SLACK
    if np.any(strict):
        k = int(np.argmin(np.where(strict, all_vals, np.inf)))
        best_val = float(all_vals[k])
        best_vec = z[k]

    # Multi-start polish.  The feasible set can be thin (e.g. the kernel of a
    # PSD combination of the constraints), so strict samples alone may miss
    # it entirely; SLSQP from mildly infeasible low-objective candidates
    # recovers those regions.  Every function comes with its exact gradient;
    # the constraints -v^T M v / max(1e-12, v^T v) form one vector function
    # over the stacked members.
    cons = []
    if Mlist:
        Ms = np.stack(Mlist)

        def ineq(v):
            return -(Ms @ v) @ v / max(1e-12, v @ v)

        def ineq_jac(v):
            Mv = Ms @ v
            nn = v @ v
            if nn <= 1e-12:
                return -2.0 * Mv / 1e-12
            return (2.0 / nn**2) * np.outer(Mv @ v, v) - (2.0 / nn) * Mv

        cons.append({"type": "ineq", "fun": ineq, "jac": ineq_jac})
    cons.append({"type": "eq", "fun": lambda v: float(v @ v) - 1.0,
                 "jac": lambda v: 2.0 * v})
    loose = viol <= 1e-2 * max(1.0, float(np.max(np.abs(all_vals))))
    order = np.argsort(np.where(loose, all_vals, np.inf))
    starts = [z[j] for j in order[: min(8, int(np.sum(loose)))]]
    if best_vec is not None and not any(np.allclose(best_vec, s) for s in starts):
        starts.append(best_vec)
    # generic fallback starts so an empty candidate list still gets polished
    starts.extend(np.linalg.eigh(C)[1].T)
    if stop_at is None or not np.isfinite(stop_at):
        stop_at = -np.inf  # no value is at most -inf: polish every start
    for i, s in enumerate(starts):
        if i and best_val <= stop_at:
            break
        res = scipy.optimize.minimize(lambda v: float(v @ C @ v), s,
                                      jac=lambda v: 2.0 * C @ v,
                                      constraints=cons, method="SLSQP",
                                      options={"maxiter": 200, "ftol": 1e-12})
        if not res.success:
            continue
        nrm = float(np.linalg.norm(res.x))
        if nrm < 1e-9:
            continue
        v = res.x / nrm
        if all(linalg.form_values(M, v) <= SPHERE_SLACK for M in Mlist):
            cand = float(linalg.form_values(C, v))
            if cand < best_val:
                best_val = cand
                best_vec = v
    if best_vec is None:
        return np.inf, None
    return best_val, best_vec


def _combination_miss(G, target) -> float:
    """Sup-norm miss of one checked combination of the columns of G (the
    sample points, then the vertical ray), or inf when none is found.

    Solves the nonnegative least-squares system [G; w 1^T, 0] lam ~
    [target; w] (Lawson-Hanson), whose last row asks for the point weights
    to sum to 1, with w = max(1, max|G|).  The point weights are then
    scaled to sum 1 and the combination is evaluated, so the miss bounds
    the hull LP's optimum whatever the least-squares residual was.
    """
    import scipy.optimize

    w = max(1.0, float(np.abs(G).max()))
    sum_row = np.full(G.shape[1], w)
    sum_row[-1] = 0.0
    try:
        lam, _ = scipy.optimize.nnls(np.vstack([G, sum_row]),
                                     np.append(target, w))
    except RuntimeError:
        return np.inf
    total = lam[:-1].sum()
    if total <= 0.0:
        return np.inf
    lam[:-1] /= total
    return float(np.abs(G @ lam - target).max())


def conv_membership_sample(inst, x, t, n_samples: int = 2000):
    """One-sided sampled membership of (x, t) in the convex epigraph hull.

    Collects feasible sample points (x_k, q_obj(x_k)) from the box
    [-r, r]^n, r = max(2, 2 ||x||): the 41^n grid of step r/20 plus
    n_samples uniform points (seed 0).  Answers "LIKELY_IN" when the
    sup-norm distance of (x, t) from their convex hull plus the vertical
    recession direction is at most MEMBERSHIP_TOL, else "NOT_SHOWN".

    The distance is first bounded by one evaluated combination of the
    points (`_combination_miss`); the LP for the smallest deviation is
    solved only when that combination misses by more than MEMBERSHIP_TOL.
    Raises ValueError unless x has n finite entries and t is finite.
    """
    import scipy.optimize

    if inst.n > 3:
        raise ValueError("membership oracle limited to n <= 3")
    x = np.asarray(x, dtype=float).reshape(-1)
    t = float(t)
    if x.size != inst.n or not np.all(np.isfinite(x)) or not np.isfinite(t):
        raise ValueError(
            f"membership needs x with {inst.n} finite entries and a finite t")
    r = max(2.0, 2.0 * float(np.linalg.norm(x)))
    step = r / 20.0
    rng = np.random.default_rng(0)
    fill = -r + 2.0 * r * rng.random((n_samples, inst.n))
    grids = np.meshgrid(*_axes([(-r, r)] * inst.n, step), indexing="ij")
    pts = np.vstack([np.stack([g.reshape(-1) for g in grids], axis=1), fill])
    ok, vals = model.scan(inst, pts.T, _feasibility_slack(inst, step))
    if not np.any(ok):
        return "NOT_SHOWN"
    N = int(ok.sum())
    G = np.zeros((inst.n + 1, N + 1))  # columns: (x_k, q_obj(x_k)), then e_t
    G[:-1, :N] = pts[ok].T
    G[-1, :N] = vals[ok]
    G[-1, N] = 1.0
    target = np.append(x, t)
    if _combination_miss(G, target) <= MEMBERSHIP_TOL:
        return "LIKELY_IN"
    # variables: weights lambda (N, sum 1) and mu (ray), then deviation d,
    # all >= 0; |G [lambda; mu] - target| <= d componentwise
    ones = np.ones((inst.n + 1, 1))
    c = np.zeros(N + 2)
    c[-1] = 1.0
    A_eq = np.zeros((1, N + 2))
    A_eq[0, :N] = 1.0
    res_lp = scipy.optimize.linprog(
        c, A_ub=np.block([[G, -ones], [-G, -ones]]),
        b_ub=np.concatenate([target, -target]), A_eq=A_eq, b_eq=[1.0],
        bounds=(0, None), method="highs")
    if res_lp.status == 0 and res_lp.fun <= MEMBERSHIP_TOL:
        return "LIKELY_IN"
    return "NOT_SHOWN"


def compare_opt(inst, opt_sdp: float) -> CompareReport:
    """Grid value over the box [-2, 2]^n vs the relaxation value opt_sdp
    (from solver.solve_opt_sdp), with an exactness flag."""
    opt_grid, arg = grid_opt(inst, [(-2.0, 2.0)] * inst.n)
    if np.isinf(opt_grid):
        gap = np.inf
        flag = False
    else:
        gap = opt_grid - opt_sdp
        flag = abs(gap) <= 1e-2 * max(1.0, abs(opt_grid))
    return CompareReport(opt_grid=opt_grid, opt_sdp=opt_sdp, gap=gap,
                         exactness_flag=flag, argmin=arg)
