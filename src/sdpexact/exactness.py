"""Face-based exactness conditions for the lifted relaxation.

Each check walks the semidefinite faces of the multiplier cone that are
maximal for their shared kernel V(F) (``gamma.build_gamma_data``; a condition
that passes on such a face passes on every face inside it with the same V(F))
and decides a linear-algebraic condition on the slice {gamma : (1, gamma) in
F} and V(F).  Verdicts are HOLDS / FAILS / NOT_APPLICABLE; FAILS carries the
violating multiplier, HOLDS carries per-face witnesses where the condition is
existential.

The strong, weak and Burer-Ye conditions are small polyhedral feasibility
questions.  Each is first put as "is f in cone(columns of E)?" and settled
by one NNLS solve (``_cone_split``) whose answer is checked against the
input either way: an evaluated nonnegative combination, or a Farkas vector
with a stated margin.  The HiGHS LP of the same question is kept as the
arbiter and runs only when neither certificate holds; each report counts
those runs in ``details["lp_calls"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import gamma as gamma_mod
from . import linalg, model, oracles, solver
from .gamma import STRICT_TOL

HIGHS_TOL = 1e-7  # HiGHS's primal feasibility tolerance, which the arbiter LPs run with
HIGHS_SMALL = 1e-9  # HiGHS drops constraint matrix entries of at most this magnitude
ROUND = 64 * np.finfo(float).eps  # rounding allowance, relative to the magnitudes a product adds


@dataclass
class FaceRecord:
    face_id: int
    classification: str
    sub_verdict: str  # "PASS" | "FAIL" | "SKIPPED"
    witness: np.ndarray | None = None
    violating_multiplier: np.ndarray | None = None


@dataclass
class ExactnessReport:
    condition: str
    verdict: str  # "HOLDS" | "FAILS" | "NOT_APPLICABLE"
    face_records: list = field(default_factory=list)
    provenance: str = ""
    details: dict = field(default_factory=dict)


def _nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal nullspace columns of A (SVD, rank cut 1e-10 * max(1, s_0))."""
    _, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 0.0)))
    return Vt[rank:].T


def _linear_terms(inst, x) -> np.ndarray:
    """G(x) = [A_j x + b_j], one column per form, objective first: the
    aggregate of (g_obj, gamma) has the linear term G(x) (g_obj, gamma) at x."""
    n = inst.n
    return (inst.forms[:, :n, :n] @ x + inst.forms[:, :n, n]).T


def _slice_terms(G, B, vertices, rays):
    """Slice linear terms projected onto V(F): B^T G (1, v) per slice vertex
    v and B^T G (0, r) per slice ray r, for G = ``_linear_terms(inst, x)``."""
    P = B.T @ G
    return [P[:, 0] + P[:, 1:] @ v for v in vertices], [P[:, 1:] @ r for r in rays]


def _highs_matrix(A):
    """A as HiGHS solves it: entries of magnitude at most HIGHS_SMALL are
    zero, so the certificates and the arbiter LP decide the same system."""
    return np.where(np.abs(A) > HIGHS_SMALL, A, 0.0)


def _cone_split(E, f):
    """Decide whether f lies in cone(columns of E) by NNLS (Lawson-Hanson).

    Returns (x, y).  x >= 0 is the NNLS combination, for the caller to
    evaluate against its own test (None if NNLS stops at its iteration
    cap).  y is the residual f - E x, recomputed from the input, when it is
    a Farkas vector, and None otherwise.  With S = |f| + |E| x, which bounds
    |y| and every product y enters up to rounding, a Farkas vector has

        E^T y <= ROUND max(|E|^T S) entrywise           (rounding allowance)
        f.y > HIGHS_TOL (||y||_1 + ||E^T y||_1) + ROUND |f|.S     (margin)

    The margin makes y decide the arbiter's LP as HiGHS decides it: a point
    x' that HiGHS accepts has x' >= -HIGHS_TOL and |E x' - f| <= HIGHS_TOL
    entrywise, so f.y = (E^T y).x' + y.(f - E x') is at most
    HIGHS_TOL (||E^T y||_1 + ||y||_1) once the entries of E^T y within the
    allowance read as zero, and no such x' exists.  At the NNLS optimum
    E^T y <= 0 and f.y = ||y||^2 (Karush-Kuhn-Tucker), so y certifies every
    f that lies clearly outside the cone.  Callers pass E as HiGHS solves
    it (``_highs_matrix``).
    """
    try:
        x, _ = scipy.optimize.nnls(E, f)
    except RuntimeError:
        return None, None
    y = f - E @ x
    Ety = E.T @ y
    size = np.abs(f) + np.abs(E) @ x
    if (np.all(Ety <= ROUND * (np.abs(E).T @ size).max())
            and f @ y > HIGHS_TOL * (np.abs(y).sum() + np.abs(Ety).sum())
            + ROUND * (np.abs(f) @ size)):
        return x, y
    return x, None


def _solves(E, x, f) -> bool:
    """E x = f to rounding: no residual entry above ROUND times the largest
    entry of |E| |x| + |f|, the accuracy of a backward-stable solve."""
    return x is not None and bool(
        np.abs(E @ x - f).max() <= ROUND * (np.abs(E) @ np.abs(x) + np.abs(f)).max())


def _face_walk(condition: str, inst, gd: gamma_mod.GammaData, decide) -> ExactnessReport:
    """Bookkeeping shared by the face-based checks, over ``gd.faces``: the
    faces maximal for their V(F), so the verdict is the AND over them.

    NOT_APPLICABLE, with ``gd.reason``, when the face checks do not apply.
    Non-semidefinite faces (only the full support, when Assumption 1 holds)
    are SKIPPED and faces with an empty slice PASS.
    Every other face is handed to decide(B, verts, rays), which sees the
    V(F) basis B and the slice linear terms at x = 0 projected onto it
    (``_slice_terms``) and returns (passed, vector, lp_calls): the vector is
    the face's witness when it passes and its violating multiplier when it
    fails, and lp_calls (summed into ``details["lp_calls"]``) counts the
    arbiter LPs it ran.
    """
    rep = ExactnessReport(condition=condition, verdict="HOLDS", provenance=gd.provenance,
                          details={"lp_calls": 0})
    if gd.reason is not None:
        rep.verdict = "NOT_APPLICABLE"
        rep.details["reason"] = gd.reason
        return rep
    G = _linear_terms(inst, np.zeros(inst.n))
    for face in gd.faces:
        rec = FaceRecord(face.face_id, face.classification, "SKIPPED")
        rep.face_records.append(rec)
        if face.classification != "SEMIDEFINITE":
            continue
        rec.sub_verdict = "PASS"
        if not face.slice_vertices:
            continue
        B = face.vf_basis
        passed, vec, lps = decide(B, *_slice_terms(G, B, face.slice_vertices, face.slice_rays))
        rep.details["lp_calls"] += lps
        if passed:
            rec.witness = vec
        else:
            rec.sub_verdict = "FAIL"
            rec.violating_multiplier = vec
    if any(rec.sub_verdict == "FAIL" for rec in rep.face_records):
        rep.verdict = "FAILS"
    return rep


def _strong_face(B, verts, rays):
    k = B.shape[1]
    nv, nr = len(verts), len(rays)
    T = _highs_matrix(np.array(verts + rays).reshape(nv + nr, k).T)
    E = np.vstack([T, np.repeat([1.0, 0.0], [nv, nr])])
    x, y = _cone_split(E, np.append(np.zeros(k), 1.0))
    if x is not None and x[:nv].sum() > 0.0:
        x = x / x[:nv].sum()
        if np.abs(T @ x).sum() <= STRICT_TOL:
            return False, x, 0
    if y is not None:
        # z = -y[:k] has z.v_j >= y[k] > 0 and z.r_j >= 0.  With t = HIGHS_TOL,
        # a point HiGHS accepts has lambda, mu, s+, s- >= -t, sum(lambda) >= 1 - t
        # and each row of w - s+ + s- = 0 within t, for w = sum lambda_j v_j +
        # sum mu_j r_j, so its objective is at least ||w||_1 - 3 k t, and
        # ||w||_1 >= z.w / ||z||_inf >= (min_j z.v_j (1 - t) - t sum_j |a_j|)
        # / ||z||_inf, where a_j = z.T_j runs over every term
        a = -(y[:k] @ T)
        bound = ((a[:nv].min() * (1.0 - HIGHS_TOL) - HIGHS_TOL * np.abs(a).sum())
                 / np.abs(y[:k]).max() - 3 * k * HIGHS_TOL)
        if bound > STRICT_TOL:
            return True, None, 0
    # arbiter: min ||sum lambda_j v_j + sum mu_j r_j||_1 over the simplex and
    # mu >= 0, with variables lambda (nv), mu (nr), s+ (k), s- (k)
    n_var = nv + nr + 2 * k
    c = np.concatenate([np.zeros(nv + nr), np.ones(2 * k)])
    A_eq = np.zeros((k + 1, n_var))
    b_eq = np.zeros(k + 1)
    A_eq[:k, :nv + nr] = T
    A_eq[:k, nv + nr: nv + nr + k] = -np.eye(k)
    A_eq[:k, nv + nr + k:] = np.eye(k)
    A_eq[k, :nv] = 1.0
    b_eq[k] = 1.0
    res = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=b_eq,
                                 bounds=[(0, None)] * n_var, method="highs")
    if res.status == 0 and res.fun <= STRICT_TOL:
        return False, res.x[:nv + nr], 1
    return True, None, 1


def check_obj_strong(inst, gd: gamma_mod.GammaData) -> ExactnessReport:
    """Zero excluded from the projected slice image on every semidefinite face.

    A face fails when the L1 distance from 0 to conv(slice vertex terms) +
    cone(slice ray terms), projected onto V(F), is at most STRICT_TOL.  One
    NNLS solve of "(0, 1) in cone{(v, 1), (r, 0)}" settles most faces: its
    combination, normalised to weights summing to 1, fails the face when it
    misses 0 by at most STRICT_TOL in L1, and its Farkas vector z passes the
    face when min_j z.v_j / ||z||_inf, less HiGHS's tolerance terms, bounds
    the distance above STRICT_TOL (weak duality for the L1 LP).  Otherwise
    the L1 LP decides as the arbiter; a failing face carries the LP's or the
    combination's (lambda, mu).
    """
    return _face_walk("obj_strong", inst, gd, _strong_face)


def _weak_face(B, verts, rays):
    k = B.shape[1]
    if k == 0:
        return False, None, 0
    R = np.array(verts + rays)
    null = _nullspace(R)
    if null.shape[1]:
        return True, B @ null[:, 0], 0
    # R has full column rank, so d != 0 exactly when R d != 0: with R d <= 0
    # that is 1^T R d < 0, normalised to f.d = 1 for f = -R^T 1.  Either the
    # NNLS residual rho has R rho <= 0 and d = rho / f.rho, or f = R^T alpha
    # with alpha >= 0, which for R as given reads R^T (1 + alpha) = 0
    # (Stiemke) and leaves no d
    R, f = _highs_matrix(R), _highs_matrix(-R.sum(axis=0))
    alpha, rho = _cone_split(R.T, f)
    if rho is not None:
        return True, B @ (rho / (f @ rho)), 0
    # with t = HIGHS_TOL, a d that HiGHS accepts has R d <= t and f.d >= 1 - t,
    # while f.d = alpha.(R d) <= t sum(alpha) up to rounding: no such d when
    # t (1 + sum(alpha)) <= 1/2
    if _solves(R.T, alpha, f) and HIGHS_TOL * (1.0 + alpha.sum()) <= 0.5:
        return False, None, 0
    res = scipy.optimize.linprog(
        np.zeros(k), A_ub=R, b_ub=np.zeros(R.shape[0]),
        A_eq=f[None, :], b_eq=[1.0], bounds=[(None, None)] * k, method="highs")
    if res.status == 0:
        return True, B @ res.x, 1
    return False, None, 1


def check_obj_weak(inst, gd: gamma_mod.GammaData) -> ExactnessReport:
    """Existence, per semidefinite face, of a nonzero direction in V(F) making
    every slice linear term nonpositive.

    With R the projected slice terms (one row per vertex and ray), a face
    passes when R has a nonzero kernel vector; a face with dim V(F) = 0 has
    no nonzero direction and fails.  Otherwise the question is whether
    R d <= 0, -1^T R d = 1 has a solution, and one NNLS solve of
    "-R^T 1 in cone(rows of R)" settles it: its Farkas residual rho gives
    d = rho / (-1^T R rho), the LP's own feasible point, and the witness
    B d; a bounded member alpha gives R^T (1 + alpha) = 0, a positive
    (Stiemke) certificate that no d exists.  Otherwise the LP decides as
    the arbiter.
    """
    return _face_walk("obj_weak", inst, gd, _weak_face)


def _ch_null(verts, rays):
    """Nullspace of the ch system: a row (v, -1) per vertex term v and
    (r, 0) per ray term r, in the unknowns (V(F)-coordinates, r)."""
    rows = [np.append(v, -1.0) for v in verts] + [np.append(r, 0.0) for r in rays]
    return _nullspace(np.array(rows))


def _ch_face(B, verts, rays):
    k = B.shape[1]
    for col in _ch_null(verts, rays).T:
        if np.linalg.norm(col[:k]) > STRICT_TOL:
            return True, B @ col[:k], 0
    return False, None, 0


def check_ch_polyhedral(inst, gd: gamma_mod.GammaData) -> ExactnessReport:
    """Existence, per semidefinite face, of nonzero (v, r) with every slice
    vertex linear term hitting r exactly and every slice ray term vanishing.

    A homogeneous linear system over (V(F)-coordinates, r); the face passes
    iff the nullspace contains an element with nonzero v-part.
    """
    return _face_walk("ch", inst, gd, _ch_face)


def _unit_rows(A, b):
    """[A | b] with every nonzero row divided by its 2-norm, and A as HiGHS
    solves it (``_highs_matrix``)."""
    norms = np.linalg.norm(np.column_stack([A, b]), axis=1)
    norms[norms == 0.0] = 1.0
    return _highs_matrix(A / norms[:, None]), b / norms


def check_burer_ye_diag(inst) -> ExactnessReport:
    """Diagonal sufficient condition: no (1, gamma) in the cone may zero both
    the j-th aggregated diagonal entry and the j-th aggregated linear term.

    Per coordinate j the system A_eq gamma = b_eq (the two zeros), A_ub gamma
    <= b_ub (the cone's H-rows at gamma_obj = 1), gamma_i >= 0 on inequality
    multipliers, has every row of [A | b] scaled to unit norm, so the verdict
    does not depend on the scale of the forms.  In standard form (free
    multipliers split, a slack per H-row) one NNLS solve settles it: a
    combination that solves the system to rounding is a violating gamma
    (FAILS, listed under ``details["coordinate_j"]``), a Farkas vector clears
    the coordinate.  Otherwise the feasibility LP decides as the arbiter.
    """
    rep = ExactnessReport(condition="burer_ye", verdict="HOLDS", provenance="DIAGONAL_AUTO",
                          details={"lp_calls": 0})
    if not model.is_diagonal_instance(inst):
        rep.verdict = "NOT_APPLICABLE"
        rep.details["reason"] = "instance is not diagonal"
        return rep
    H = gamma_mod.build_gamma_hrep_diag(inst)
    m, n, m_i = inst.m, inst.n, inst.m_i
    # rows of H applied at gamma_obj = 1: row[0] + row[1:] . gamma >= 0
    A_ub, b_ub = _unit_rows(-H[:, 1:], H[:, 0])
    # diagonal entries and linear terms, one row per form, objective first
    d = np.diagonal(inst.forms[:, :n, :n], axis1=1, axis2=2)
    b = inst.forms[:, :n, n]
    if m == 0:
        # no multipliers: the condition is violated at coordinate j exactly
        # when both the diagonal entry and the linear term already vanish and
        # (1, ()) lies in the cone
        if np.all(d[0] >= -STRICT_TOL):
            for j in range(n):
                if abs(d[0, j]) <= STRICT_TOL and abs(b[0, j]) <= STRICT_TOL:
                    rep.verdict = "FAILS"
                    rep.details[f"coordinate_{j}"] = []
        return rep
    bounds = [(0, None)] * m_i + [(None, None)] * (m - m_i)
    # standard form: columns gamma_I, gamma_E+, gamma_E-, one slack per H-row
    split = np.hstack([np.eye(m), -np.eye(m)[:, m_i:]])
    for j in range(n):
        A_eq, b_eq = _unit_rows(np.vstack([d[1:, j], b[1:, j]]), -np.array([d[0, j], b[0, j]]))
        E = np.block([[A_eq @ split, np.zeros((2, len(b_ub)))],
                      [A_ub @ split, np.eye(len(b_ub))]])
        f = np.concatenate([b_eq, b_ub])
        x, y = _cone_split(E, f)
        if y is not None:
            continue
        if _solves(E, x, f):
            gamma = split @ x[:split.shape[1]]
        else:
            rep.details["lp_calls"] += 1
            res = scipy.optimize.linprog(np.zeros(m), A_ub=A_ub, b_ub=b_ub,
                                         A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                                         method="highs")
            if res.status != 0:
                continue
            gamma = res.x
        rep.verdict = "FAILS"
        rep.details[f"coordinate_{j}"] = list(gamma)
    return rep


def detect_qem(inst) -> int:
    """Largest divisor k of n with every quadratic matrix of the form
    kron(I_k, core) for a shared-size core block, to 1e-9 relative."""
    n = inst.n
    mats = inst.forms[:, :n, :n]

    def fits(k: int) -> bool:
        s = n // k
        for A in mats:
            core = A[:s, :s]
            pattern = np.kron(np.eye(k), core)
            if np.max(np.abs(A - pattern), initial=0.0) > 1e-9 * max(1.0, np.max(np.abs(A))):
                return False
        return True

    for k in range(n, 0, -1):
        if n % k == 0 and fits(k):
            return k
    return 1


def check_qmp_bounds(inst, supplied_generators=None) -> ExactnessReport:
    """Symmetry-based exactness bounds from the repeated-block structure; the
    polyhedral bounds apply to a diagonal instance or supplied generators."""
    k = detect_qem(inst)
    m = inst.m
    nb = int(np.sum(np.linalg.norm(inst.forms[1:, :inst.n, inst.n], axis=1) > 1e-9))
    rep = ExactnessReport(condition="qmp", verdict="NOT_APPLICABLE")
    rep.details["k"] = k
    rep.details["m"] = m
    rep.details["nonzero_linear_terms"] = nb
    if model.is_diagonal_instance(inst) or supplied_generators is not None:
        bound = min(nb + 1, m) if m > 0 else 0
        rep.details["ch_bound_polyhedral"] = bound
        if k >= bound:
            rep.verdict = "HOLDS"
            rep.details["applies"] = "ch_polyhedral"
    else:
        rep.details["ch_bound_general"] = m + 2
        rep.details["obj_bound_general"] = m
        if k >= m + 2:
            rep.verdict = "HOLDS"
            rep.details["applies"] = "ch_general"
        elif k >= m:
            rep.verdict = "HOLDS"
            rep.details["applies"] = "obj_general"
    return rep


def check_ch_general_pointwise(inst, gd: gamma_mod.GammaData, x_hat, t_hat):
    """Pointwise decomposition condition at a relaxation point (x_hat, t_hat).

    Identifies the cone face exposed by the aggregated constraint values at
    the point (activity threshold STRICT_TOL) and searches the nullspace of
    the ch system of its slice terms at x_hat (``_ch_null``) for a direction
    (x', t'), taking the first null vector.  Returns (verdict, witness):
    verdict in {"NOT_APPLICABLE", "IN_D", "PASS", "FAIL"}, NOT_APPLICABLE
    whenever ``gd.reason`` is set.
    """
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    t_hat = float(t_hat)
    if not solver.dsdp_membership(inst, x_hat, t_hat):
        raise ValueError("(x, t) is not a relaxation point")
    if gd.reason is not None:
        return "NOT_APPLICABLE", None
    if model.epigraph_member(inst, x_hat, t_hat):
        return "IN_D", None
    # aggregated value per generator: g_obj*(q_obj(x)-t) + sum g_i q_i(x)
    vals = np.array([linalg.form_values(F, x_hat) for F in inst.forms])
    vals[0] -= t_hat
    g = np.array(gd.generators)
    tight = g[g @ vals >= -STRICT_TOL * np.maximum(1.0, np.linalg.norm(g, axis=1))]
    if not len(tight):
        return "IN_D", None
    classification, _, B = gamma_mod.classify_face(inst, tight)
    if classification == "DEFINITE":
        return "IN_D", None
    terms = _slice_terms(_linear_terms(inst, x_hat), B, *gamma_mod.face_slice_vrep(tight))
    null = _ch_null(*terms)
    if not null.shape[1]:
        return "FAIL", None
    return "PASS", (B @ null[:-1, 0], float(null[-1, 0]))


def exactness_summary(inst, supplied_generators=None) -> dict:
    """Run the full per-instance pipeline and bundle every report; instances
    with n <= 3 also get the grid oracle's comparison."""
    gd = gamma_mod.build_gamma_data(inst, supplied_generators)
    out = {"n": inst.n, "m": inst.m, "diagonal": model.is_diagonal_instance(inst),
           "gamma": gd,
           "strong": check_obj_strong(inst, gd),
           "weak": check_obj_weak(inst, gd),
           "ch": check_ch_polyhedral(inst, gd),
           "burer_ye": check_burer_ye_diag(inst),
           "qmp": check_qmp_bounds(inst, supplied_generators)}
    val, Z, sol = solver.solve_opt_sdp(inst)
    out["opt_sdp"] = val
    out["sdp_status"] = sol.status.name
    if inst.n <= 3:
        out["oracle"] = oracles.compare_opt(inst, val)
    return out
