"""Face-based exactness conditions for the lifted relaxation.

Each check walks the semidefinite faces of the multiplier cone and decides a
linear-algebraic condition on the slice {gamma : (1, gamma) in F} and the
shared kernel V(F).  Verdicts are HOLDS / FAILS / NOT_APPLICABLE; FAILS
carries the violating multiplier, HOLDS carries per-face witnesses where the
condition is existential.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import gamma as gamma_mod
from . import model, oracles, solver
from .gamma import STRICT_TOL


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
    threshold: float = STRICT_TOL
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


def _face_walk(condition: str, inst, gd: gamma_mod.GammaData, decide) -> ExactnessReport:
    """Bookkeeping shared by the face-based checks.

    NOT_APPLICABLE, with ``gd.reason``, when the face checks do not apply.
    Non-semidefinite faces are SKIPPED and faces with an empty slice PASS.
    Every other face is handed to decide(B, verts, rays), which sees the
    V(F) basis B and the slice linear terms at x = 0 projected onto it
    (``_slice_terms``) and returns (passed, vector): the vector is the
    face's witness when it passes and its violating multiplier when it fails.
    """
    rep = ExactnessReport(condition=condition, verdict="HOLDS", provenance=gd.provenance)
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
        passed, vec = decide(B, *_slice_terms(G, B, face.slice_vertices, face.slice_rays))
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
    # variables: lambda (nv), mu (nr), s+ (k), s- (k)
    n_var = nv + nr + 2 * k
    c = np.concatenate([np.zeros(nv + nr), np.ones(2 * k)])
    A_eq = np.zeros((k + 1, n_var))
    b_eq = np.zeros(k + 1)
    for j, v in enumerate(verts):
        A_eq[:k, j] = v
    for j, r in enumerate(rays):
        A_eq[:k, nv + j] = r
    A_eq[:k, nv + nr: nv + nr + k] = -np.eye(k)
    A_eq[:k, nv + nr + k:] = np.eye(k)
    A_eq[k, :nv] = 1.0
    b_eq[k] = 1.0
    res = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=b_eq,
                                 bounds=[(0, None)] * n_var, method="highs")
    if res.status == 0 and res.fun <= STRICT_TOL:
        return False, res.x[:nv + nr]
    return True, None


def check_obj_strong(inst, gd: gamma_mod.GammaData) -> ExactnessReport:
    """Zero excluded from the projected slice image on every semidefinite face.

    Per face: phase-1 LP searching for a convex combination of slice vertices
    plus a conic combination of slice rays whose linear term projects to zero
    on V(F); the face passes iff the minimal slack stays above STRICT_TOL.
    """
    return _face_walk("obj_strong", inst, gd, _strong_face)


def _weak_face(B, verts, rays):
    k = B.shape[1]
    if k == 0:
        return False, None
    R = np.array(verts + rays)
    null = _nullspace(R)
    if null.shape[1]:
        return True, B @ null[:, 0]
    # R has full column rank, so d != 0 exactly when R d != 0: with R d <= 0
    # that is 1^T R d < 0, normalised to -1^T R d = 1
    res = scipy.optimize.linprog(
        np.zeros(k), A_ub=R, b_ub=np.zeros(R.shape[0]),
        A_eq=-R.sum(axis=0, keepdims=True), b_eq=[1.0],
        bounds=[(None, None)] * k, method="highs")
    if res.status == 0:
        return True, B @ res.x
    return False, None


def check_obj_weak(inst, gd: gamma_mod.GammaData) -> ExactnessReport:
    """Existence, per semidefinite face, of a nonzero direction in V(F) making
    every slice linear term nonpositive.

    With R the projected slice terms (one row per vertex and ray), a face
    passes when R has a nonzero kernel vector, and otherwise iff the one LP
    R d <= 0, -1^T R d = 1 (d free) is feasible; a face with dim V(F) = 0
    has no nonzero direction and fails.
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
            return True, B @ col[:k]
    return False, None


def check_ch_polyhedral(inst, gd: gamma_mod.GammaData) -> ExactnessReport:
    """Existence, per semidefinite face, of nonzero (v, r) with every slice
    vertex linear term hitting r exactly and every slice ray term vanishing.

    A homogeneous linear system over (V(F)-coordinates, r); the face passes
    iff the nullspace contains an element with nonzero v-part.
    """
    return _face_walk("ch", inst, gd, _ch_face)


def check_burer_ye_diag(inst) -> ExactnessReport:
    """Diagonal sufficient condition: no (1, gamma) in the cone may zero both
    the j-th aggregated diagonal entry and the j-th aggregated linear term."""
    rep = ExactnessReport(condition="burer_ye", verdict="HOLDS", provenance="DIAGONAL_AUTO")
    if not model.is_diagonal_instance(inst):
        rep.verdict = "NOT_APPLICABLE"
        rep.details["reason"] = "instance is not diagonal"
        return rep
    H = gamma_mod.build_gamma_hrep_diag(inst)
    m, n = inst.m, inst.n
    # rows of H applied at gamma_obj = 1: row[0] + row[1:] . gamma >= 0
    A_ub = -H[:, 1:]
    b_ub = H[:, 0].copy()
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
    for j in range(n):
        A_eq = np.vstack([d[1:, j], b[1:, j]])
        b_eq = np.array([-d[0, j], -b[0, j]])
        bounds = [(None, None)] * m
        for i in range(inst.m_i):
            bounds[i] = (0, None)
        res = scipy.optimize.linprog(np.zeros(m), A_ub=A_ub, b_ub=b_ub,
                                     A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                                     method="highs")
        if res.status == 0:
            rep.verdict = "FAILS"
            rep.details[f"coordinate_{j}"] = list(res.x)
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
    z = np.append(x_hat, 1.0)
    vals = inst.forms @ z @ z
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
