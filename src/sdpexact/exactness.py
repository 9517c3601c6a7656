"""Face-based exactness conditions for the lifted relaxation.

Each check walks the semidefinite faces of the multiplier cone that are
maximal for their shared kernel V(F) (``gamma.build_gamma_data``; a condition
that passes on such a face passes on every face inside it with the same V(F))
and decides a linear-algebraic condition on the slice {gamma : (1, gamma) in
F} and V(F).  Verdicts are HOLDS / FAILS / NOT_APPLICABLE; FAILS carries the
violating multiplier, HOLDS carries per-face witnesses where the condition is
existential.

The strong, weak and Burer-Ye conditions are small polyhedral feasibility
questions.  Each is put as "is f in cone(columns of E)?" and decided by one
NNLS solve (``_cone_split``): Lawson-Hanson stops at a Karush-Kuhn-Tucker
point, so either its residual is at rounding level against the question's
own scale (f is in the cone) or the residual is a Farkas vector, checked
against the input.  Every face and coordinate cut is relative to the
magnitudes it compares, so scaling all forms by one positive factor leaves
those verdicts unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gamma as gamma_mod
from . import linalg, model, oracles, solver
from .gamma import STRICT_TOL

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
    """Orthonormal nullspace columns of A (SVD, rank cut 1e-10 * s_0)."""
    _, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 0.0)))
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


def _cone_split(E, f, scale):
    """Decide whether f lies in cone(columns of E) by one NNLS solve on
    E / scale and f / scale, for scale the magnitude of the question's data.

    Lawson-Hanson stops at a Karush-Kuhn-Tucker point x >= 0, where the
    residual y = (f - E x) / scale has E^T y <= 0 and f.y = scale ||y||^2.
    Returns (True, x) when ||y|| <= STRICT_TOL: f is in the cone to
    rounding.  Returns (False, y) when y, recomputed from the input, is a
    Farkas vector: f.y > 0 and E^T y <= ROUND max(|E|^T S) entrywise, with
    S = |f| + |E| x bounding every product y enters up to rounding.
    Neither means NNLS stopped short of its KKT point, and raises
    RuntimeError, as ``nnls`` itself does at its iteration cap.
    """
    import scipy.optimize

    E, f = E / scale, f / scale
    x, _ = scipy.optimize.nnls(E, f)
    y = f - E @ x
    if np.linalg.norm(y) <= STRICT_TOL:
        return True, x
    size = np.abs(f) + np.abs(E) @ x
    if f @ y > 0.0 and np.all(E.T @ y <= ROUND * (np.abs(E).T @ size).max()):
        return False, y
    raise RuntimeError("NNLS stopped short of a KKT point: neither certificate holds")


def _face_walk(condition: str, inst, gd: gamma_mod.GammaData, decide) -> ExactnessReport:
    """Bookkeeping shared by the face-based checks, over ``gd.faces``: the
    faces maximal for their V(F), so the verdict is the AND over them.

    NOT_APPLICABLE, with ``gd.reason``, when the face checks do not apply.
    Non-semidefinite faces (only the full support, when Assumption 1 holds)
    are SKIPPED and faces with an empty slice PASS.
    Every other face is handed to decide(B, verts, rays, scale), which sees
    the V(F) basis B, the slice linear terms at x = 0 projected onto it
    (``_slice_terms``) and scale = ||G||_F max(||(1, v)||, ||r||) over the
    slice, which bounds every term's norm.  It returns (passed, vector): the
    face's witness when it passes and its violating multiplier when it fails.
    """
    rep = ExactnessReport(condition=condition, verdict="HOLDS", provenance=gd.provenance)
    if gd.reason is not None:
        rep.verdict = "NOT_APPLICABLE"
        rep.details["reason"] = gd.reason
        return rep
    G = _linear_terms(inst, np.zeros(inst.n))
    # ||G||_F taken on G / max|G|, so no entry squares to 0 or to inf; when
    # G = 0 every term is 0, which any positive scale decides alike
    g = np.abs(G).max()
    norm_G = g * np.linalg.norm(G / g) if g > 0.0 else 1.0
    for face in gd.faces:
        rec = FaceRecord(face.face_id, face.classification, "SKIPPED")
        rep.face_records.append(rec)
        if face.classification != "SEMIDEFINITE":
            continue
        rec.sub_verdict = "PASS"
        if not face.slice_vertices:
            continue
        B, verts, rays = face.vf_basis, face.slice_vertices, face.slice_rays
        scale = norm_G * max([np.hypot(1.0, np.linalg.norm(v)) for v in verts]
                             + [np.linalg.norm(r) for r in rays])
        passed, vec = decide(B, *_slice_terms(G, B, verts, rays), scale)
        if passed:
            rec.witness = vec
        else:
            rec.sub_verdict = "FAIL"
            rec.violating_multiplier = vec
    if any(rec.sub_verdict == "FAIL" for rec in rep.face_records):
        rep.verdict = "FAILS"
    return rep


def _strong_face(B, verts, rays, scale):
    k = B.shape[1]
    nv, nr = len(verts), len(rays)
    T = np.array(verts + rays).reshape(nv + nr, k).T
    E = np.vstack([T, scale * np.repeat([1.0, 0.0], [nv, nr])])
    member, x = _cone_split(E, np.append(np.zeros(k), scale), scale)
    if member:
        return False, x / x[:nv].sum()
    return True, None


def check_obj_strong(inst, gd: gamma_mod.GammaData) -> ExactnessReport:
    """Zero excluded from the projected slice image on every semidefinite face.

    A face fails when 0 lies in conv(slice vertex terms) + cone(slice ray
    terms), projected onto V(F), to within STRICT_TOL times the face's
    scale W (``_face_walk``), so rounding noise in the terms reads as zero
    at every scale of the forms.  One NNLS solve of "(0, W) in cone{(v, W),
    (r, 0)}" decides: a member, normalised to weights summing to 1, is the
    violating (lambda, mu); otherwise its Farkas vector z has z.v < 0 for
    every vertex term and z.r <= 0 for every ray term, which separates 0
    from the image.
    """
    return _face_walk("obj_strong", inst, gd, _strong_face)


def _weak_face(B, verts, rays, scale):
    if B.shape[1] == 0:
        return False, None
    R = np.array(verts + rays)
    null = _nullspace(R)
    if null.shape[1]:
        return True, B @ null[:, 0]
    # R has full column rank, so d != 0 exactly when R d != 0: with R d <= 0
    # that is 1^T R d < 0, normalised to f.d = 1 for f = -R^T 1.  Either
    # f = R^T alpha with alpha >= 0, which reads R^T (1 + alpha) = 0
    # (Stiemke) and leaves no d, or the Farkas residual rho has R rho <= 0
    # and f.rho > 0, and d = rho / f.rho.  The question is homogeneous in R
    f = -R.sum(axis=0)
    member, rho = _cone_split(R.T, f, np.abs(R).max())
    if member:
        return False, None
    return True, B @ (rho / (f @ rho))


def check_obj_weak(inst, gd: gamma_mod.GammaData) -> ExactnessReport:
    """Existence, per semidefinite face, of a nonzero direction in V(F) making
    every slice linear term nonpositive.

    With R the projected slice terms (one row per vertex and ray), a face
    passes when R has a nonzero kernel vector; a face with dim V(F) = 0 has
    no nonzero direction and fails.  Otherwise the question is whether
    R d <= 0, -1^T R d = 1 has a solution, and one NNLS solve of
    "-R^T 1 in cone(rows of R)", cut against max |R|, decides it: a member
    alpha gives R^T (1 + alpha) = 0, a positive (Stiemke) certificate that
    no d exists, and the Farkas residual rho gives d = rho / (-1^T R rho)
    and the witness B d.
    """
    return _face_walk("obj_weak", inst, gd, _weak_face)


def _ch_null(verts, rays):
    """Nullspace of the ch system: a row (v, -1) per vertex term v and
    (r, 0) per ray term r, in the unknowns (V(F)-coordinates, r)."""
    rows = [np.append(v, -1.0) for v in verts] + [np.append(r, 0.0) for r in rays]
    return _nullspace(np.array(rows))


def _ch_face(B, verts, rays, scale):
    k = B.shape[1]
    # terms in units of the face's scale, so the system reads alike at every scale
    for col in _ch_null([v / scale for v in verts], [r / scale for r in rays]).T:
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


def _unit_rows(A, b):
    """[A | b] with every nonzero row divided by its 2-norm."""
    norms = np.linalg.norm(np.column_stack([A, b]), axis=1)
    norms[norms == 0.0] = 1.0
    return A / norms[:, None], b / norms


def check_burer_ye_diag(inst) -> ExactnessReport:
    """Diagonal sufficient condition: no (1, gamma) in the cone may zero both
    the j-th aggregated diagonal entry and the j-th aggregated linear term.

    Per coordinate j the system A_eq gamma = b_eq (the two zeros), A_ub gamma
    <= b_ub (the cone's H-rows at gamma_obj = 1), gamma_i >= 0 on inequality
    multipliers, has every row of [A | b] scaled to unit norm, so the verdict
    does not depend on the scale of the forms.  In standard form (free
    multipliers split, a slack per H-row) one NNLS solve at scale 1 decides
    it: a member is a violating gamma (FAILS, listed under
    ``details["coordinate_j"]``), a Farkas vector clears the coordinate.
    """
    rep = ExactnessReport(condition="burer_ye", verdict="HOLDS", provenance="DIAGONAL_AUTO")
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
    # standard form: columns gamma_I, gamma_E+, gamma_E-, one slack per H-row
    split = np.hstack([np.eye(m), -np.eye(m)[:, m_i:]])
    for j in range(n):
        A_eq, b_eq = _unit_rows(np.vstack([d[1:, j], b[1:, j]]), -np.array([d[0, j], b[0, j]]))
        E = np.block([[A_eq @ split, np.zeros((2, len(b_ub)))],
                      [A_ub @ split, np.eye(len(b_ub))]])
        member, x = _cone_split(E, np.concatenate([b_eq, b_ub]), 1.0)
        if member:
            rep.verdict = "FAILS"
            rep.details[f"coordinate_{j}"] = list(split @ x[:split.shape[1]])
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
            if np.max(np.abs(A - pattern), initial=0.0) > 1e-9 * np.max(np.abs(A)):
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
    # a linear term is nonzero beyond 1e-9 times the norm of its form's embedding
    nb = int(np.sum(np.linalg.norm(inst.forms[1:, :inst.n, inst.n], axis=1)
                    > 1e-9 * np.linalg.norm(inst.forms[1:], axis=(1, 2))))
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
    the point (a generator is tight within STRICT_TOL * |g| @ |values|) and
    searches the nullspace of the ch system of its slice terms at x_hat
    (``_ch_null``) for a direction (x', t'), taking the first null vector.
    Returns (verdict, witness): verdict in {"NOT_APPLICABLE", "IN_D", "PASS",
    "FAIL"}, NOT_APPLICABLE whenever ``gd.reason`` is set.
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
    tight = g[g @ vals >= -STRICT_TOL * (np.abs(g) @ np.abs(vals))]
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
