"""Polyhedral analysis of the aggregation-multiplier cone.

The cone lives in R^{m+1} with coordinates (gamma_obj, gamma); membership
means gamma_obj >= 0, gamma_i >= 0 on inequality multipliers, and the
aggregated matrix gamma_obj*A_obj + A(gamma) is PSD.  For instances whose
quadratic terms are all diagonal the PSD condition reduces to n linear rows,
so the cone is polyhedral with an explicit H-representation; otherwise the
caller must supply a generator list and the analysis is relative to it.

The face conditions pass on a face whenever they pass on a larger face with
the same shared kernel V(F), so only the faces maximal for their V(F) are
built: the closed supports of one kernel closure over the generators'
aggregates (``_closed_supports``), with no face lattice.  Every PSD test
(the kernel, definiteness, closure membership, ``verify_generator``) cuts
at STRICT_TOL times the reference scale sum_g sum_j |g_j| ||A_j||_2 of the
generators it reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg, model

RAY_TOL = 1e-9
STRICT_TOL = 1e-7


class NotDiagonalError(ValueError):
    pass


class NotPointedError(ValueError):
    pass


@dataclass(frozen=True)
class FaceDescriptor:
    face_id: int
    generator_indices: tuple
    classification: str  # "DEFINITE" | "SEMIDEFINITE"
    witness: np.ndarray | None  # point of the face with PD aggregate
    vf_basis: np.ndarray  # (n, k) orthonormal, k >= 1 when SEMIDEFINITE
    slice_vertices: tuple  # gamma with (1, gamma) in the face
    slice_rays: tuple  # recession gamma directions with gamma_obj = 0


@dataclass(frozen=True)
class GammaData:
    generators: tuple  # (m+1)-vectors
    faces: tuple  # FaceDescriptor list, deterministic order
    provenance: str  # "DIAGONAL_AUTO" | "GENERATOR_SUPPLIED"
    assumption1_witness: np.ndarray | None
    reason: str | None = None  # why the face checks do not apply; None if they do


def build_gamma_hrep_diag(inst: model.QcqpInstance) -> np.ndarray:
    """H-rep rows {x : row . x >= 0} for diagonal instances: n diagonal rows
    plus sign rows, as an (n + 1 + m_I, m + 1) array."""
    if not model.is_diagonal_instance(inst):
        raise NotDiagonalError(
            "quadratic terms are not all diagonal; supply gamma generators "
            "or apply a congruence transform first"
        )
    n = inst.n
    diag_rows = np.diagonal(inst.forms[:, :n, :n], axis1=1, axis2=2).T
    # gamma_obj >= 0 and gamma_i >= 0 on the inequality multipliers
    sign_rows = np.eye(inst.m + 1)[: 1 + inst.m_i]
    return np.vstack([diag_rows, sign_rows])


def _active_set(rows: np.ndarray, r: np.ndarray) -> frozenset:
    vals = rows @ r
    scale = max(1.0, float(np.linalg.norm(r)))
    return frozenset(int(i) for i in np.flatnonzero(np.abs(vals) <= RAY_TOL * scale))


def dd_extreme_rays(rows) -> list:
    """Extreme rays of the pointed cone {x : rows @ x >= 0} by incremental
    double description; rows is a 2-D array with one H-row per row.  Each
    nonzero row is scaled to unit norm first, which leaves the rays alone
    and puts RAY_TOL on the same footing at every scale of the rows."""
    rows = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows / np.where(norms > 0.0, norms, 1.0)
    dim = rows.shape[1]
    if dim > 12:
        raise ValueError("ambient dimension cap (12) exceeded")
    if rows.shape[0] == 0:
        raise NotPointedError("no rows: cone is all of space")
    rank = np.linalg.matrix_rank(rows, tol=1e-10)
    if rank < dim:
        raise NotPointedError(
            "cone has a nontrivial lineality space; extreme rays undefined"
        )
    # initial simplicial cone from dim linearly independent rows
    _, _, piv = scipy.linalg.qr(rows.T, pivoting=True)
    base_idx = list(piv[:dim])
    A0 = rows[base_idx]
    rays = [col.copy() for col in np.linalg.inv(A0).T]
    processed = list(base_idx)
    remaining = [i for i in range(rows.shape[0]) if i not in base_idx]

    for i in remaining:
        a = rows[i]
        vals = [float(a @ r) / max(1.0, float(np.linalg.norm(r))) for r in rays]
        pos = [k for k, v in enumerate(vals) if v > RAY_TOL]
        neg = [k for k, v in enumerate(vals) if v < -RAY_TOL]
        zero = [k for k, v in enumerate(vals) if -RAY_TOL <= v <= RAY_TOL]
        if not neg:
            processed.append(i)
            continue
        proc_rows = rows[processed]
        act = [_active_set(proc_rows, r) for r in rays]
        new_rays = [rays[k] for k in pos + zero]
        for kp in pos:
            for kn in neg:
                shared = act[kp] & act[kn]
                if dim > 2:
                    if not shared:
                        continue
                    sub = proc_rows[sorted(shared)]
                    if np.linalg.matrix_rank(sub, tol=1e-10) < dim - 2:
                        continue  # not adjacent
                r_new = float(a @ rays[kp]) * rays[kn] - float(a @ rays[kn]) * rays[kp]
                nrm = float(np.max(np.abs(r_new)))
                if nrm > RAY_TOL:
                    new_rays.append(r_new / nrm)
        rays = new_rays
        processed.append(i)

    # normalize, dedupe, and keep only extreme rays (active-row rank dim-1)
    out = []
    for r in rays:
        nrm = float(np.max(np.abs(r)))
        if nrm <= RAY_TOL:
            continue
        r = r / nrm
        act = _active_set(rows, r)
        if act:
            sub = rows[sorted(act)]
            if np.linalg.matrix_rank(sub, tol=1e-10) < dim - 1:
                continue
        elif dim > 1:
            continue
        if any(np.linalg.norm(r - s) < 1e-7 or np.linalg.norm(r + s) < 1e-7 for s in out):
            continue
        out.append(r)
    out.sort(key=lambda r: tuple(np.round(r, 9)))
    return out


def _references(inst: model.QcqpInstance, gens) -> np.ndarray:
    """sum_j |g_j| ||A_j||_2 for each generator g of gens.  Their sum, the
    reference scale of gens, bounds the spectral norm of the summed
    aggregate and scales with the forms; every PSD cut below is STRICT_TOL
    times it."""
    norms = np.linalg.svd(inst.forms[:, : inst.n, : inst.n], compute_uv=False)[:, 0]
    return np.abs(np.reshape(gens, (-1, inst.m + 1))) @ norms


def verify_generator(inst: model.QcqpInstance, ray) -> bool:
    """ray lies in the cone: signs hold and no eigenvalue of its aggregate is
    below -STRICT_TOL times its reference scale."""
    ray = np.asarray(ray, dtype=float).reshape(-1)
    if ray.shape[0] != inst.m + 1:
        return False
    if ray[0] < -STRICT_TOL:
        return False
    if np.any(ray[1 : 1 + inst.m_i] < -STRICT_TOL):
        return False
    w = linalg.eig_sym(model.aggregate(inst, ray)[: inst.n, : inst.n]).eigenvalues
    return bool(w[0] >= -STRICT_TOL * _references(inst, ray).sum())


def classify_face(inst: model.QcqpInstance, gens_on_face):
    """(classification, witness, V(F)) of the face spanned by gens_on_face,
    from one eigendecomposition of the sum of their aggregates.

    The aggregates are PSD, so the sum is PD iff some conic combination is
    (DEFINITE, with the generator mean as witness and an empty V(F)), and
    the shared kernel of the aggregates is the kernel of the sum.  Both
    tests cut at STRICT_TOL times the generators' reference scale.
    """
    gens = np.reshape(gens_on_face, (-1, inst.m + 1))
    w, V = linalg.eig_sym(model.aggregate(inst, gens.sum(axis=0))[: inst.n, : inst.n])
    cut = STRICT_TOL * _references(inst, gens).sum()
    if w[0] > cut:
        return "DEFINITE", gens.mean(axis=0), np.zeros((inst.n, 0))
    return "SEMIDEFINITE", None, V[:, np.abs(w) <= cut]


def face_slice_vrep(gens_on_face):
    """Split face generators into unit-gamma_obj vertices and recession rays."""
    vertices = []
    rays = []
    for g in gens_on_face:
        g = np.asarray(g, dtype=float)
        if g[0] > RAY_TOL:
            vertices.append(g[1:] / g[0])
        else:
            rays.append(g[1:])
    return vertices, rays


def _closed_supports(inst: model.QcqpInstance, gens) -> dict:
    """Every closed generator support, mapped to its ``classify_face``.

    The closure of a support S is every g whose aggregate A_g vanishes on
    V(S), read off tr(V(S)^T A_g V(S)) = <A_g, V(S) V(S)^T>, the functional
    that exposes the face, at the cut of S.  A closed support spans the
    largest face of cone(gens) with its V(F).  The closed supports are the
    closures of the single generators and the joins (closures of unions) of
    those, found by joining each new one with every generator's closure.
    """
    G = np.reshape(gens, (-1, inst.m + 1))
    agg = np.einsum("gj,jab->gab", G, inst.forms[:, : inst.n, : inst.n])
    refs = _references(inst, G)
    known = {}

    def close(sup):
        """(classify_face, closure) of the support sup, computed once."""
        if sup not in known:
            idx = sorted(sup)
            face = classify_face(inst, G[idx])
            exposed = np.einsum("ia,gij,ja->g", face[2], agg, face[2])
            cut = STRICT_TOL * refs[idx].sum()
            known[sup] = face, frozenset(np.flatnonzero(exposed <= cut).tolist())
        return known[sup]

    atoms = {close(frozenset([k]))[1] for k in range(len(G))}
    closed, todo = set(atoms), list(atoms)
    while todo:
        sup = todo.pop()
        for atom in atoms:
            join = close(sup | atom)[1]
            if join not in closed:
                closed.add(join)
                todo.append(join)
    return {sup: close(sup)[0] for sup in closed}


def build_gamma_data(inst: model.QcqpInstance, supplied_generators=None) -> GammaData:
    """Generators (double description on the diagonal path, else the
    supplied rays, verified) and the faces that decide: the closed supports
    (``_closed_supports``), ordered by size, so the full support is last and
    its witness is Assumption 1's.  ``reason`` says why the face checks do
    not apply: the error of a non-diagonal instance without generators or of
    a cone with a lineality space (no generators, no faces), or no PD
    aggregate (Assumption 1 fails).
    """
    if supplied_generators is None:
        provenance = "DIAGONAL_AUTO"
        try:
            gens = dd_extreme_rays(build_gamma_hrep_diag(inst))
        except (NotDiagonalError, NotPointedError) as exc:
            return GammaData((), (), provenance, None, str(exc))
    else:
        gens = [np.asarray(g, dtype=float).reshape(-1) for g in supplied_generators]
        bad = [i for i, g in enumerate(gens) if not verify_generator(inst, g)]
        if bad:
            raise ValueError(f"supplied generators at indices {bad} fail verification")
        provenance = "GENERATOR_SUPPLIED"
    closed = _closed_supports(inst, gens)
    faces = tuple(
        FaceDescriptor(fid, tuple(sorted(sup)), *closed[sup],
                       *map(tuple, face_slice_vrep([gens[k] for k in sorted(sup)])))
        for fid, sup in enumerate(sorted(closed, key=lambda s: (len(s), sorted(s)))))
    witness = faces[-1].witness if faces else None
    return GammaData(tuple(gens), faces, provenance, witness,
                     None if witness is not None else "definiteness assumption fails")
