"""Rank-one-generated analysis of PSD cone slices cut by homogeneous LMIs.

A set {Z PSD : <M,Z> <= 0 for M in Mset} is rank-one generated (ROG) when it
equals the convex hull of its rank-one members.  For one or two LMIs the
property is decidable with small certificates; for larger sets only
sufficient rules and sampled refutation evidence are attempted.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg, oracles, solver

ANGLE_TOL = 1e-8  # on |cos| for "same direction"
RESULTANT_TOL = 1e-9


class ConstructionFailed(RuntimeError):
    pass


class DecompositionImpossible(ValueError):
    pass


@dataclass(frozen=True)
class LmiSet:
    matrices: tuple
    senses: tuple  # per matrix, "LE" or "EQ"

    def __post_init__(self):
        mats = tuple(linalg.sym(M) for M in self.matrices)
        object.__setattr__(self, "matrices", mats)
        senses = tuple(self.senses)
        if len(senses) != len(mats):
            raise ValueError("senses length mismatch")
        if any(s not in ("LE", "EQ") for s in senses):
            raise ValueError("senses must be LE or EQ")
        object.__setattr__(self, "senses", senses)

    @classmethod
    def from_instance(cls, inst) -> "LmiSet":
        """The homogenized constraints of a QCQP: ``inst.forms[1:]``."""
        return cls(tuple(inst.forms[1:]), inst.senses)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0] if self.matrices else 0

    def expanded(self) -> list:
        """Inequality-only view: EQ members contribute +M and -M."""
        out = []
        for M, s in zip(self.matrices, self.senses):
            out.append(M)
            if s == "EQ":
                out.append(-M)
        return out


@dataclass
class RogVerdict:
    status: str  # ROG_CERTIFIED | NOT_ROG_CERTIFIED | ROG_BY_SUFFICIENT_RULE | UNDECIDED
    certificate: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _unit(v):
    n = float(np.linalg.norm(v))
    return v / n if n > 0 else v


def _same_direction(u, v, tol=ANGLE_TOL) -> bool:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return False
    return abs(float(u @ v) / (nu * nv)) >= 1.0 - tol


def decompose_rank2_indefinite(M):
    """Split a symmetric M = Sym(a b^T) when M has rank <= 2 and is not definite.

    Returns (a, b) with M = Sym(a b^T); raises DecompositionImpossible for
    rank > 2 or a definite rank-2 matrix.  M is not symmetrised again.
    """
    w, V = np.linalg.eigh(M)
    cut = linalg.rank_cut(w)
    pos = [k for k in range(len(w)) if w[k] > cut]
    neg = [k for k in range(len(w)) if w[k] < -cut]
    r = len(pos) + len(neg)
    if r > 2:
        raise DecompositionImpossible("rank exceeds 2")
    if r == 0:
        raise DecompositionImpossible("zero matrix")
    if r == 1:
        if pos:
            a = np.sqrt(w[pos[0]]) * V[:, pos[0]]
            return a, a.copy()
        a = np.sqrt(-w[neg[0]]) * V[:, neg[0]]
        return a, -a
    if len(pos) != 1 or len(neg) != 1:
        raise DecompositionImpossible("rank-2 matrix is definite")
    vp = np.sqrt(w[pos[0]]) * V[:, pos[0]]
    vm = np.sqrt(-w[neg[0]]) * V[:, neg[0]]
    return vp + vm, vp - vm


def _dependence(M1, M2):
    """Weights alpha, max|alpha| = 1, with alpha1 M1 + alpha2 M2 ~ 0, or None.

    [0, -1] for M2 ~ 0, [1, 0] for M1 ~ 0, else [kappa, -1] / max(1, |kappa|)
    for M2 ~ kappa M1.  The normalised residual is the smaller matrix's
    distance from the line of the larger, in either argument order.
    """
    n1 = float(np.linalg.norm(M1))
    n2 = float(np.linalg.norm(M2))
    if n2 <= 1e-9 * n1:
        return np.array([0.0, -1.0])
    if n1 <= 1e-9 * n2:
        return np.array([1.0, 0.0])
    kappa = float(np.sum(M1 * M2)) / (n1 * n1)
    alpha = np.array([kappa, -1.0]) / max(1.0, abs(kappa))
    if np.linalg.norm(alpha[0] * M1 + alpha[1] * M2) <= 1e-9 * max(n1, n2):
        return alpha
    return None


def _norms(M1, M2):
    """(||M1||_2, ||M2||_2) of symmetric M1, M2: max |lambda| of each, from one
    stacked ``eigvalsh`` (a third of the cost of two SVD 2-norms)."""
    return np.max(np.abs(np.linalg.eigvalsh(np.stack([M1, M2]))), axis=1)


def _pair_scale(M1, M2) -> float:
    """max(||M1||_2, ||M2||_2), 1 for a zero pair: the scale of every pair
    tolerance, so each one is relative at every input scale."""
    return float(np.max(_norms(M1, M2))) or 1.0


def gordan_stiemke(M1, M2):
    """Condition (i) for the pair as given (``_gordan_stiemke``)."""
    M1, M2 = linalg.sym(M1), linalg.sym(M2)
    return _gordan_stiemke(M1, M2, _pair_scale(M1, M2))


def _gordan_stiemke(M1, M2, scale):
    """Condition (i) by bisection on support angles: (alpha, None) for weights
    that pass ``_psd_combination``, (None, Z) for a Z that passes
    ``_is_pd_witness``, or (None, None).

    Each probed angle t gives lambda_min(cos t M1 + sin t M2) and a
    minimising unit eigenvector z_t from one ``eigh``.  The first t whose
    weights alpha = (cos t, sin t) / max|.| pass ``_psd_combination`` ends
    the search: that is the PSD side.  Otherwise z_t gives a support point
    w_t = (z_t^T M1 z_t, z_t^T M2 z_t) with (cos t, sin t) . w_t < 0.  For
    tau = -(tr M1, tr M2) at polar angle a, w_t lies clockwise of tau at
    t = a + pi/2 and anticlockwise at t = a + 3pi/2.  Bisection keeps one
    support point on each side until two of them bracket tau = l1 w1 + l2 w2
    with l >= 0 (where z_t jumps, the points on both sides lie on one line
    that misses the origin, by Dines's convexity of the joint range), and
    then Z = I + l1 z1 z1^T + l2 z2 z2^T has <M_i, Z> = 0 and Z >= I: the PD
    side.  When tau is 0 within ``_is_pd_witness``'s tolerance there is
    nothing to bracket, and Z = I is the witness, returned before any probe.
    (None, None) once the angle interval is spent, after about 52 halvings.
    """
    # necessary for _psd_combination, which divides by max|.| <= 1 (the factor
    # 2 leaves room for rounding): only angles within it pay for the predicate
    near = -2e-7 * scale

    def probe(t):
        c = np.array([np.cos(t), np.sin(t)])
        lam, V = np.linalg.eigh(c[0] * M1 + c[1] * M2)
        alpha = c / np.max(np.abs(c))
        if lam[0] >= near and _psd_combination(M1, M2, alpha, scale):
            return alpha, None, None
        z = V[:, 0]
        return None, z, np.array([z @ M1 @ z, z @ M2 @ z])

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    tau = -np.array([np.trace(M1), np.trace(M2)])
    I = np.eye(len(M1))
    tol = 1e-6 * scale * len(I) ** 0.5  # _is_pd_witness's tolerance at Z = I
    if abs(tau[0]) <= tol and abs(tau[1]) <= tol and _is_pd_witness(M1, M2, I, scale):
        return None, I
    lo = float(np.arctan2(tau[1], tau[0])) + 0.5 * np.pi
    hi = lo + np.pi
    alpha, z1, w1 = probe(lo)
    if alpha is None:
        alpha, z2, w2 = probe(hi)
    while alpha is None:
        det = cross(w1, w2)
        if det != 0.0:
            l1, l2 = cross(tau, w2) / det, cross(w1, tau) / det
            Z = I + l1 * np.outer(z1, z1) + l2 * np.outer(z2, z2)
            if min(l1, l2) >= 0.0 and _is_pd_witness(M1, M2, Z, scale):
                return None, Z
        if hi - lo <= 4.0 * np.spacing(2.0 * np.pi):
            return None, None
        mid = 0.5 * (lo + hi)
        alpha, z, w = probe(mid)
        if alpha is not None:
            break
        if cross(tau, w) > 0.0:
            hi, z2, w2 = mid, z, w
        else:
            lo, z1, w1 = mid, z, w
    return alpha, None


# One predicate per fact a pair certificate can claim.  The decision path
# applies each before it emits a certificate and ``verify_certificate``
# re-applies the same one to the input matrices, so a decided pair verifies.
# Each takes symmetric matrices and the pair scale, computed once per call.


def _psd_combination(M1, M2, alpha, scale) -> bool:
    """max|alpha| = 1 (a tiny alpha passes any pair) and alpha1 M1 + alpha2 M2
    PSD relative to the pair scale, not to the combination, which may cancel."""
    alpha = np.asarray(alpha, dtype=float)
    if abs(float(np.max(np.abs(alpha))) - 1.0) > 1e-6:
        return False
    return bool(np.linalg.eigvalsh(alpha[0] * M1 + alpha[1] * M2)[0] >= -1e-7 * scale)


def _is_pd_witness(M1, M2, Z, scale) -> bool:
    """Symmetric Z is positive definite and orthogonal to M1 and M2 (condition
    (i) fails), both relative to ||Z||, so c Z passes with Z for every c > 0."""
    w = np.linalg.eigvalsh(Z)
    if w[0] <= 1e-7 * w[-1]:
        return False
    tol = 1e-6 * scale * np.linalg.norm(Z)
    return all(abs(float(np.sum(M * Z))) <= tol for M in (M1, M2))


def _excludes_psd_combination(M1, M2, Z, scale) -> bool:
    """Symmetric Z proves that no alpha passes ``_psd_combination`` for the
    pair at the same scale s.

    Let A = alpha1 M1 + alpha2 M2 pass, so |max|alpha| - 1| <= 1e-6 and
    A >= -e I with e = 1e-7 s.  The argument uses s only through e, so it
    holds for whatever s both predicates are given; the callers pass the
    one max |lambda| of the pair, computed once.  For Z of order d,
    <A + e I, Z> >= lambda_min(Z) tr(A + e I), so <A, Z> >= lambda_min(Z)
    lambda_max(A) - d e lambda_max(Z).  With sigma the smaller singular
    value of [vec M1, vec M2], ||A||_F >= sigma ||alpha|| >= (1 - 1e-6) sigma,
    and the eigenvalues of A lie in [-e, lambda_max(A)], so max(lambda_max(A),
    e) >= ||A||_F / sqrt(d); when sigma / sqrt(d) > 2e this gives
    lambda_max(A) >= (1 - 1e-6) sigma / sqrt(d).  Yet <A, Z> <= (1 + 1e-6) r
    with r = |<M1, Z>| + |<M2, Z>|.  So lambda_min(Z) sigma / sqrt(d) >
    2 (d e lambda_max(Z) + r) leaves no such A; the factor 2 covers both
    1e-6 slacks.  Every term scales with the pair and with Z, so the answer
    is the same for s M_i and c Z.
    """
    d = len(Z)
    e = 1e-7 * scale
    sigma = np.linalg.svd(np.stack([M1.ravel(), M2.ravel()]), compute_uv=False)[-1]
    lam = np.linalg.eigvalsh(Z)
    r = sum(abs(float(np.sum(M * Z))) for M in (M1, M2))
    reach = sigma / np.sqrt(d)
    return bool(reach > 2.0 * e and lam[0] * reach > 2.0 * (d * e * lam[-1] + r))


def _is_sym_product(M, a, b) -> bool:
    """M = Sym(a b^T) within 1e-7 relative (Frobenius)."""
    r = np.linalg.norm(M - 0.5 * (np.outer(a, b) + np.outer(b, a)))
    return bool(r <= 1e-7 * np.linalg.norm(M))


def _lmin(M1, M2, th):
    """Smallest eigenvalue of cos(th) M1 + sin(th) M2 for each angle in th.

    A scalar th gives a 0-d array; an array of angles is decided by one
    stacked LAPACK call.
    """
    th = np.asarray(th, dtype=float)[..., None, None]
    return np.linalg.eigvalsh(np.cos(th) * M1 + np.sin(th) * M2)[..., 0]


def _angular_scan(M1, M2, scale):
    """Weights of a PSD combination, or None: the best of 4000 angles for
    lambda_min, refined by golden section, if ``_psd_combination`` accepts it."""
    thetas = np.linspace(0.0, 2.0 * np.pi, 4000, endpoint=False)

    def lmin(th):
        return float(_lmin(M1, M2, th))

    k = int(np.argmax(_lmin(M1, M2, thetas)))
    a = thetas[k] - 2.0 * np.pi / 4000
    b = thetas[k] + 2.0 * np.pi / 4000
    # golden-section refinement of the (concave near max) profile, one new
    # evaluation per step.  The bracket lies inside (-pi, 2pi), where no ulp
    # exceeds spacing(2pi), so every step shrinks it; from the 4000-point
    # grid the loop ends after about 58 steps.
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    e = a + gr * (b - a)
    fc, fe = lmin(c), lmin(e)
    while b - a > 4.0 * np.spacing(2.0 * np.pi):
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - gr * (b - a)
            fc = lmin(c)
        else:
            a, c, fc = c, e, fe
            e = a + gr * (b - a)
            fe = lmin(e)
    th = 0.5 * (a + b)
    alpha = np.array([np.cos(th), np.sin(th)])
    alpha /= np.max(np.abs(alpha))
    return alpha if _psd_combination(M1, M2, alpha, scale) else None


def _condition_i(M1, M2, scale):
    """(alpha, Z, route): condition (i) for a linearly independent pair.

    alpha passes ``_psd_combination``, or else Z (when not None) passes
    ``_is_pd_witness``; route names the step that settled it.
    ``_gordan_stiemke`` settles it alone ("bisection") when it returns
    weights, or a Z that ``_excludes_psd_combination`` proves leaves no
    weights to find.  Otherwise ``_angular_scan`` runs ("scan") and its
    weights, if any, win, so the outcome is that of scanning first.
    """
    alpha, Z = _gordan_stiemke(M1, M2, scale)
    if alpha is not None or (Z is not None and _excludes_psd_combination(M1, M2, Z, scale)):
        return alpha, Z, "bisection"
    alpha = _angular_scan(M1, M2, scale)
    return alpha, (Z if alpha is None else None), "scan"


def _common_factor(mats):
    """(c, cofactors): unit c with M_j = Sym(k_j c^T) for every member, or None.

    Candidates for c are the first member's splitting factors whose
    direction every other member's splitting shares.  The search is
    complete: z^T Sym(p q^T) z = (p^T z)(q^T z), so a member's splitting
    directions are unique up to scale, and a None from this deterministic
    search is itself the proof, for a pair, that condition (ii) fails.
    """
    try:
        splits = [decompose_rank2_indefinite(M) for M in mats]
    except DecompositionImpossible:
        return None
    for cand in splits[0]:
        if not all(_same_direction(cand, a) or _same_direction(cand, b)
                   for a, b in splits[1:]):
            continue
        c = _unit(cand)
        cofactors = []
        for a, b in splits:
            shared, other = (a, b) if _same_direction(c, a) else (b, a)
            # rescale the co-factor so that M_j = Sym(k_j c^T) exactly
            sgn = 1.0 if float(shared @ c) > 0 else -1.0
            cofactors.append(other * float(np.linalg.norm(shared)) * sgn)
        if all(_is_sym_product(M, k, c) for M, k in zip(mats, cofactors)):
            return c, cofactors
    return None


def check_pair(M1, M2, seed: int = 0, eps: float = 1e-7) -> RogVerdict:
    """Complete two-LMI ROG decision with a machine-checkable certificate.

    The decision is deterministic and makes no conic solve; its
    diagnostics["route"] is "dependent" or the route of ``_condition_i``.
    ``seed`` and ``eps`` are accepted and ignored, only so that callers
    which pass them (the benchmark workloads) keep working.
    """
    M1, M2 = linalg.sym(M1), linalg.sym(M2)
    if M1.shape != M2.shape:
        raise ValueError("dimension mismatch")

    # (a) linear dependence: a single LMI is always ROG
    alpha = _dependence(M1, M2)
    if alpha is not None:
        # the combination is ~0, so it passes _psd_combination
        return RogVerdict(status="ROG_CERTIFIED",
                          certificate={"kind": "AggregationWeights", "alpha": alpha,
                                       "note": "linearly dependent pair"},
                          diagnostics={"route": "dependent"})

    # (b) condition (i): some nonzero combination PSD, or else a PD matrix
    # orthogonal to both
    alpha, Z, route = _condition_i(M1, M2, _pair_scale(M1, M2))
    if alpha is not None:
        return RogVerdict(status="ROG_CERTIFIED",
                          certificate={"kind": "AggregationWeights", "alpha": alpha},
                          diagnostics={"route": route})
    if Z is None:
        return RogVerdict(status="UNDECIDED",
                          diagnostics={"route": route,
                                       "reason": "no PSD combination and no PD witness"})

    # (c) condition (ii): shared factor across rank-2 splittings.  A factor
    # found here spans a 3-dimensional joint range with a and b, so no range
    # test is needed: c = alpha a + beta b would make alpha M1 + beta M2 =
    # c c^T PSD, decided at (b), and a parallel to b a dependent pair (a).
    common = _common_factor((M1, M2))
    if common is not None:
        c, (a, b) = common
        return RogVerdict(status="ROG_CERTIFIED",
                          certificate={"kind": "CommonFactor", "a": a, "b": b, "c": c},
                          diagnostics={"route": route})

    # (d) neither condition: not ROG, and the PD witness refuting (i) is the
    # certificate, since the verifier repeats the search for (ii)
    return RogVerdict(status="NOT_ROG_CERTIFIED",
                      certificate={"kind": "PdWitness", "Z": Z},
                      diagnostics={"route": route})


def verify_certificate(verdict: RogVerdict, M1, M2) -> bool:
    """Re-verify a pair verdict's certificate from M1 and M2 alone.

    Every fact the certificate claims is recomputed with the predicate the
    decision path applied before emitting it; what the certificate reports
    about itself (notes, any extra field) is ignored.  A PdWitness refutes
    condition (i) through Z and condition (ii) by ``_common_factor`` on the
    pair itself.
    """
    M1, M2 = linalg.sym(M1), linalg.sym(M2)
    scale = _pair_scale(M1, M2)
    cert = verdict.certificate
    kind = cert.get("kind")
    if verdict.status == "ROG_CERTIFIED" and kind == "AggregationWeights":
        return _psd_combination(M1, M2, cert["alpha"], scale)
    if verdict.status == "ROG_CERTIFIED" and kind == "CommonFactor":
        a, b, c = (np.asarray(cert[k], dtype=float) for k in ("a", "b", "c"))
        return _is_sym_product(M1, a, c) and _is_sym_product(M2, b, c)
    if verdict.status == "NOT_ROG_CERTIFIED" and kind == "PdWitness":
        return (_is_pd_witness(M1, M2, linalg.sym(cert["Z"]), scale)
                and _common_factor((M1, M2)) is None)
    return False


# ---------------------------------------------------------------------------
# 3x3 zero-set lines and rank-two extreme-ray witnesses
# ---------------------------------------------------------------------------


def null_set_lines_3d(M1, M2):
    """Unit directions spanning the common zero lines of two 3x3 forms.

    A real root (a, b) of the binary cubic det(b M1 - a M2) gives a singular
    member N of the pencil (M1 itself when the pencil is singular).  With no
    PSD combination N is indefinite of rank two, N = Sym(p q^T), so every
    common zero lies on the plane p^T z = 0 or q^T z = 0.  On each plane the
    two forms are proportional, and the zeros of the larger one's
    restriction (none when it is definite) are the plane's lines.  At most
    four lines exist; a dependent pair or one admitting a PSD combination or
    a common factor raises ValueError.
    """
    import scipy.linalg

    M1, M2 = linalg.sym(M1), linalg.sym(M2)
    if M1.shape != (3, 3) or M2.shape != (3, 3):
        raise ValueError("dimension must be 3")
    if _dependence(M1, M2) is not None:
        raise ValueError("pair is linearly dependent")
    if _condition_i(M1, M2, _pair_scale(M1, M2))[0] is not None:
        raise ValueError("a PSD combination exists; zero set is not four lines")
    if _common_factor((M1, M2)) is not None:
        raise ValueError("pair shares a common factor; zero set contains a plane")

    ab = scipy.linalg.eigvals(M1, M2, homogeneous_eigvals=True)
    a, b = ab[:, int(np.argmin(np.abs(ab[0].imag)))].real
    singular = abs(a) <= 1e-12 * np.linalg.norm(M1) and abs(b) <= 1e-12 * np.linalg.norm(M2)
    N = M1 if singular else b * M1 - a * M2
    directions = []
    for p in decompose_rank2_indefinite(N):
        P = linalg.kernel_basis(np.outer(p, p))
        # P^T M P is symmetric only up to rounding
        R = linalg.sym(max((P.T @ M @ P for M in (M1, M2)), key=np.linalg.norm))
        try:
            factors = decompose_rank2_indefinite(R)
        except DecompositionImpossible:  # definite: no zero on this plane
            continue
        for f in factors:
            z = _unit(np.cross(p, P @ f))
            if not any(_same_direction(z, d0, tol=1e-7) for d0 in directions):
                directions.append(z)
    return directions


def construct_rank2_witness_3d(M1, M2, seed: int = 0):
    """Rank-two extreme-ray witness for a 3x3 pair failing both conditions.

    Draws seeded unit directions w, matches each in closed form with a u
    such that (u^T M_i u) = -(w^T M_i w) (``_match``), and returns the first
    Z = w w^T + u u^T that ``verify_extreme_rank2`` accepts.  The joint
    range of two quadratic forms is convex (Dines), so such u exist, and a
    verified rank-two extreme ray refutes ROG however it was found.
    """
    M1, M2 = linalg.sym(M1), linalg.sym(M2)
    norms = _norms(M1, M2)
    rng = np.random.default_rng(seed)
    for attempt in range(200):
        w = _unit(rng.standard_normal(3))
        u = _match(M1, M2, -np.array([float(w @ M1 @ w), float(w @ M2 @ w)]))
        if u is None:
            continue
        Z = np.outer(w, w) + np.outer(u, u)
        ok, res_val = _extreme_rank2(Z, M1, M2, norms)
        if ok:
            return {"Z": Z, "w": w, "u": u, "resultant": res_val, "seed": seed,
                    "attempt": attempt}
    raise ConstructionFailed("witness construction budget exhausted")


def _match(M1, M2, target):
    """A u with (u^T M1 u, u^T M2 u) = target = (a, b), or None.

    Such u are zeros of N = b M1 - a M2 (or of -N, taken when it has more
    positive eigenvalues), and so are cos(t) v_p + sin(t) v_q + v_n over 64
    angles t: v_p, v_q its first and last positive eigenvectors, v_n each
    negative one, each divided by sqrt|eigenvalue|.  For a 3x3 N of
    signature (2, 1) these sample the whole zero cone.  The one on which the
    larger-|target| form has the target's sign by the widest margin per
    unit length is scaled onto the target; None when there is none.
    """
    a, b = target
    lam, V = np.linalg.eigh(b * M1 - a * M2)
    cut = linalg.rank_cut(lam)
    if np.sum(lam > cut) < np.sum(lam < -cut):
        lam = -lam
    pos = V[:, lam > cut] / np.sqrt(lam[lam > cut])
    neg = V[:, lam < -cut] / np.sqrt(-lam[lam < -cut])
    if neg.shape[1] == 0:
        return None
    # one positive eigenpair leaves the two zeros +-v_p / sqrt(l_p) + v_n / sqrt(-l_n)
    th = np.linspace(0.0, 2.0 * np.pi, 64 if pos.shape[1] > 1 else 2, endpoint=False)
    ring = np.outer(pos[:, 0], np.cos(th)) + np.outer(pos[:, -1], np.sin(th))
    X = np.hstack([ring + neg[:, [j]] for j in range(neg.shape[1])])
    k = int(np.argmax(np.abs(target)))
    vals = linalg.form_values((M1, M2)[k], X) * np.sign(target[k])
    j = int(np.argmax(vals / np.sum(X * X, axis=0)))
    if vals[j] <= 0.0:
        return None
    return X[:, j] * np.sqrt(abs(target[k]) / vals[j])


def verify_extreme_rank2(Z, M1, M2):
    """Certify that Z spans a rank-two extreme ray of the two-LME slice.

    Checks that Z is PSD of rank 2, that |<M_i, Z>| <= 1e-7 ||M_i||_2 ||Z||_2,
    and that |resultant| of the two forms restricted to range(Z) (no rank-one
    feasible direction inside the range) exceeds RESULTANT_TOL ||M1||_2^2
    ||M2||_2^2: scaling Z or an M_i leaves the slice and the answer alone.
    Returns (bool, resultant value).
    """
    Z, M1, M2 = linalg.sym(Z), linalg.sym(M1), linalg.sym(M2)
    return _extreme_rank2(Z, M1, M2, _norms(M1, M2))


def _extreme_rank2(Z, M1, M2, norms):
    """``verify_extreme_rank2`` for symmetric inputs; norms = ``_norms(M1, M2)``."""
    lam, V = np.linalg.eigh(Z)
    cut = linalg.rank_cut(lam)
    if lam[-2] <= cut or np.any(np.abs(lam[:-2]) > cut):
        return False, 0.0
    n1, n2 = (float(n) for n in norms)
    if any(abs(float(np.sum(M * Z))) > 1e-7 * n * lam[-1] for M, n in ((M1, n1), (M2, n2))):
        return False, 0.0
    p, q = V[:, -1], V[:, -2]
    q1 = (float(p @ M1 @ p), 2.0 * float(p @ M1 @ q), float(q @ M1 @ q))
    q2 = (float(p @ M2 @ p), 2.0 * float(p @ M2 @ q), float(q @ M2 @ q))
    res = linalg.binary_quadratic_resultant(q1, q2)
    return abs(res) > RESULTANT_TOL * n1**2 * n2**2, res


# ---------------------------------------------------------------------------
# Larger families: sufficient rules and probe evidence
# ---------------------------------------------------------------------------


def check_pairwise_sufficient(mset: LmiSet) -> RogVerdict:
    """Every distinct pair admitting a PSD combination is sufficient for ROG."""
    mats = mset.expanded()
    weights = []
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if _dependence(mats[i], mats[j]) is not None:
                weights.append(((i, j), "dependent"))
                continue
            alpha = _condition_i(mats[i], mats[j], _pair_scale(mats[i], mats[j]))[0]
            if alpha is None:
                return RogVerdict(status="UNDECIDED",
                                  diagnostics={"failing_pair": (i, j)})
            weights.append(((i, j), alpha))
    return RogVerdict(status="ROG_BY_SUFFICIENT_RULE",
                      certificate={"kind": "PairwisePsd", "weights": weights})


def check_common_factor(mset: LmiSet) -> RogVerdict:
    """All members sharing one factor direction is sufficient for ROG.

    Needs at least one member (ValueError otherwise); ``check_set`` decides
    smaller sets itself.
    """
    mats = mset.expanded()
    if not mats:
        raise ValueError("common-factor rule needs at least one member")
    found = _common_factor(mats)
    if found is None:
        return RogVerdict(status="UNDECIDED",
                          diagnostics={"reason": "no common factor"})
    c, cofactors = found
    return RogVerdict(status="ROG_BY_SUFFICIENT_RULE",
                      certificate={"kind": "CommonFactor", "c": c,
                                   "cofactors": cofactors})


def detect_soc_cap(mset: LmiSet) -> RogVerdict:
    """Structural rule: a common-factor family plus one capping LMI.

    Matches sets of the shape {Sym(-c k_j^T)} + {L} where L has exactly one
    negative eigenvalue and every co-factor k_j satisfies k_j^T L k_j <= 0;
    such caps of a rank-one-generated cone slice remain rank-one generated.
    """
    mats = list(mset.matrices)
    if len(mats) < 2 or any(s != "LE" for s in mset.senses):
        return RogVerdict(status="UNDECIDED", diagnostics={"reason": "shape mismatch"})
    for cap_idx in range(len(mats)):
        L = mats[cap_idx]
        w = np.linalg.eigvalsh(L)
        scale = float(np.max(np.abs(w)))
        n_neg = int(np.sum(w < -1e-7 * scale))
        if n_neg != 1:
            continue
        found = _common_factor([m for k, m in enumerate(mats) if k != cap_idx])
        if found is None:
            continue
        c, cofs = found
        if all(float(k @ L @ k) <= 1e-7 * scale * float(k @ k) for k in cofs):
            return RogVerdict(
                status="ROG_BY_SUFFICIENT_RULE",
                certificate={"kind": "SocCap", "cap_index": cap_idx,
                             "c": c, "cofactors": cofs})
    return RogVerdict(status="UNDECIDED", diagnostics={"reason": "no cap structure"})


def check_set(mset: LmiSet) -> RogVerdict:
    """ROG decision for an LMI set of any size.

    No or one member: ROG (the PSD cone and any slice of it by one
    homogeneous LMI are rank-one generated).  Two members, of either sense:
    the complete pair decision ``check_pair``.  Three or more: the cap
    rule, the common-factor rule and the pairwise rule in that order; the
    first that applies decides, otherwise the last UNDECIDED is returned.
    """
    mats = mset.matrices
    if len(mats) < 2:
        return RogVerdict(status="ROG_CERTIFIED",
                          certificate={"kind": "SingleLmi" if mats else "PsdCone"})
    if len(mats) == 2:
        return check_pair(*mats)
    for rule in (detect_soc_cap, check_common_factor, check_pairwise_sufficient):
        v = rule(mset)
        if v.status == "ROG_BY_SUFFICIENT_RULE":
            return v
    return v


def _empty_slice_weights(mats):
    """theta >= 0 with lambda_min(sum theta_i M_i) > slack * sum theta_i, or
    None, for the sphere oracle's feasibility slack.

    Such a combination leaves the probe's slice {Z PSD, tr Z = 1,
    <M_i, Z> <= 0} empty and no unit z with every z^T M_i z <= slack.  Each
    member alone is tried, then each pair at the best of 1000 angles in the
    quadrant [0, pi/2] (one stacked ``_lmin``); a candidate counts only once
    ``eigvalsh`` of the explicit combination confirms it.
    """
    slack = oracles.SPHERE_SLACK
    m = len(mats)
    phis = np.linspace(0.0, 0.5 * np.pi, 1000)
    quad = np.stack([np.cos(phis), np.sin(phis)], axis=1)

    def candidates():
        yield from np.eye(m)
        for i, j in itertools.combinations(range(m), 2):
            margin = _lmin(mats[i], mats[j], phis) - slack * quad.sum(axis=1)
            theta = np.zeros(m)
            theta[[i, j]] = quad[int(np.argmax(margin))]
            yield theta

    for theta in candidates():
        combo = sum(t * M for t, M in zip(theta, mats))
        if np.linalg.eigvalsh(combo)[0] > slack * float(np.sum(theta)):
            return theta
    return None


PROBE_GAP_TOL = 1e-3


def probe_random_objectives(mset: LmiSet, trials: int = 10, seed: int = 0,
                            samples: int = 200000, eps: float = 1e-7,
                            max_iter: int = 50000):
    """Sampled one-sided refutation: compare the slice optimum against the
    best feasible rank-one value for random objectives.  A gap beyond
    PROBE_GAP_TOL is evidence against ROG; no gap never certifies ROG.

    Every trial is recorded with its solver status, but only trials whose
    SDP solved to OPTIMAL count towards max_gap (None when there are none)
    and flagged: an unconverged or infeasible slice value is no bound.  A
    slice that a nonnegative definite combination empties (returned as
    empty_slice_theta) gets no solve: each trial is recorded as EMPTY_SLICE
    with both values +inf and gap NaN.

    The sphere oracle stops polishing once its value is at most
    v_sdp + PROBE_GAP_TOL: the full polish would only lower it, v_full <=
    v_early, so gap_full <= gap_early <= PROBE_GAP_TOL and no record's
    gap test or flag changes.  v_rank1 may then sit above the full-polish
    value, but only on a record that neither run flags.
    """
    d = mset.dim
    if d > 4:
        raise ValueError("probe limited to dimension <= 4")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    rng = np.random.default_rng(seed)
    mats = mset.expanded()
    theta = _empty_slice_weights(mats)
    cons = (*(solver.Constraint(M, "LE", 0.0) for M in mats),
            solver.Constraint(np.eye(d), "EQ", 1.0))
    gaps = []
    records = []
    for k in range(trials):
        if theta is not None:
            records.append({"trial": k, "status": "EMPTY_SLICE", "v_sdp": np.inf,
                            "v_rank1": np.inf, "gap": np.nan})
            continue
        G = rng.standard_normal((d, d))
        C = 0.5 * (G + G.T)
        prog = solver.ConicProgram(dim=d, objective_matrix=C, constraints=cons)
        sol = solver.solve(prog, eps=eps, max_iter=max_iter)
        # v_sdp + PROBE_GAP_TOL may round up; step it down until its own
        # computed gap is at most PROBE_GAP_TOL, so no value at or below it
        # can flag (the rounded subtraction is monotone)
        stop_at = sol.objective_value + PROBE_GAP_TOL
        while stop_at - sol.objective_value > PROBE_GAP_TOL:
            stop_at = np.nextafter(stop_at, -np.inf)
        v_rank1, _ = oracles.sphere_min_rank_one(
            mats, C, seed=seed + 1000 + k, samples=samples, stop_at=stop_at)
        gap = v_rank1 - sol.objective_value
        if sol.status == solver.SolveStatus.OPTIMAL:
            gaps.append(gap)
        records.append({"trial": k, "status": sol.status.name,
                        "v_sdp": sol.objective_value, "v_rank1": v_rank1,
                        "gap": gap})
    worst = max(gaps, default=None)
    return {"max_gap": worst, "flagged": worst is not None and bool(worst > PROBE_GAP_TOL),
            "records": records, "seed": seed, "trials": trials,
            "empty_slice_theta": theta}


def clconv_report(inst, verdict: RogVerdict):
    """Convex-hull consequence of an ROG relaxation slice.

    Searches the cone spanned by the homogenized objective and constraints
    for a combination whose leading block is definite: together with an ROG
    verdict, a definite block closes the hull (CLCONV_EQUALS_DSDP) and a
    semidefinite one closes it up to closure (CLCONV_EQUALS_CL_DSDP).
    """
    n = inst.n
    blocks = [M[:n, :n] for M in (inst.forms[0], *LmiSet.from_instance(inst).expanded())]
    # the solve sees unit-norm blocks, so its cut and the one below on t
    # mean the same at every scale; t is reported in the instance's units
    scale = max(float(np.linalg.norm(A, 2)) for A in blocks) or 1.0
    t_unit, theta = _max_min_eig_over_simplex([A / scale for A in blocks])
    t_star = None if t_unit is None else t_unit * scale
    rog_ok = verdict.status in ("ROG_CERTIFIED", "ROG_BY_SUFFICIENT_RULE")
    if not rog_ok:
        return {"consequence": "NO_CONSEQUENCE", "t": t_star,
                "reason": "no rank-one-generated verdict"}
    if t_star is None:
        return {"consequence": "NO_CONSEQUENCE", "t": None,
                "reason": "no nonzero simplex weights"}
    if t_unit > 1e-7:
        return {"consequence": "CLCONV_EQUALS_DSDP", "t": t_star, "theta": theta}
    if t_unit > -1e-7:
        return {"consequence": "CLCONV_EQUALS_CL_DSDP", "t": t_star, "theta": theta}
    return {"consequence": "NO_CONSEQUENCE", "t": t_star}


def _max_min_eig_over_simplex(blocks):
    """(t, theta): simplex weights and t = lambda_min(sum theta_j A_j).

    theta is the clipped, normalised dual of the minimax program min over
    unit-trace PSD Z of max_j <A_j, Z> (blocks of 2-norm at most 1, shifted
    by 2 I so the scalar stays positive); t is computed from theta, not read
    off the solver.  Weights summing to 1e-12 or less are no combination:
    (None, None).
    """
    import scipy.linalg

    d = blocks[0].shape[0]
    shifted = [A + 2.0 * np.eye(d) for A in blocks]
    cons = [solver.Constraint(scipy.linalg.block_diag(A, -1.0), "LE", 0.0) for A in shifted]
    cons.append(solver.Constraint(scipy.linalg.block_diag(np.eye(d), 0.0), "EQ", 1.0))
    C = scipy.linalg.block_diag(np.zeros((d, d)), 1.0)
    prog = solver.ConicProgram(dim=d + 1, objective_matrix=C, constraints=tuple(cons))
    theta = np.clip(solver.solve(prog).y[: len(blocks)], 0.0, None)
    tot = float(np.sum(theta))
    if tot <= 1e-12:
        return None, None
    theta = theta / tot
    combo = sum(th * A for th, A in zip(theta, blocks))
    return float(np.linalg.eigvalsh(combo)[0]), theta


# ---------------------------------------------------------------------------
# Random-pair battery
# ---------------------------------------------------------------------------

BATTERY_DIMS = (3, 3, 3, 4, 4)  # cycled over the pair index
BATTERY_EPS = 1e-5


def run_battery(pairs: int = 200, seed: int = 3) -> dict:
    """Decide seeded random pairs and cross-check every verdict.

    Pair k is two symmetric Gaussian matrices of dimension
    BATTERY_DIMS[k % 5].  Each certificate is re-verified; a failure is
    listed in verify_failures.  Each ROG_CERTIFIED pair is probed with two
    random objectives, and a finite rank-one value more than PROBE_GAP_TOL
    above its slice value is an inconsistency, as is a 3x3 NOT_ROG_CERTIFIED
    pair whose rank-two witness cannot be built or does not verify.  The
    probe can only contradict a ROG verdict, so other pairs are not probed
    and their rows carry max_gap None.
    """
    rng = np.random.default_rng(seed)
    counts, rows = {}, []
    verify_failures, inconsistencies = [], []
    t0 = time.perf_counter()
    for k in range(pairs):
        d = BATTERY_DIMS[k % len(BATTERY_DIMS)]
        G1 = rng.standard_normal((d, d))
        G2 = rng.standard_normal((d, d))
        M1, M2 = 0.5 * (G1 + G1.T), 0.5 * (G2 + G2.T)
        verdict = check_pair(M1, M2)
        counts[verdict.status] = counts.get(verdict.status, 0) + 1
        verified = verify_certificate(verdict, M1, M2)
        if not verified:
            verify_failures.append(k)
        max_gap = None
        if verdict.status == "ROG_CERTIFIED":
            probe = probe_random_objectives(
                LmiSet((M1, M2), ("LE", "LE")), trials=2, seed=k, samples=2048,
                eps=BATTERY_EPS, max_iter=5000)
            max_gap = probe["max_gap"]
            for rec in probe["records"]:
                if np.isfinite(rec["v_rank1"]) and rec["gap"] > PROBE_GAP_TOL:
                    inconsistencies.append(
                        {"pair": k, "trial": rec["trial"], "gap": rec["gap"]})
        witness_ok = None
        if d == 3 and verdict.status == "NOT_ROG_CERTIFIED":
            try:
                built = construct_rank2_witness_3d(M1, M2, seed=k)
                witness_ok, _ = verify_extreme_rank2(built["Z"], M1, M2)
            except ConstructionFailed:
                witness_ok = False
            if not witness_ok:
                inconsistencies.append({"pair": k, "stage": "witness"})
        rows.append({"pair": k, "dim": d, "status": verdict.status,
                     "verified": verified, "max_gap": max_gap,
                     "witness_ok": witness_ok})
    return {"pairs": pairs, "seed": seed, "counts": counts,
            "verify_failures": verify_failures,
            "inconsistencies": inconsistencies,
            "elapsed_s": time.perf_counter() - t0, "rows": rows}
