"""Multiplier cone: H-representation, extreme rays, faces, kernels."""

import numpy as np
import pytest

from sdpexact import exactness, gallery, gamma, linalg, model
from conftest import (DIAGONAL_GALLERY, WEAK_FAMILY, q, diag_family, make_explicit_instance,
                      make_gtrs, scaled)

EXPECTED_EXPLICIT_RAYS = [
    np.array([1.0, 0.0, 0.0]),
    np.array([1.0, 0.0, 0.5]),
    np.array([1.0, 0.5, 0.0]),
    np.array([1.0, 1.0, 1.0]),
]


def _match_up_to_scale(r, target, tol=1e-9):
    nr = r / np.max(np.abs(r))
    nt = target / np.max(np.abs(target))
    return np.max(np.abs(nr - nt)) <= tol


class TestHRep:
    def test_explicit_instance_rows(self):
        H = gamma.build_gamma_hrep_diag(make_explicit_instance())
        assert H.shape == (5, 3)
        # diagonal rows: (1, -2, 1) and (1, 1, -2); sign rows e0, e1, e2
        assert any(np.allclose(r, [1.0, -2.0, 1.0]) for r in H)
        assert any(np.allclose(r, [1.0, 1.0, -2.0]) for r in H)

    def test_nondiagonal_rejected(self):
        inst = model.QcqpInstance(2, q([[0.0, 1.0], [1.0, 0.0]], [0, 0], 0))
        with pytest.raises(gamma.NotDiagonalError):
            gamma.build_gamma_hrep_diag(inst)


class TestDoubleDescription:
    def test_orthant(self):
        rays = gamma.dd_extreme_rays(np.eye(3))
        assert len(rays) == 3
        for e in np.eye(3):
            assert any(_match_up_to_scale(r, e) for r in rays)

    def test_transformed_orthant_matches_inverse_columns(self):
        # {x : A x >= 0} with invertible A has extreme rays = columns of A^-1
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            A = rng.standard_normal((d, d)) + d * np.eye(d)
            if abs(np.linalg.det(A)) < 1e-3:
                continue
            rays = gamma.dd_extreme_rays(A)
            cols = np.linalg.inv(A).T  # rows of inv(A).T = columns of inv(A)
            assert len(rays) == d
            for cvec in np.linalg.inv(A).T:
                assert any(_match_up_to_scale(r, cvec, tol=1e-7) for r in rays)

    def test_explicit_instance_rays(self):
        H = gamma.build_gamma_hrep_diag(make_explicit_instance())
        rays = gamma.dd_extreme_rays(H)
        assert len(rays) == 4
        for target in EXPECTED_EXPLICIT_RAYS:
            assert any(_match_up_to_scale(r, target) for r in rays)

    def test_rays_satisfy_hrep_and_extremality(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            rows = np.vstack([np.eye(d), rng.standard_normal((3, d))])
            rays = gamma.dd_extreme_rays(rows)
            for r in rays:
                assert np.all(rows @ r >= -1e-8 * max(1.0, np.linalg.norm(r)))
                act = sorted(i for i in range(rows.shape[0])
                             if abs(rows[i] @ r) <= 1e-9 * max(1.0, np.linalg.norm(r)))
                assert np.linalg.matrix_rank(rows[act], tol=1e-10) >= d - 1

    def test_cross_representation_lp(self):
        # every H-feasible point is a nonnegative combination of the rays
        import scipy.optimize

        rng = np.random.default_rng(13)
        H = gamma.build_gamma_hrep_diag(make_explicit_instance())
        rays = np.array(gamma.dd_extreme_rays(H))
        for _ in range(25):
            lam = rng.random(len(rays)) * 2.0
            x = lam @ rays  # inside by construction
            res = scipy.optimize.linprog(
                np.zeros(len(rays)), A_eq=rays.T, b_eq=x,
                bounds=[(0, None)] * len(rays), method="highs")
            assert res.status == 0
        # a point violating a row is not representable
        res = scipy.optimize.linprog(
            np.zeros(len(rays)), A_eq=rays.T, b_eq=[1.0, 0.0, -1.0],
            bounds=[(0, None)] * len(rays), method="highs")
        assert res.status != 0

    def test_lineality_rejected(self):
        with pytest.raises(gamma.NotPointedError):
            gamma.dd_extreme_rays(np.array([[1.0, 0.0]]))

    def test_dim_two_adjacent_pairs(self):
        # a planar cone bounded by two rows keeps both boundary rays
        rays = gamma.dd_extreme_rays(np.array([[1.0, 0.0], [-1.0, 1.0]]))
        assert len(rays) == 2


class TestGenerators:
    def test_verify_explicit_rays(self):
        inst = make_explicit_instance()
        for ray in EXPECTED_EXPLICIT_RAYS:
            assert gamma.verify_generator(inst, ray)

    def test_reject_negative_obj_multiplier(self):
        inst = make_explicit_instance()
        assert not gamma.verify_generator(inst, [-1.0, 0.0, 0.0])

    def test_reject_indefinite_aggregate(self):
        inst = make_explicit_instance()
        assert not gamma.verify_generator(inst, [0.0, 1.0, 0.0])

    def test_psd_threshold_relative_to_spectrum(self):
        # lambda_min = -1e-2 passes beside lambda_max = 1e6 (cut -0.1), fails beside 1
        for top, ok in ((1e6, True), (1.0, False)):
            inst = model.QcqpInstance(2, q(np.diag([top, -1e-2]), [0, 0], 0))
            assert gamma.verify_generator(inst, [1.0]) is ok

    def test_definiteness_witness_exists(self):
        inst = make_explicit_instance()
        gd = gamma.build_gamma_data(inst)
        assert gd.assumption1_witness is not None
        agg = model.aggregate(inst, gd.assumption1_witness)
        assert np.linalg.eigvalsh(agg[:-1, :-1])[0] > 0.0

    def test_no_witness_when_cone_trivial(self):
        # unconstrained indefinite objective: only the zero multiplier works
        inst = model.QcqpInstance(2, q(np.diag([1.0, -1.0]), [0, 0], 0))
        gd = gamma.build_gamma_data(inst)
        assert gd.assumption1_witness is None


class TestFaces:
    def test_explicit_face_lattice(self):
        # only the faces maximal for their V(F): the zero aggregate (3,) with
        # V(F) = R^2, (1, 3) and (2, 3) with the two coordinate axes, and the
        # full support, which is definite
        gd = gamma.build_gamma_data(make_explicit_instance())
        assert [f.generator_indices for f in gd.faces] == [(3,), (1, 3), (2, 3), (0, 1, 2, 3)]
        assert [f.classification for f in gd.faces] == ["SEMIDEFINITE"] * 3 + ["DEFINITE"]
        assert [f.vf_basis.shape[1] for f in gd.faces] == [2, 1, 1, 0]

    def test_vf_on_full_kernel_face(self):
        inst = make_explicit_instance()
        gd = gamma.build_gamma_data(inst)
        # the ray (1,1,1) aggregates to the zero matrix: V(F) is everything
        face = next(f for f in gd.faces
                    if f.generator_indices == (3,))
        assert face.classification == "SEMIDEFINITE"
        assert face.vf_basis.shape == (2, 2)

    def test_definite_faces_have_witness(self):
        gd = gamma.build_gamma_data(make_explicit_instance())
        for f in gd.faces:
            if f.classification == "DEFINITE":
                assert f.witness is not None
            else:
                assert f.vf_basis.shape[1] >= 1

    def test_face_heredity_of_kernels(self):
        # V(face) grows when the generator set shrinks
        inst = make_explicit_instance()
        gd = gamma.build_gamma_data(inst)
        by_support = {f.generator_indices: f for f in gd.faces}
        for sup, f in by_support.items():
            for sub, g in by_support.items():
                if set(sub) < set(sup):
                    assert g.vf_basis.shape[1] >= f.vf_basis.shape[1]

    def test_slice_vrep_split(self):
        verts, rays = gamma.face_slice_vrep([
            np.array([1.0, 2.0, 4.0]), np.array([0.0, 1.0, 0.0])])
        assert len(verts) == 1 and np.allclose(verts[0], [2.0, 4.0])
        assert len(rays) == 1 and np.allclose(rays[0], [1.0, 0.0])

    def test_supplied_generators_path(self):
        inst = make_explicit_instance()
        gd_auto = gamma.build_gamma_data(inst)
        gd_sup = gamma.build_gamma_data(inst, supplied_generators=list(gd_auto.generators))
        assert gd_sup.provenance == "GENERATOR_SUPPLIED"
        assert len(gd_sup.generators) == 4
        assert gd_sup.assumption1_witness is not None
        assert {f.generator_indices for f in gd_sup.faces} == \
            {f.generator_indices for f in gd_auto.faces}

    def test_supplied_generator_rejected_when_invalid(self):
        inst = make_explicit_instance()
        with pytest.raises(ValueError):
            gamma.build_gamma_data(inst, supplied_generators=[[0.0, 1.0, 0.0]])


class TestComputedOnce:
    """Each support is classified, and its V(F) found, from one
    eigendecomposition, no support twice, and Assumption 1 is read off the
    last face (the full generator support)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        eigs, supports = [], []
        eig_sym, classify_face = linalg.eig_sym, gamma.classify_face

        def counted_eig(S):
            eigs.append(S)
            return eig_sym(S)

        def counted_classify(inst, gens):
            supports.append(np.asarray(gens).tobytes())
            return classify_face(inst, gens)

        monkeypatch.setattr(linalg, "eig_sym", counted_eig)
        monkeypatch.setattr(gamma, "classify_face", counted_classify)
        return eigs, supports

    @pytest.mark.parametrize("make", [make_explicit_instance, lambda: make_gtrs(0),
                                      lambda: diag_family(5, 1, 3, 2)[0]])
    def test_one_eigendecomposition_per_face(self, calls, make):
        eigs, supports = calls
        inst = make()
        eigs.clear()
        gd = gamma.build_gamma_data(inst)
        assert len(gd.faces) >= 2
        assert len(eigs) == len(supports) == len(set(supports)) >= len(gd.faces)
        full = gd.faces[-1]
        assert full.generator_indices == tuple(range(len(gd.generators)))
        assert gd.assumption1_witness is full.witness

    def test_classify_face_vf_is_the_shared_kernel(self):
        inst = make_explicit_instance()
        gd = gamma.build_gamma_data(inst)
        for face in gd.faces:
            gens = [gd.generators[k] for k in face.generator_indices]
            cls, witness, B = gamma.classify_face(inst, gens)
            assert cls == face.classification
            if cls == "DEFINITE":
                assert B.shape == (inst.n, 0) and witness is not None
                continue
            assert witness is None and B.shape[1] >= 1
            for g in gens:
                assert np.linalg.norm(model.aggregate(inst, g)[:-1, :-1] @ B) <= 1e-9


def _lattice_gamma_data(inst):
    """Gamma data as the face lattice gave it: every support reached by
    tightening H-rows (breadth first), each classified with the DEFINITE cut
    floored at max(1, max |lambda|) and V(F) cut at ``linalg.rank_cut``."""
    rows = gamma.build_gamma_hrep_diag(inst)
    gens = gamma.dd_extreme_rays(rows)
    active = [{i for i, v in enumerate(rows @ g)
               if abs(v) <= gamma.RAY_TOL * max(1.0, np.linalg.norm(g))} for g in gens]
    seen, queue = set(), [frozenset(range(len(gens)))]
    while queue:
        sup = queue.pop()
        if sup and sup not in seen:
            seen.add(sup)
            queue += [frozenset(k for k in sup if i in active[k]) for i in range(len(rows))]
    faces = []
    for fid, sup in enumerate(sorted(seen, key=lambda s: (len(s), sorted(s)))):
        on = [gens[k] for k in sorted(sup)]
        mix = np.mean(on, axis=0)
        w, V = linalg.eig_sym(model.aggregate(inst, mix)[:-1, :-1])
        definite = w[0] > gamma.STRICT_TOL * max(1.0, np.abs(w).max())
        faces.append(gamma.FaceDescriptor(
            fid, tuple(sorted(sup)), "DEFINITE" if definite else "SEMIDEFINITE",
            mix if definite else None,
            V[:, :0] if definite else V[:, np.abs(w) <= linalg.rank_cut(w)],
            *map(tuple, gamma.face_slice_vrep(on))))
    witness = faces[-1].witness
    return gamma.GammaData(tuple(gens), tuple(faces), "DIAGONAL_AUTO", witness,
                           None if witness is not None else "definiteness assumption fails")


def _verdicts(inst, gd):
    return tuple(check(inst, gd).verdict for check in (
        exactness.check_obj_strong, exactness.check_obj_weak, exactness.check_ch_polyhedral))


# d2 instances with a generator whose aggregate is zero up to rounding: the
# floored cut read its face SEMIDEFINITE with an empty V(F), failing all three
KNIFE_EDGE = (23, 86, 89, 111, 147)


class TestKernelClosure:
    """Walking only the faces maximal for their V(F) decides as the whole
    face lattice did, except where the lattice's floored cut misread a face."""

    def test_verdicts_match_face_lattice(self):
        insts = (WEAK_FAMILY + [gallery.load(key)["instance"] for key in DIAGONAL_GALLERY]
                 + [make_gtrs(seed) for seed in range(10)] + diag_family(1, 10, 5, 6))
        for k, inst in enumerate(insts):
            want = (("HOLDS", "HOLDS", "FAILS") if k == 23
                    else _verdicts(inst, _lattice_gamma_data(inst)))
            assert _verdicts(inst, gamma.build_gamma_data(inst)) == want, k

    def test_knife_edge_instances(self):
        d2 = diag_family(0, 150, 2, 1)
        for k in KNIFE_EDGE:
            assert _verdicts(d2[k], _lattice_gamma_data(d2[k])) == ("FAILS",) * 3, k
            want = ("HOLDS", "HOLDS", "FAILS")
            assert _verdicts(d2[k], gamma.build_gamma_data(d2[k])) == want, k

    @pytest.mark.parametrize("s", [1e-3, 1e3])
    def test_keys_scale_free(self, s):
        def key(inst):
            gd = gamma.build_gamma_data(inst)
            return (gd.reason,) + _verdicts(inst, gd)

        for k, inst in enumerate(WEAK_FAMILY):
            assert key(scaled(inst, s)) == key(inst), k
