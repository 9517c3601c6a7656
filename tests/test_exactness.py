"""Face-based exactness checks against instances with known behavior."""

import json

import numpy as np
import pytest
import scipy.optimize

from sdpexact import cli, exactness, gallery, gamma, model, oracles, solver
from conftest import (DIAGONAL_GALLERY, WEAK_FAMILY, q, diag_family, make_explicit_instance,
                      make_gtrs, make_lineality_instance, make_separation_instance, scaled)


_ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


@pytest.fixture(scope="module")
def explicit_gamma():
    inst = make_explicit_instance()
    return inst, gamma.build_gamma_data(inst)


class TestObjStrong:
    def test_explicit_fails_at_full_kernel_ray(self, explicit_gamma):
        inst, gd = explicit_gamma
        rep = exactness.check_obj_strong(inst, gd)
        assert rep.verdict == "FAILS"
        failing = {f.face_id for f in rep.face_records if f.sub_verdict == "FAIL"}
        # the face generated by the ray (1,1,1) must be among the failures
        ray_face = next(f.face_id for f in gd.faces if f.generator_indices == (3,))
        assert ray_face in failing

    def test_gtrs_holds(self):
        inst = make_gtrs(0)
        gd = gamma.build_gamma_data(inst)
        rep = exactness.check_obj_strong(inst, gd)
        assert rep.verdict == "HOLDS"

    def test_not_applicable_without_witness(self):
        inst = model.QcqpInstance(2, q(np.diag([1.0, -1.0]), [0, 0], 0))
        gd = gamma.build_gamma_data(inst)
        rep = exactness.check_obj_strong(inst, gd)
        assert rep.verdict == "NOT_APPLICABLE"


class TestObjWeak:
    def test_explicit_holds(self, explicit_gamma):
        inst, gd = explicit_gamma
        rep = exactness.check_obj_weak(inst, gd)
        assert rep.verdict == "HOLDS"
        # every passing semidefinite face carries a witness direction
        for fr in rep.face_records:
            if fr.sub_verdict == "PASS" and fr.classification == "SEMIDEFINITE":
                face = gd.faces[fr.face_id]
                if face.slice_vertices and fr.witness is not None:
                    # witness makes every slice linear term nonpositive
                    verts = [model.aggregate(inst, np.append(1.0, v))[:-1, -1]
                             for v in face.slice_vertices]
                    for v in verts:
                        assert float(v @ fr.witness) <= 1e-7


def _reference_weak_face(B, verts, rays, scale):
    """The weak test as 2 dim V(F) LPs: pin one V(F)-coordinate to +-1, box
    the rest in [-1, 1], and pass iff any LP is feasible."""
    k = B.shape[1]
    rows = np.array(verts + rays)
    for j in range(k):
        for sign in (1.0, -1.0):
            bounds = [(-1.0, 1.0)] * k
            bounds[j] = (sign, sign)
            res = scipy.optimize.linprog(
                np.zeros(k), A_ub=rows, b_ub=np.zeros(rows.shape[0]),
                bounds=bounds, method="highs")
            if res.status == 0:
                return True, B @ res.x
    return False, None


class TestWeakFace:
    def test_sub_verdicts_match_pinned_lps(self):
        for k, inst in enumerate(WEAK_FAMILY):
            gd = gamma.build_gamma_data(inst)
            rep = exactness.check_obj_weak(inst, gd)
            ref = exactness._face_walk("obj_weak", inst, gd, _reference_weak_face)
            assert [r.sub_verdict for r in rep.face_records] == \
                [r.sub_verdict for r in ref.face_records], k
            assert rep.verdict == ref.verdict, k

    def test_at_most_one_lp_per_face(self, monkeypatch):
        # each face is one NNLS solve: no LP runs
        calls = []
        linprog = scipy.optimize.linprog

        def counted(*args, **kw):
            calls.append(1)
            return linprog(*args, **kw)

        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        insts = WEAK_FAMILY + [gallery.load(key)["instance"] for key in DIAGONAL_GALLERY]
        for k, inst in enumerate(insts):
            gd = gamma.build_gamma_data(inst)
            calls.clear()
            exactness.check_obj_weak(inst, gd)
            assert calls == [], k


class TestChPolyhedral:
    def test_explicit_holds(self, explicit_gamma):
        inst, gd = explicit_gamma
        rep = exactness.check_ch_polyhedral(inst, gd)
        assert rep.verdict == "HOLDS"

    def test_separation_instance_holds(self):
        inst = make_separation_instance()
        gd = gamma.build_gamma_data(inst)
        rep = exactness.check_ch_polyhedral(inst, gd)
        assert rep.verdict == "HOLDS"


def _face_instance(key):
    inst = (gallery.load(key)["instance"] if isinstance(key, str)
            else make_gtrs(key))
    return inst, gamma.build_gamma_data(inst)


def _slice_terms(inst, face):
    """Linear terms b_obj + b(v) per slice vertex and b(r) per slice ray."""
    verts = [model.aggregate(inst, np.append(1.0, v))[:-1, -1]
             for v in face.slice_vertices]
    rays = [model.aggregate(inst, np.append(0.0, r))[:-1, -1] for r in face.slice_rays]
    return verts, rays


@pytest.mark.parametrize("key", DIAGONAL_GALLERY + (0, 2, 3))
class TestFaceRecords:
    """The certificates the face walk attaches to each record hold up."""

    def test_walk_bookkeeping(self, key):
        inst, gd = _face_instance(key)
        for check in (exactness.check_obj_strong, exactness.check_obj_weak,
                      exactness.check_ch_polyhedral):
            rep = check(inst, gd)
            assert [r.face_id for r in rep.face_records] == [f.face_id for f in gd.faces]
            for rec, face in zip(rep.face_records, gd.faces):
                if face.classification != "SEMIDEFINITE":
                    assert rec.sub_verdict == "SKIPPED"
                elif not face.slice_vertices:
                    assert rec.sub_verdict == "PASS" and rec.witness is None
            failed = any(r.sub_verdict == "FAIL" for r in rep.face_records)
            assert rep.verdict == ("FAILS" if failed else "HOLDS")

    def test_strong_fail_multipliers(self, key):
        inst, gd = _face_instance(key)
        for rec in exactness.check_obj_strong(inst, gd).face_records:
            if rec.sub_verdict != "FAIL":
                continue
            face = gd.faces[rec.face_id]
            verts, rays = _slice_terms(inst, face)
            lam = rec.violating_multiplier[:len(verts)]
            mu = rec.violating_multiplier[len(verts):]
            assert len(mu) == len(rays)
            assert np.all(lam >= -1e-9) and abs(lam.sum() - 1.0) <= 1e-9
            assert np.all(mu >= -1e-9)
            combo = sum(l * v for l, v in zip(lam, verts)) + sum(
                m * r for m, r in zip(mu, rays))
            assert np.linalg.norm(face.vf_basis.T @ combo) <= 1e-6

    def test_ch_pass_witnesses(self, key):
        inst, gd = _face_instance(key)
        for rec in exactness.check_ch_polyhedral(inst, gd).face_records:
            if rec.witness is None:
                continue
            verts, rays = _slice_terms(inst, gd.faces[rec.face_id])
            w = rec.witness
            assert np.linalg.norm(w) > exactness.STRICT_TOL
            values = [float(v @ w) for v in verts]
            assert max(values) - min(values) <= 1e-9
            assert all(abs(float(r @ w)) <= 1e-9 for r in rays)

    def test_weak_witnesses_nonpositive(self, key):
        inst, gd = _face_instance(key)
        for rec in exactness.check_obj_weak(inst, gd).face_records:
            if rec.witness is None:
                continue
            verts, rays = _slice_terms(inst, gd.faces[rec.face_id])
            w = rec.witness
            assert np.linalg.norm(w) > exactness.STRICT_TOL
            assert all(float(t @ w) <= 1e-9 for t in verts + rays)


class TestBurerYe:
    def test_explicit_fails(self):
        rep = exactness.check_burer_ye_diag(make_explicit_instance())
        assert rep.verdict == "FAILS"

    def test_gtrs_holds(self):
        # ball constraint with nonzero linear objective term: no multiplier
        # can zero both the diagonal entry and the linear term
        inst = make_gtrs(1)
        assert any(abs(v) > 1e-3 for v in inst.objective.b)
        rep = exactness.check_burer_ye_diag(inst)
        assert rep.verdict == "HOLDS"

    def test_not_applicable_offdiagonal(self):
        inst = model.QcqpInstance(2, q([[0.0, 1.0], [1.0, 0.0]], [0, 0], 0))
        rep = exactness.check_burer_ye_diag(inst)
        assert rep.verdict == "NOT_APPLICABLE"

    @pytest.mark.parametrize("diag,lin,coords", [
        ([1.0, 0.0], [0.0, 0.0], {"coordinate_1"}),
        ([0.0, 0.0], [0.0, 0.0], {"coordinate_0", "coordinate_1"}),
        ([1.0, 0.0], [0.0, 1.0], set()),
        ([1.0e-9, 0.0], [0.0, 0.0], {"coordinate_1"}),
        ([-1.0, 0.0], [0.0, 0.0], set()),
    ])
    def test_no_multipliers(self, diag, lin, coords):
        # with no constraints (1, ()) is in the cone iff the objective is
        # PSD, and coordinate j fails when its diagonal entry and linear
        # term both vanish; the general standard form decides this too
        inst = model.QcqpInstance(2, q(np.diag(diag), lin, 0.0))
        assert _coordinates(exactness.check_burer_ye_diag(inst)) == coords


def _reference_strong_lp(B, verts, rays, scale):
    """The strong test as one L1 LP, min ||sum lambda_j v_j + sum mu_j r_j||_1
    over the simplex and mu >= 0: fail iff the optimum is <= STRICT_TOL."""
    k = B.shape[1]
    nv, nr = len(verts), len(rays)
    n_var = nv + nr + 2 * k
    A_eq = np.zeros((k + 1, n_var))
    for j, t in enumerate(verts + rays):
        A_eq[:k, j] = t
    A_eq[:k, nv + nr:nv + nr + k] = -np.eye(k)
    A_eq[:k, nv + nr + k:] = np.eye(k)
    A_eq[k, :nv] = 1.0
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(nv + nr), np.ones(2 * k)]), A_eq=A_eq,
        b_eq=np.append(np.zeros(k), 1.0), bounds=[(0, None)] * n_var, method="highs")
    failed = res.status == 0 and res.fun <= exactness.STRICT_TOL
    return not failed, (res.x[:nv + nr] if failed else None)


def _reference_weak_lp(B, verts, rays, scale):
    """The weak test as a kernel test, then one LP R d <= 0, -1^T R d = 1."""
    k = B.shape[1]
    if k == 0:
        return False, None
    R = np.array(verts + rays)
    null = exactness._nullspace(R)
    if null.shape[1]:
        return True, B @ null[:, 0]
    res = scipy.optimize.linprog(
        np.zeros(k), A_ub=R, b_ub=np.zeros(R.shape[0]),
        A_eq=-R.sum(axis=0, keepdims=True), b_eq=[1.0],
        bounds=[(None, None)] * k, method="highs")
    return res.status == 0, (B @ res.x if res.status == 0 else None)


def _reference_burer_ye(inst):
    """Coordinates j at which the Burer-Ye LP, rows as given, is feasible."""
    H = gamma.build_gamma_hrep_diag(inst)
    n, m = inst.n, inst.m
    d = np.diagonal(inst.forms[:, :n, :n], axis1=1, axis2=2)
    b = inst.forms[:, :n, n]
    bounds = [(0, None)] * inst.m_i + [(None, None)] * inst.m_e
    out = set()
    for j in range(n):
        res = scipy.optimize.linprog(
            np.zeros(m), A_ub=-H[:, 1:], b_ub=H[:, 0],
            A_eq=np.vstack([d[1:, j], b[1:, j]]), b_eq=[-d[0, j], -b[0, j]],
            bounds=bounds, method="highs")
        if res.status == 0:
            out.add(f"coordinate_{j}")
    return out


def _coordinates(rep):
    return {key for key in rep.details if key.startswith("coordinate_")}


# the set the certificates are checked on: WEAK_FAMILY, the diagonal gallery
# and criterion-06 seeds 0-9
CERTIFICATE_SET = (WEAK_FAMILY + [gallery.load(key)["instance"] for key in DIAGONAL_GALLERY]
                   + [make_gtrs(seed) for seed in range(10)])


def _with_gamma(insts):
    return [(inst, gamma.build_gamma_data(inst)) for inst in insts]


@pytest.fixture(scope="module", params=[1e-6, 1.0, 1e6], ids=["1e-6", "1", "1e6"])
def certificate_set(request):
    """(inst, gamma data) pairs of CERTIFICATE_SET scaled by s, each with
    its unscaled pair, which the LP references read."""
    return list(zip(_with_gamma(scaled(inst, request.param) for inst in CERTIFICATE_SET),
                    _with_gamma(CERTIFICATE_SET)))


class TestCertificates:
    """One NNLS solve per face and coordinate decides as the LP formulations
    do on the unscaled instance, at every scale, and no LP runs."""

    def test_sub_verdicts_match_lp_formulations(self, certificate_set):
        for k, ((inst, gd), (unit, unit_gd)) in enumerate(certificate_set):
            for check, ref, name in ((exactness.check_obj_strong, _reference_strong_lp, "obj_strong"),
                                     (exactness.check_obj_weak, _reference_weak_lp, "obj_weak")):
                rep, want = check(inst, gd), exactness._face_walk(name, unit, unit_gd, ref)
                assert [r.sub_verdict for r in rep.face_records] == \
                    [r.sub_verdict for r in want.face_records], (k, name)
                assert rep.verdict == want.verdict, (k, name)
            assert _coordinates(exactness.check_burer_ye_diag(inst)) == _reference_burer_ye(unit), k

    def test_no_lp_at_unit_scale(self, monkeypatch):
        pairs = _with_gamma(CERTIFICATE_SET)

        def refused(*args, **kw):
            raise AssertionError("an exactness check ran an LP")

        monkeypatch.setattr(scipy.optimize, "linprog", refused)
        for inst, gd in pairs:
            exactness.check_obj_strong(inst, gd)
            exactness.check_obj_weak(inst, gd)
            exactness.check_burer_ye_diag(inst)

    def test_empty_vf_fails_without_lp(self):
        # a semidefinite face with a slice vertex and an empty V(F) has no
        # nonzero direction and projects every term onto 0: strong and weak
        # fail it, as the pinned LPs do
        inst = model.QcqpInstance(1, q([[0.0]], [1.0], 0.0), (q([[1.0]], [0.0], -1.0),))
        face = gamma.FaceDescriptor(0, (0,), "SEMIDEFINITE", None, np.zeros((1, 0)),
                                    (np.zeros(1),), ())
        gd = gamma.GammaData((np.array([1.0, 0.0]),), (face,), "DIAGONAL_AUTO", None)
        for check, ref, name in ((exactness.check_obj_strong, _reference_strong_lp, "obj_strong"),
                                 (exactness.check_obj_weak, _reference_weak_face, "obj_weak")):
            assert check(inst, gd).verdict == "FAILS"
            assert exactness._face_walk(name, inst, gd, ref).verdict == "FAILS"

    def test_ray_product_rounding_passes_without_lp(self, monkeypatch):
        # the face of d3 instance 1 on generators (0, 4) passes strong on a
        # Farkas vector whose products with E's columns are about +8e-17:
        # read within the rounding allowance they are zero; with no
        # allowance neither certificate holds and the split raises
        inst = diag_family(5, 2, 3, 2)[1]
        gd = gamma.build_gamma_data(inst)
        fid = next(f.face_id for f in gd.faces if f.generator_indices == (0, 4))
        assert exactness.check_obj_strong(inst, gd).face_records[fid].sub_verdict == "PASS"
        monkeypatch.setattr(exactness, "ROUND", 0.0)
        with pytest.raises(RuntimeError):
            exactness.check_obj_strong(inst, gd)

    @staticmethod
    def _one_term_face(objective_term, constraint_term):
        """A face with one vertex, gamma = 0, whose projected term is the
        objective's linear term; the constraint's linear term enters G only."""
        inst = model.QcqpInstance(1, q([[0.0]], [objective_term], 0.0),
                                  (q([[1.0]], [constraint_term], -1.0),))
        face = gamma.FaceDescriptor(0, (0,), "SEMIDEFINITE", None, np.eye(1),
                                    (np.zeros(1),), ())
        return inst, gamma.GammaData((np.array([1.0, 0.0]),), (face,), "DIAGONAL_AUTO", None)

    @pytest.mark.parametrize("d", [1e-300, -1e-300, 1e-100, 0.5 * exactness.STRICT_TOL,
                                   1.5 * exactness.STRICT_TOL, -1.0, 1e100])
    def test_face_at_strict_tol(self, d):
        # the cut is relative to ||G||: a nonzero term alone is no noise
        inst, gd = self._one_term_face(d, 0.0)
        assert exactness.check_obj_strong(inst, gd).verdict == "HOLDS"
        assert exactness._face_walk("obj_strong", scaled(inst, 1.0 / abs(d)), gd,
                                    _reference_strong_lp).verdict == "HOLDS"

    def test_face_at_strict_tol_rounding_noise(self):
        # a term at rounding level against ||G|| = 1 reads as zero
        inst, gd = self._one_term_face(1e-17, 1.0)
        rep = exactness.check_obj_strong(inst, gd)
        assert rep.verdict == "FAILS"
        assert rep.face_records[0].violating_multiplier == pytest.approx([1.0])

    def test_burer_ye_scale_free(self):
        # at s = 1e-6 the LP with rows as given read FAILS on these inputs
        # (HiGHS's absolute tolerance against right-hand sides of order 1e-6);
        # with unit rows they read as at s = 1
        d2 = diag_family(0, 150, 2, 1)
        insts = [make_gtrs(seed) for seed in (24, 29, 31, 44, 48)] + \
            [d2[i] for i in (79, 114, 116, 147)]
        for k, inst in enumerate(insts):
            unit = exactness.check_burer_ye_diag(inst)
            small = exactness.check_burer_ye_diag(scaled(inst, 1e-6))
            assert unit.verdict == "HOLDS" and small.verdict == "HOLDS", k
            assert _reference_burer_ye(scaled(inst, 1e-6)), k


def _scale_key(inst):
    """reason, the four verdicts, the per-face sub-verdicts of the three face
    checks, and each face's class with its dim V(F)."""
    gd = gamma.build_gamma_data(inst)
    reps = [check(inst, gd) for check in (exactness.check_obj_strong, exactness.check_obj_weak,
                                          exactness.check_ch_polyhedral)]
    return (gd.reason, [rep.verdict for rep in reps], exactness.check_burer_ye_diag(inst).verdict,
            [[r.sub_verdict for r in rep.face_records] for rep in reps],
            [(f.classification, f.vf_basis.shape[1]) for f in gd.faces])


# the knife-edge d2 and d3 instances, d2 8 and criterion-06 seed 24: inputs
# whose keys move with s wherever a cut is absolute
_D2, _D3 = diag_family(0, 150, 2, 1), diag_family(5, 80, 3, 2)
FIVE_SCALE_SET = ([_D2[i] for i in (8, 23, 85, 86, 89, 90, 111, 115, 145, 147)]
                  + [_D3[i] for i in (31, 32, 53)] + [make_gtrs(24)])


class TestScaleFree:
    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12])
    def test_five_scales(self, s):
        for k, inst in enumerate(FIVE_SCALE_SET):
            assert _scale_key(scaled(inst, s)) == _scale_key(inst), k

    def test_nnls_without_certificate_raises(self, monkeypatch, tmp_path):
        # an NNLS point that is no KKT point leaves neither certificate: the
        # check raises, and the command line reports a verification failure
        monkeypatch.setattr(scipy.optimize, "nnls", lambda E, f: (np.zeros(E.shape[1]), 0.0))
        inst, gd = _face_instance("centered")
        with pytest.raises(RuntimeError, match="KKT"):
            exactness.check_obj_strong(inst, gd)
        path = tmp_path / "centered.json"
        path.write_text(json.dumps(model.instance_to_dict(inst)))
        assert cli.main(["check", "obj-strong", str(path)]) == cli.EXIT_VERIFICATION


class TestQem:
    def test_repeated_block_detected(self):
        inst = model.QcqpInstance(
            4, q(np.diag([1.0, -1.0, 1.0, -1.0]), [0, 0, 0, 0], 0),
            (q(np.eye(4), [0, 0, 0, 0], -1.0),))
        assert exactness.detect_qem(inst) == 2
        rep = exactness.check_qmp_bounds(inst)
        assert rep.verdict == "HOLDS"

    def test_polyhedral_bounds_need_diagonal_or_generators(self):
        inst = model.congruence_transform(make_explicit_instance(), _ROTATION)
        assert "ch_bound_general" in exactness.check_qmp_bounds(inst).details
        gens = gamma.build_gamma_data(make_explicit_instance()).generators
        rep = exactness.check_qmp_bounds(inst, supplied_generators=gens)
        assert "ch_bound_polyhedral" in rep.details
        assert "ch_bound_polyhedral" in exactness.check_qmp_bounds(make_explicit_instance()).details

    def test_no_structure_gives_one(self):
        assert exactness.detect_qem(make_explicit_instance()) == 1

    def test_full_repetition(self):
        inst = model.QcqpInstance(3, q(np.eye(3), [0, 0, 0], 0),
                                  (q(np.eye(3), [0, 0, 0], -1.0),))
        assert exactness.detect_qem(inst) == 3

    @pytest.mark.parametrize("s", [1e-10, 1.0, 1e10])
    def test_cuts_scale_free(self, s):
        # both cuts are relative: the block pattern to max |A|, the linear
        # term to its form's embedding
        inst = scaled(model.QcqpInstance(
            4, q(np.diag([1.0, -1.0, 1.0, -1.0]), [0, 0, 0, 0], 0),
            (q(np.eye(4), [0.5, 0, 0.5, 0], -1.0),)), s)
        assert exactness.detect_qem(inst) == 2
        rep = exactness.check_qmp_bounds(inst)
        assert rep.details["nonzero_linear_terms"] == 1
        assert rep.verdict == "HOLDS"


class TestPointwise:
    def test_explicit_boundary_point_passes(self, explicit_gamma):
        inst, gd = explicit_gamma
        verdict, witness = exactness.check_ch_general_pointwise(inst, gd, [0.0, 0.0], 2.0)
        assert verdict in ("PASS", "IN_D")

    def test_feasible_point_in_d(self, explicit_gamma):
        inst, gd = explicit_gamma
        verdict, _ = exactness.check_ch_general_pointwise(inst, gd, [1.0, 1.0], 2.5)
        assert verdict == "IN_D"

    def test_non_relaxation_point_rejected(self, explicit_gamma):
        inst, gd = explicit_gamma
        with pytest.raises(ValueError):
            exactness.check_ch_general_pointwise(inst, gd, [0.0, 0.0], 0.5)

    def test_pinned_pass_witness_zeroes_tight_rows(self, explicit_gamma):
        # at x = 0, t = 2 only the generator (1, 1, 1) is tight; its aggregate
        # is zero, so V(F) is the plane and its one row is (0, 0, -1)
        inst, gd = explicit_gamma
        x, t = np.zeros(2), 2.0
        verdict, (xp, tp) = exactness.check_ch_general_pointwise(inst, gd, x, t)
        assert verdict == "PASS"
        assert abs(np.linalg.norm(xp) - 1.0) <= 1e-12 and tp == 0.0
        rows = _tight_rows(inst, gd, x, t)
        assert len(rows) == 1
        for g0, lin in rows:
            # a vertex row reads lin/g0 . x' = t', a ray row lin . x' = 0
            assert abs(lin @ xp - (g0 * tp if g0 > gamma.RAY_TOL else 0.0)) <= 1e-12

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_pinned_fail(self, s):
        # a sampled relaxation point of diag_family(0, 150, 2, 1)[8], with
        # every form and t scaled by s: two vertices are tight, and their rows
        # over (V(F), t') have full rank
        inst = scaled(diag_family(0, 9, 2, 1)[8], s)
        gd = gamma.build_gamma_data(inst)
        x = np.array([-0.23073617406507363, -0.228659010636634])
        t = -0.03123208380832243 * s
        assert exactness.check_ch_general_pointwise(inst, gd, x, t) == ("FAIL", None)
        rows = _tight_rows(inst, gd, x, t)
        assert [g0 for g0, _ in rows] == [1.0, 1.0]
        mix = np.mean([g for g in gd.generators if g[0] == 1.0], axis=0)
        w, V = np.linalg.eigh(model.aggregate(inst, mix)[:-1, :-1])
        B = V[:, np.abs(w) <= 1e-7 * np.max(np.abs(w))]
        system = np.array([np.append(B.T @ lin / (g0 * s), -1.0) for g0, lin in rows])
        assert np.linalg.svd(system, compute_uv=False)[-1] > 1e-3

    @pytest.mark.parametrize("inst,x,t", [
        (make_lineality_instance(), [0.0, 0.5], 0.0),
        (model.congruence_transform(make_explicit_instance(), _ROTATION), [0.0, 0.0], 2.0),
    ])
    def test_not_applicable_reads_reason(self, inst, x, t):
        gd = gamma.build_gamma_data(inst)
        assert gd.reason is not None and gd.faces == ()
        assert exactness.check_ch_general_pointwise(inst, gd, x, t) == ("NOT_APPLICABLE", None)


def _tight_rows(inst, gd, x, t):
    """(g_obj, linear term of the aggregate at x) per generator whose
    aggregated value at (x, t) is within STRICT_TOL * |g| @ |form values| of
    zero, recomputed from the forms."""
    vals = [model.eval_form(F, x) for F in (inst.objective, *inst.constraints)]
    vals[0] -= t
    rows = []
    for g in gd.generators:
        M = model.aggregate(inst, g)
        agg = model.QuadraticForm(M[:-1, :-1], M[:-1, -1], M[-1, -1])
        value = model.eval_form(agg, x) - g[0] * t
        if value >= -exactness.STRICT_TOL * float(np.abs(g) @ np.abs(vals)):
            rows.append((g[0], agg.A @ x + agg.b))
    return rows


class TestSummary:
    def test_explicit_summary_bundle(self):
        inst = make_explicit_instance()
        out = exactness.exactness_summary(inst)
        assert out["strong"].verdict == "FAILS"
        assert out["weak"].verdict == "HOLDS"
        assert out["ch"].verdict == "HOLDS"
        assert out["burer_ye"].verdict == "FAILS"
        assert abs(out["opt_sdp"] - 2.0) <= 1e-4
        assert out["oracle"].exactness_flag

    def test_not_diagonal_reads_reason(self):
        inst = model.congruence_transform(make_explicit_instance(), _ROTATION)
        out = exactness.exactness_summary(inst)
        assert "not all diagonal" in out["gamma"].reason
        for key in ("strong", "weak", "ch"):
            assert out[key].verdict == "NOT_APPLICABLE"
            assert out[key].details["reason"] == out["gamma"].reason

    def test_not_applicable_bundle(self):
        inst = model.QcqpInstance(2, q(np.diag([1.0, -1.0]), [0, 0], 0))
        out = exactness.exactness_summary(inst)
        assert out["strong"].verdict == "NOT_APPLICABLE"
        assert out["weak"].verdict == "NOT_APPLICABLE"
        assert out["ch"].verdict == "NOT_APPLICABLE"

    def test_lineality_space_not_applicable(self):
        # the multiplier cone has no extreme rays, hence no faces to walk
        out = exactness.exactness_summary(make_lineality_instance())
        assert "lineality space" in out["gamma"].reason
        assert out["gamma"].generators == () and out["gamma"].faces == ()
        for key in ("strong", "weak", "ch"):
            assert out[key].verdict == "NOT_APPLICABLE"
            assert "lineality space" in out[key].details["reason"]
        assert out["burer_ye"].verdict == "FAILS"
        assert out["qmp"].condition == "qmp"
        assert out["sdp_status"] == "OPTIMAL" and np.isfinite(out["opt_sdp"])
