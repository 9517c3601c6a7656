"""Face-based exactness checks against instances with known behavior."""

import numpy as np
import pytest

from sdpexact import exactness, gamma, model, oracles, solver
from conftest import (q, make_explicit_instance, make_gtrs,
                      make_separation_instance)


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
                    verts = [inst.objective.b +
                             model.aggregate_constraints(inst, v).b
                             for v in face.slice_vertices]
                    for v in verts:
                        assert float(v @ fr.witness) <= 1e-7


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


class TestQem:
    def test_repeated_block_detected(self):
        inst = model.QcqpInstance(
            4, q(np.diag([1.0, -1.0, 1.0, -1.0]), [0, 0, 0, 0], 0),
            (q(np.eye(4), [0, 0, 0, 0], -1.0),))
        assert exactness.detect_qem(inst) == 2
        rep = exactness.check_qmp_bounds(inst, gamma_polyhedral=True)
        assert rep.verdict == "HOLDS"

    def test_no_structure_gives_one(self):
        assert exactness.detect_qem(make_explicit_instance()) == 1

    def test_full_repetition(self):
        inst = model.QcqpInstance(3, q(np.eye(3), [0, 0, 0], 0),
                                  (q(np.eye(3), [0, 0, 0], -1.0),))
        assert exactness.detect_qem(inst) == 3


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

    def test_not_applicable_bundle(self):
        inst = model.QcqpInstance(2, q(np.diag([1.0, -1.0]), [0, 0], 0))
        out = exactness.exactness_summary(inst, with_oracle=False)
        assert out["strong"].verdict == "NOT_APPLICABLE"
        assert out["weak"].verdict == "NOT_APPLICABLE"
        assert out["ch"].verdict == "NOT_APPLICABLE"
