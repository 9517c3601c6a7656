"""QCQP data model: forms, aggregation, transforms, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdpexact import model
from conftest import q, make_explicit_instance, random_sym


class TestQuadraticForm:
    def test_embed_roundtrip(self):
        f = q([[1.0, 0.5], [0.5, 2.0]], [3.0, -1.0], 4.0)
        M = f.embed()
        # [[A, b], [b^T, c]]
        assert np.array_equal(M[:2, :2], f.A)
        assert np.array_equal(M[:2, 2], f.b)
        assert np.array_equal(M[2, :2], f.b)
        assert M[2, 2] == f.c

    def test_eval_matches_embedding(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            f = q(random_sym(rng, n), rng.standard_normal(n), rng.standard_normal())
            x = rng.standard_normal(n)
            z = np.concatenate([x, [1.0]])
            assert abs(model.eval_form(f, x) - z @ f.embed() @ z) <= 1e-10 * max(
                1.0, abs(model.eval_form(f, x)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            q(np.eye(2), [1.0], 0.0)

    def test_eval_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            model.eval_form(q(np.eye(2), [0, 0], 0), [1.0])


class TestInstance:
    def test_constraint_ordering_inequalities_first(self):
        ineq = q(np.eye(2), [0, 0], -1.0)
        eq = q(np.diag([1.0, -1.0]), [0, 0], 0.0)
        inst = model.QcqpInstance(2, q(np.eye(2), [0, 0], 0), (ineq,), (eq,))
        assert inst.m_i == 1 and inst.m_e == 1 and inst.m == 2
        assert inst.constraints[0] is inst.inequalities[0]
        assert inst.constraints[1] is inst.equalities[0]

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            model.QcqpInstance(2, q(np.eye(2), [0, 0], 0),
                               (q(np.eye(3), [0, 0, 0], 0),))

    def test_homogenize_senses(self):
        inst = model.QcqpInstance(
            2, q(np.eye(2), [0, 0], 0),
            (q(np.eye(2), [0, 0], -1.0),),
            (q(np.diag([1.0, -1.0]), [0, 0], 0.0),))
        # forms stack the embeddings: objective, inequalities, equalities
        assert inst.senses == ("LE", "EQ")
        assert inst.forms.shape == (3, 3, 3)
        for F, f in zip(inst.forms, (inst.objective, *inst.constraints)):
            assert np.array_equal(F, f.embed())
        assert not inst.forms.flags.writeable


class TestAggregation:
    @given(st.integers(0, 2 ** 31 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        inst = model.QcqpInstance(
            3, q(random_sym(rng, 3), rng.standard_normal(3), 0.0),
            tuple(q(random_sym(rng, 3), rng.standard_normal(3),
                    rng.standard_normal()) for _ in range(3)))
        g1 = rng.standard_normal(4)
        g2 = rng.standard_normal(4)
        a, b = rng.standard_normal(2)
        lhs = model.aggregate(inst, a * g1 + b * g2)
        f1 = model.aggregate(inst, g1)
        f2 = model.aggregate(inst, g2)
        r = lhs - a * f1 - b * f2
        scale = max(1.0, np.linalg.norm(lhs[:3, :3]))
        assert np.linalg.norm(r[:3, :3]) <= 1e-9 * scale
        assert np.linalg.norm(r[:3, 3]) <= 1e-9 * scale
        assert abs(r[3, 3]) <= 1e-9 * max(1.0, abs(lhs[3, 3]))

    def test_aggregate_with_obj(self):
        inst = make_explicit_instance()
        agg = model.aggregate(inst, [1.0, 1.0, 1.0])
        # I + diag(-2,1) + diag(1,-2) = 0; constants 0 + 1 + 1 = 2
        assert np.allclose(agg[:2, :], 0.0)
        assert agg[2, 2] == 2.0

    def test_gamma_length_checked(self):
        inst = make_explicit_instance()
        with pytest.raises(ValueError):
            model.aggregate(inst, [1.0, 1.0])


class TestFeasibility:
    def test_explicit_corners_feasible(self):
        inst = make_explicit_instance()
        for sx in (-1, 1):
            for sy in (-1, 1):
                assert model.is_feasible(inst, [sx, sy])
        assert not model.is_feasible(inst, [0.0, 0.0])

    def test_epigraph_member(self):
        inst = make_explicit_instance()
        assert model.epigraph_member(inst, [1.0, 1.0], 2.0)
        assert model.epigraph_member(inst, [1.0, 1.0], 5.0)
        assert not model.epigraph_member(inst, [1.0, 1.0], 1.9)

    @pytest.mark.parametrize("x", [[np.nan, np.nan], [np.inf, 0.0], [0.0], [0.0, 0.0, 1.0]])
    def test_point_of_wrong_length_or_not_finite_rejected(self, x):
        # a NaN compares false with every bound, so it must not read feasible
        inst = make_explicit_instance()
        with pytest.raises(ValueError):
            model.is_feasible(inst, x)
        with pytest.raises(ValueError):
            model.epigraph_member(inst, x, 5.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_epigraph_value_not_finite_rejected(self, t):
        with pytest.raises(ValueError):
            model.epigraph_member(make_explicit_instance(), [1.0, 1.0], t)


class TestCongruence:
    def test_eval_invariance(self):
        rng = np.random.default_rng(7)
        inst = make_explicit_instance()
        P = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        tinst = model.congruence_transform(inst, P)
        for _ in range(20):
            y = rng.standard_normal(2)
            x = P @ y
            for f, g in zip((inst.objective, *inst.constraints),
                            (tinst.objective, *tinst.constraints)):
                assert abs(model.eval_form(f, x) - model.eval_form(g, y)) <= 1e-8 * max(
                    1.0, abs(model.eval_form(f, x)))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            model.congruence_transform(make_explicit_instance(), np.zeros((2, 2)))


class TestDiagonalDetection:
    def test_diagonal(self):
        assert model.is_diagonal_instance(make_explicit_instance())

    def test_offdiagonal(self):
        inst = model.QcqpInstance(
            2, q([[0.0, 1.0], [1.0, 0.0]], [0, 0], 0))
        assert not model.is_diagonal_instance(inst)


class TestSerialization:
    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(19)
        inst = model.QcqpInstance(
            2,
            q(random_sym(rng, 2), rng.standard_normal(2), rng.standard_normal()),
            (q(np.diag(rng.standard_normal(2)), rng.standard_normal(2), -1.0),),
            (q(random_sym(rng, 2), [0, 0], 0.0),))
        gens = [rng.standard_normal(3) for _ in range(2)]
        text = json.dumps(model.instance_to_dict(inst, gens), indent=2)
        inst2, gens2 = model.instance_from_dict(json.loads(text))
        text2 = json.dumps(model.instance_to_dict(inst2, gens2), indent=2)
        assert text == text2
        assert np.array_equal(inst.objective.A, inst2.objective.A)
        assert np.array_equal(inst.inequalities[0].b, inst2.inequalities[0].b)
        assert inst.m_e == inst2.m_e

    def test_diag_encoding_used_for_diagonal_blocks(self):
        d = model.instance_to_dict(make_explicit_instance())
        assert d["objective"]["A"]["kind"] == "diag"
        assert d["inequalities"][0]["A"]["kind"] == "diag"

    def test_missing_optional_fields_default(self):
        inst, gens = model.instance_from_dict({
            "n": 1, "objective": {"A": {"kind": "diag", "data": [1.0]}}})
        assert gens is None
        assert inst.objective.b[0] == 0.0 and inst.objective.c == 0.0

    def test_matrix_codec(self):
        for M in (np.diag([1.0, -0.5, 0.0]), np.array([[0.0, 1.5], [1.5, 2.0]])):
            enc = model.matrix_to_dict(M)
            assert enc["kind"] == ("diag" if M.shape[0] == 3 else "dense")
            assert np.array_equal(model.matrix_from_dict(enc), M)
        with pytest.raises(ValueError):
            model.matrix_from_dict({"kind": "dense", "data": [1.0, 2.0, 3.0]})
        with pytest.raises(ValueError):
            model.matrix_from_dict({"kind": "sparse", "data": [1.0]})

    def test_unknown_matrix_kind_rejected(self):
        with pytest.raises(ValueError):
            model.instance_from_dict({
                "n": 1, "objective": {"A": {"kind": "sparse", "data": [1.0]}}})
