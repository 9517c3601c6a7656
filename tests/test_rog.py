"""Rank-one-generated analysis: pair decision, zero lines, witnesses, rules."""

import dataclasses

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from sdpexact import gallery, linalg, model, oracles, rog, solver
from conftest import (make_perspective_instance, make_separation_instance,
                      random_sym)

M1_3D = np.diag([1.0, -1.0, 0.0])
M2_3D = np.diag([0.0, 1.0, -1.0])


def sym_outer(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return 0.5 * (np.outer(a, b) + np.outer(b, a))


class TestLmiSet:
    def test_expanded_doubles_equalities(self):
        mset = rog.LmiSet((np.eye(2), np.diag([1.0, -1.0])), ("LE", "EQ"))
        ex = mset.expanded()
        assert len(ex) == 3
        assert np.array_equal(ex[1], np.diag([1.0, -1.0]))
        assert np.array_equal(ex[2], -np.diag([1.0, -1.0]))

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            rog.LmiSet((np.eye(2),), ("GE",))


class TestDecompose:
    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a = rng.standard_normal(d)
            b = rng.standard_normal(d)
            M = sym_outer(a, b)
            u, v = rog.decompose_rank2_indefinite(M)
            back = sym_outer(u, v)
            assert np.linalg.norm(back - M) <= 1e-8 * max(1.0, np.linalg.norm(M))

    def test_definite_rank2_rejected(self):
        with pytest.raises(rog.DecompositionImpossible):
            rog.decompose_rank2_indefinite(np.diag([1.0, 2.0, 0.0]))

    def test_rank3_rejected(self):
        with pytest.raises(rog.DecompositionImpossible):
            rog.decompose_rank2_indefinite(np.diag([1.0, 1.0, -1.0]))


class TestGordanStiemke:
    def test_psd_combo_found(self):
        # diag(1,1,-1) + diag(0,0,1) = diag(1,1,0) is PSD, so condition (i)
        # holds: check_pair aggregates, and no PD matrix is orthogonal to both
        A, B = np.diag([1.0, 1.0, -1.0]), np.diag([0.0, 0.0, 1.0])
        v = rog.check_pair(A, B)
        assert (v.status, v.certificate["kind"]) == ("ROG_CERTIFIED", "AggregationWeights")
        assert rog.verify_certificate(v, A, B)
        alpha, Z = rog.gordan_stiemke(A, B)
        assert Z is None and rog._psd_combination(A, B, alpha, rog._pair_scale(A, B))

    def test_pd_witness_found(self):
        alpha, Z = rog.gordan_stiemke(M1_3D, M2_3D)
        scale = rog._pair_scale(M1_3D, M2_3D)
        assert alpha is None and rog._is_pd_witness(M1_3D, M2_3D, Z, scale)


class TestCheckPair:
    def test_3d_pair_not_rog(self):
        v = rog.check_pair(M1_3D, M2_3D)
        assert v.status == "NOT_ROG_CERTIFIED"
        assert v.certificate["kind"] == "PdWitness"
        assert rog.verify_certificate(v, M1_3D, M2_3D)

    def test_2d_pair_not_rog(self):
        A = np.diag([1.0, -1.0])
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        v = rog.check_pair(A, B)
        assert v.status == "NOT_ROG_CERTIFIED"
        assert rog.verify_certificate(v, A, B)

    def test_common_factor_pair_rog(self):
        E = np.eye(3)
        A = sym_outer(E[0], E[2])
        B = sym_outer(E[1], E[2])
        v = rog.check_pair(A, B)
        assert v.status == "ROG_CERTIFIED"
        assert v.certificate["kind"] == "CommonFactor"
        assert rog.verify_certificate(v, A, B)

    def test_psd_combo_pair_rog(self):
        A = np.diag([1.0, 1.0, -1.0])
        B = np.diag([0.0, 0.0, 1.0])
        v = rog.check_pair(A, B)
        assert v.status == "ROG_CERTIFIED"
        assert v.certificate["kind"] == "AggregationWeights"
        assert rog.verify_certificate(v, A, B)

    def test_dependent_pair_rog(self):
        A = np.diag([1.0, -2.0])
        v = rog.check_pair(A, 3.0 * A)
        assert v.status == "ROG_CERTIFIED"
        assert rog.verify_certificate(v, A, 3.0 * A)

    def test_near_dependent_pair_either_order(self):
        # M1 lies 1e-7 off the line of M2 = 1e4 A: dependent relative to the
        # larger matrix, whichever comes first, and never "M1 ~ 0"
        A = np.diag([1.0, -1.0, 0.0])
        M1, M2 = A + 1e-7 * sym_outer(np.eye(3)[0], np.eye(3)[2]), 1e4 * A
        for pair in ((M1, M2), (M2, M1)):
            v = rog.check_pair(*pair)
            assert v.status == "ROG_CERTIFIED"
            assert "note" in v.certificate
            assert rog.verify_certificate(v, *pair)

    def test_zero_matrix_pair_rog(self):
        A = np.diag([1.0, -2.0])
        Z = np.zeros((2, 2))
        for pair in ((A, Z), (Z, A)):
            v = rog.check_pair(*pair)
            assert v.status == "ROG_CERTIFIED"
            assert rog.verify_certificate(v, *pair)

    def test_tampered_certificate_rejected(self):
        v = rog.check_pair(M1_3D, M2_3D)
        v.certificate["Z"] = np.diag([1.0, 2.0, 3.0])  # not orthogonal to the pair
        assert not rog.verify_certificate(v, M1_3D, M2_3D)
        v.certificate["Z"] = np.diag([1.0, 1.0, -1.0])  # not positive definite
        assert not rog.verify_certificate(v, M1_3D, M2_3D)

    def test_tiny_alpha_forgery_rejected(self):
        # a combination of norm 1e-8 passes the eigenvalue test for any pair
        assert rog.check_pair(M1_3D, M2_3D).status == "NOT_ROG_CERTIFIED"
        forged = rog.RogVerdict(
            status="ROG_CERTIFIED",
            certificate={"kind": "AggregationWeights", "alpha": np.array([1e-8, 0.0])})
        assert not rog.verify_certificate(forged, M1_3D, M2_3D)

    def test_forged_span_dim_rejected(self):
        # S13, S23 is ROG with a 3-dimensional joint range; Z = I is PD and
        # orthogonal to both, and the verifier ignores the reported span_dim:
        # it finds the common factor e3 itself
        E = np.eye(3)
        A, B = sym_outer(E[0], E[2]), sym_outer(E[1], E[2])
        assert rog.check_pair(A, B).status == "ROG_CERTIFIED"
        forged = rog.RogVerdict(
            status="NOT_ROG_CERTIFIED",
            certificate={"kind": "PdWitness", "Z": np.eye(3), "span_dim": 2})
        assert not rog.verify_certificate(forged, A, B)

    def test_forged_distinct_factors_rejected(self):
        # Z = I is PD and orthogonal to S13, S23, and no pairing of the
        # forged factors shares a direction; the verifier ignores them and
        # finds the common factor e3 itself
        E = np.eye(3)
        A, B = sym_outer(E[0], E[2]), sym_outer(E[1], E[2])
        forged = rog.RogVerdict(
            status="NOT_ROG_CERTIFIED",
            certificate={"kind": "PdWitness", "Z": np.eye(3), "span_dim": 3,
                         "distinct_factors": {"a1": E[0], "b1": E[1],
                                              "a2": E[2], "b2": np.ones(3)}})
        assert not rog.verify_certificate(forged, A, B)

    @pytest.mark.parametrize("status,cert,M1,M2", [
        # a zero factorisation leaves the residual ||M|| ~ 1e-8, which a cut
        # at 1e-7 * max(1, ||M||) would accept
        ("ROG_CERTIFIED",
         {"kind": "CommonFactor", "a": np.zeros(3), "b": np.zeros(3), "c": np.zeros(3)},
         1e-8 * M1_3D, 1e-8 * M2_3D),
        # the reported rank refutation is ignored, and <I_3, Z> = 6e-7 passes
        # a cut at 1e-6 * max(1, ||Z||), but Z is orthogonal to no member of
        # this pair relative to ||Z||, and I_3 is a PSD member of a ROG pair
        ("NOT_ROG_CERTIFIED",
         {"kind": "PdWitness", "Z": 2e-7 * np.eye(3),
          "rank_refutation": {"alpha": np.array([1.0, 0.5])}},
         np.eye(3), np.diag([1.0, -1.0, 0.0])),
    ], ids=["zero_common_factor_small_pair", "small_pd_witness"])
    def test_forgery_below_unit_scale_rejected(self, status, cert, M1, M2):
        forged = rog.RogVerdict(status=status, certificate=cert)
        assert not rog.verify_certificate(forged, M1, M2)

    def test_forged_unit_alpha_rejected(self):
        # alpha1 diag(1,-1,0) + alpha2 diag(0,1,-1) = diag(a1, a2 - a1, -a2) is
        # PSD only for alpha = 0, so no normalised alpha may verify
        for th in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            alpha = np.array([np.cos(th), np.sin(th)])
            forged = rog.RogVerdict(
                status="ROG_CERTIFIED",
                certificate={"kind": "AggregationWeights",
                             "alpha": alpha / np.max(np.abs(alpha))})
            assert not rog.verify_certificate(forged, M1_3D, M2_3D)

    @pytest.mark.parametrize("M1,M2", [
        (np.diag([1e4, -1e4, 0.0]), np.diag([-9999.0, 10001.0, -1e-6])),
        (np.diag([1e6, -2e6]), np.array([[3e6, 1e-4], [1e-4, -6e6]])),
    ], ids=["near_cancelling_combination", "dependent_large_scale"])
    def test_cancelling_combination_verifies(self, M1, M2):
        # the combination's own norm is ~1, the pair scale 1e4 or 6e6
        v = rog.check_pair(M1, M2)
        assert v.status == "ROG_CERTIFIED"
        assert v.certificate["kind"] == "AggregationWeights"
        assert rog.verify_certificate(v, M1, M2)

    def test_honest_distinct_factors_verify(self):
        # the splittings of diag(1,-1) and S12 share no direction: condition
        # (ii) fails, and the verifier recomputes that from the pair
        A, B = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        v = rog.check_pair(A, B)
        assert v.status == "NOT_ROG_CERTIFIED"
        assert sorted(v.certificate) == ["Z", "kind"]
        assert rog.verify_certificate(v, A, B)

    @pytest.mark.parametrize("M1,M2", [
        (M1_3D, M2_3D),
        (np.diag([1.0, -1.0, 0.0, 2.0]), np.diag([0.0, 1.0, -1.0, -2.0])),
    ], ids=["3x3", "4x4"])
    def test_decision_does_not_depend_on_seed(self, M1, M2):
        ref = rog.check_pair(M1, M2)
        assert ref.status == "NOT_ROG_CERTIFIED"
        for seed in range(5):
            v = rog.check_pair(M1, M2, seed=seed)
            assert v.status == ref.status
            np.testing.assert_equal(v.certificate, ref.certificate)

    def test_orthogonal_change_of_basis_keeps_verdict(self):
        Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
        A, B = Q.T @ M1_3D @ Q, Q.T @ M2_3D @ Q
        v = rog.check_pair(A, B)
        assert v.status == "NOT_ROG_CERTIFIED"
        assert rog.verify_certificate(v, A, B)

    def test_separation_pair_not_rog(self):
        # the homogenized constraint pair of the separation instance
        inst = make_separation_instance()
        A = inst.inequalities[0].embed()
        B = inst.inequalities[1].embed()
        v = rog.check_pair(A, B)
        assert v.status == "NOT_ROG_CERTIFIED"
        assert rog.verify_certificate(v, A, B)


def int_sym_pairs():
    """Pairs of symmetric 3x3 or 4x4 matrices with integer entries in [-5, 5]."""
    def pair(d):
        mat = hnp.arrays(np.int64, (d, d), elements=st.integers(-5, 5))
        return st.tuples(mat, mat).map(
            lambda ab: tuple(np.triu(m) + np.triu(m, 1).T for m in ab))
    return st.sampled_from((3, 4)).flatmap(pair)


class TestCertificateProperty:
    @given(int_sym_pairs())
    def test_check_pair_certificate_verifies(self, pair):
        M1, M2 = (m.astype(float) for m in pair)
        assert rog.verify_certificate(rog.check_pair(M1, M2), M1, M2)

    def test_traceless_pair_gets_the_identity(self):
        # a draw of the property above: tau = -(tr M1, tr M2) = 0 and the
        # support points are collinear, so the bisection brackets nothing;
        # Z = I is orthogonal to both and decides the pair alone
        M1 = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
        M2 = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float)
        v = rog.check_pair(M1, M2)
        assert v.status == "NOT_ROG_CERTIFIED" and v.diagnostics["route"] == "bisection"
        assert np.array_equal(v.certificate["Z"], np.eye(4))
        assert rog.verify_certificate(v, M1, M2)


def _scaling_pairs():
    """Random, near-dependent and common-factor pairs, 8 of each."""
    rng = np.random.default_rng(12)
    E = np.eye(3)
    pairs = []
    for k in range(8):
        d = 3 + k % 2
        pairs.append((random_sym(rng, d), random_sym(rng, d)))
        A = random_sym(rng, d)
        pairs.append((A, 3.0 * A + 1e-11 * np.linalg.norm(A)
                      * sym_outer(np.eye(d)[0], np.eye(d)[1])))
        c = rng.standard_normal(3)
        pairs.append((sym_outer(rng.standard_normal(3), c),
                      sym_outer(rng.standard_normal(3), c)))
    return pairs


def _record_solves(monkeypatch):
    """Wrap solver.solve so that every solution it returns is recorded."""
    sols = []
    solve = solver.solve

    def recorded(*args, **kw):
        sols.append(solve(*args, **kw))
        return sols[-1]

    monkeypatch.setattr(solver, "solve", recorded)
    return sols


def _battery_pairs(pairs, seed):
    """The first pairs of ``rog.run_battery(pairs, seed)``."""
    rng = np.random.default_rng(seed)
    dims = [rog.BATTERY_DIMS[k % len(rog.BATTERY_DIMS)] for k in range(pairs)]
    return [(random_sym(rng, d), random_sym(rng, d)) for d in dims]


def _forbid_solves(monkeypatch):
    def no_solve(*args, **kw):
        raise AssertionError("solver.solve called")

    monkeypatch.setattr(solver, "solve", no_solve)


class TestScaling:
    def test_decided_pairs_verify_at_every_scale(self):
        # verdicts may differ between scales; a decided one must verify
        decided = 0
        for k, (A, B) in enumerate(_scaling_pairs()):
            for s in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
                v = rog.check_pair(s * A, s * B)
                if v.status == "UNDECIDED":
                    continue
                decided += 1
                assert rog.verify_certificate(v, s * A, s * B), (k, s, v.status)
        assert decided >= 150

    def test_unit_scale_verdicts_kept_at_extreme_scales(self):
        # every tolerance is relative to the pair scale, so scaling the pair
        # changes neither the verdict nor the certificate kind
        for k, (A, B) in enumerate(_scaling_pairs()):
            v = rog.check_pair(A, B)
            unit = (v.status, v.certificate.get("kind"))
            for s in (1e-12, 1e-10, 1e-8, 1e8, 1e10, 1e12):
                v = rog.check_pair(s * A, s * B)
                assert (v.status, v.certificate.get("kind")) == unit, (k, s)
                assert rog.verify_certificate(v, s * A, s * B), (k, s)

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e8])
    def test_scaled_pd_witness_verifies(self, c):
        # Z and c Z witness the same thing for every c > 0
        for k, (A, B) in enumerate(_scaling_pairs()):
            v = rog.check_pair(A, B)
            if v.status == "NOT_ROG_CERTIFIED":
                cert = {**v.certificate, "Z": c * v.certificate["Z"]}
                assert rog.verify_certificate(rog.RogVerdict(v.status, cert), A, B), k

    @pytest.mark.parametrize("s", [1e-6, 1e6])
    def test_gordan_stiemke_solves_as_at_unit_scale(self, s, monkeypatch):
        # pairs 0, 3 and 9, which once took an SDP fallback, get the
        # unit-scale verdict at scale s with no solve, and the closed-form
        # witness of the scaled pair is the unit-scale one up to rounding
        sols = _record_solves(monkeypatch)
        pairs = _scaling_pairs()
        for k in (0, 3, 9):
            A, B = pairs[k]
            Z1, Zs = rog.gordan_stiemke(A, B)[1], rog.gordan_stiemke(s * A, s * B)[1]
            assert Z1 is not None and Zs is not None, k
            assert rog._is_pd_witness(s * A, s * B, Zs, rog._pair_scale(s * A, s * B)), k
            assert np.linalg.norm(Zs - Z1) <= 1e-8 * np.linalg.norm(Z1), k
            assert rog.check_pair(s * A, s * B).status == rog.check_pair(A, B).status, k
        assert sols == []

    def test_pair_decision_makes_no_solve(self, monkeypatch):
        _forbid_solves(monkeypatch)
        pairs = [(s * A, s * B) for A, B in _scaling_pairs()
                 for s in 10.0 ** np.arange(-12, 13, 2)]
        pairs += _battery_pairs(200, 3)
        for A, B in pairs:
            v = rog.check_pair(A, B)
            assert v.status != "UNDECIDED"
            assert rog.verify_certificate(v, A, B)

    def test_tiny_common_factor_pair_certified(self):
        # pair 14 at 1e-6: two rank-2 products Sym(a c^T), Sym(b c^T) whose
        # smaller eigenvalues sit below 1e-7 in absolute terms; the rank cut
        # relative to the spectral norm keeps both rank 2, so the shared
        # factor c is found
        A, B = _scaling_pairs()[14]
        M1, M2 = 1e-6 * A, 1e-6 * B
        assert [linalg.kernel_basis(M).shape[1] for M in (M1, M2)] == [1, 1]
        v = rog.check_pair(M1, M2)
        assert (v.status, v.certificate["kind"]) == ("ROG_CERTIFIED", "CommonFactor")
        assert rog.verify_certificate(v, M1, M2)

    def test_tiny_pair_indefinite_combination_rejected(self):
        # pair 3 at 1e-6: the angular scan's best combination has lambda_min
        # about -1% of the pair norm, so it is no PSD combination
        A, B = _scaling_pairs()[3]
        M1, M2 = 1e-6 * A, 1e-6 * B
        th = np.linspace(0.0, 2.0 * np.pi, 4000, endpoint=False)
        t = th[int(np.argmax(rog._lmin(M1, M2, th)))]
        alpha = np.array([np.cos(t), np.sin(t)]) / max(abs(np.cos(t)), abs(np.sin(t)))
        lmin = np.linalg.eigvalsh(alpha[0] * M1 + alpha[1] * M2)[0]
        assert -2e-2 < lmin / rog._pair_scale(M1, M2) < -5e-3
        forged = rog.RogVerdict(status="ROG_CERTIFIED",
                                certificate={"kind": "AggregationWeights", "alpha": alpha})
        assert not rog.verify_certificate(forged, M1, M2)
        assert rog.check_pair(M1, M2).status == "NOT_ROG_CERTIFIED"


def _congruent_certificate(cert, P):
    """The certificate of (P^T M1 P, P^T M2 P) that ``cert`` maps to: the same
    weights, factors times P^T, or Z' = P^-1 Z P^-T, since <P^T M P, Z'> =
    <M, P Z' P^T>."""
    kind = cert["kind"]
    if kind == "AggregationWeights":
        return {"kind": kind, "alpha": cert["alpha"]}
    if kind == "CommonFactor":
        return {"kind": kind, **{k: P.T @ cert[k] for k in ("a", "b", "c")}}
    Pinv = np.linalg.inv(P)
    return {"kind": kind, "Z": Pinv @ cert["Z"] @ Pinv.T}


class TestInvariance:
    def test_verdict_survives_congruence(self):
        # P = Q diag(u), u in [0.3, 3]: P^T M P keeps the slice up to the
        # change of basis, so the status stays and the mapped certificate
        # verifies against the transformed pair
        rng = np.random.default_rng(21)
        for k, (A, B) in enumerate(_battery_pairs(300, 3)):
            d = len(A)
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            P = Q @ np.diag(rng.uniform(0.3, 3.0, d))
            A2, B2 = P.T @ A @ P, P.T @ B @ P
            v = rog.check_pair(A, B)
            assert rog.check_pair(A2, B2).status == v.status, k
            mapped = rog.RogVerdict(v.status, _congruent_certificate(v.certificate, P))
            assert rog.verify_certificate(mapped, A2, B2), k

    def test_verdict_and_route_survive_scaling(self):
        for k, (A, B) in enumerate(_battery_pairs(300, 3)):
            v = rog.check_pair(A, B)
            for s in (1e-6, 1e6):
                vs = rog.check_pair(s * A, s * B)
                assert (vs.status, vs.diagnostics["route"]) == \
                    (v.status, v.diagnostics["route"]), (k, s)


class TestComputedOnce:
    """Each pair fact is computed once per public call: one ``linalg.sym`` per
    input matrix, and the pair scale from ``eigvalsh``, never an SVD 2-norm."""

    @pytest.fixture
    def counted(self, monkeypatch):
        seen = {"sym": [], "norm2": 0}
        sym, norm = linalg.sym, np.linalg.norm

        def counted_sym(a):
            seen["sym"].append(a)
            return sym(a)

        def counted_norm(x, ord=None, *args, **kw):
            seen["norm2"] += ord == 2
            return norm(x, ord, *args, **kw)

        monkeypatch.setattr(linalg, "sym", counted_sym)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        return seen

    @staticmethod
    def _once_each(seen, inputs):
        assert len(seen) == len(inputs)
        assert all(sum(a is x for a in seen) == 1 for x in inputs)

    def test_check_pair(self, counted):
        v = rog.check_pair(M1_3D, M2_3D)
        assert v.status == "NOT_ROG_CERTIFIED"
        self._once_each(counted["sym"], (M1_3D, M2_3D))
        assert counted["norm2"] == 0

    def test_verify_certificate(self, counted):
        v = rog.check_pair(M1_3D, M2_3D)
        counted["sym"].clear()
        assert rog.verify_certificate(v, M1_3D, M2_3D)
        self._once_each(counted["sym"], (M1_3D, M2_3D, v.certificate["Z"]))
        assert counted["norm2"] == 0


def _near_boundary(A, B, delta):
    """(A, B) + x (cos t, sin t) I, with t the angle maximising
    lambda_min(cos t A + sin t B) = m and x chosen so that the shifted pair's
    maximum is -delta times its pair scale.  t stays the maximiser, since
    x cos(t' - t) <= x, and the maximum rises by exactly x."""
    th = np.linspace(0.0, 2.0 * np.pi, 4000, endpoint=False)
    k = int(np.argmax(rog._lmin(A, B, th)))
    best = scipy.optimize.minimize_scalar(
        lambda t: -float(rog._lmin(A, B, t)), method="bounded",
        bounds=(th[k] - 2e-3, th[k] + 2e-3), options={"xatol": 1e-12})
    t, m = best.x, -best.fun
    I = np.eye(A.shape[0])
    x = -m
    for _ in range(5):  # x = -m - delta * scale(x), a contraction for delta < 1
        x = -m - delta * rog._pair_scale(A + x * np.cos(t) * I, B + x * np.sin(t) * I)
    return A + x * np.cos(t) * I, B + x * np.sin(t) * I


class TestNearBoundary:
    # the NOT_ROG pairs 2-7 of seed 7, moved to within delta of a PSD
    # combination: far from it a PD witness decides, within the 1e-7
    # tolerance of _psd_combination the angular scan does, and in between
    # the pair may stay UNDECIDED but must never read ROG
    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_verdicts_near_the_boundary(self, delta, monkeypatch):
        _forbid_solves(monkeypatch)
        for A, B in _battery_pairs(8, 7)[2:]:
            A, B = _near_boundary(A, B, delta)
            v = rog.check_pair(A, B)
            if delta >= 1e-5:
                assert v.status == "NOT_ROG_CERTIFIED"
            elif delta >= 1e-7:
                assert v.status in ("NOT_ROG_CERTIFIED", "UNDECIDED")
            else:
                assert v.status == "ROG_CERTIFIED"
            assert v.status == "UNDECIDED" or rog.verify_certificate(v, A, B)


def _scan_first_status(A, B):
    """check_pair's status when the angular scan runs before the bisection."""
    scale = rog._pair_scale(A, B)
    if rog._dependence(A, B) is not None or rog._angular_scan(A, B, scale) is not None:
        return "ROG_CERTIFIED"
    alpha, Z = rog.gordan_stiemke(A, B)
    assert alpha is None  # a probe passing where the scan misses would differ
    if Z is None:
        return "UNDECIDED"
    return "NOT_ROG_CERTIFIED" if rog._common_factor((A, B)) is None else "ROG_CERTIFIED"


def _no_psd_angle(A, B, n=20000):
    """No weights (cos t, sin t) / max|.| on an n-point grid pass
    ``_psd_combination``: the stacked lambda_min at every angle, and the
    predicate itself at the best one."""
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    m = np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
    lmin = rog._lmin(A, B, th) / m
    k = int(np.argmax(lmin))
    alpha = np.array([np.cos(th[k]), np.sin(th[k])]) / m[k]
    scale = rog._pair_scale(A, B)
    return bool(lmin[k] < -1e-7 * scale and not rog._psd_combination(A, B, alpha, scale))


class TestConditionI:
    SCALES = (1e-8, 1.0, 1e8)

    def test_battery_decided_without_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("angular scan ran")

        monkeypatch.setattr(rog, "_angular_scan", no_scan)
        for A, B in _battery_pairs(200, 3):
            for s in self.SCALES:
                v = rog.check_pair(s * A, s * B)
                assert v.status != "UNDECIDED"
                assert v.diagnostics["route"] in ("dependent", "bisection")
                assert rog.verify_certificate(v, s * A, s * B)

    def test_status_matches_scan_first_order(self):
        pairs = [(s * A, s * B) for A, B in _battery_pairs(200, 3) for s in self.SCALES]
        pairs += [(s * A, s * B) for A, B in _scaling_pairs()
                  for s in 10.0 ** np.arange(-12, 13)]
        for A, B in pairs:
            assert rog.check_pair(A, B).status == _scan_first_status(A, B)

    def test_near_boundary_falls_back_to_scan(self):
        # a witness too close to a PSD combination proves nothing, so the
        # scan decides, as it would have first
        routes = set()
        for A, B in _battery_pairs(8, 7)[2:]:
            for delta in (1e-6, 1e-7, 1e-8):
                A2, B2 = _near_boundary(A, B, delta)
                v = rog.check_pair(A2, B2)
                routes.add(v.diagnostics["route"])
                assert v.status == _scan_first_status(A2, B2)
        assert "scan" in routes

    def test_route_on_every_verdict(self):
        E = np.eye(3)
        cases = {
            "dependent": (M1_3D, 2.0 * M1_3D),
            "bisection": (M1_3D, M2_3D),
        }
        for route, (A, B) in cases.items():
            assert rog.check_pair(A, B).diagnostics["route"] == route
        v = rog.check_pair(sym_outer(E[0], E[2]), sym_outer(E[1], E[2]))
        assert (v.certificate["kind"], v.diagnostics["route"]) == ("CommonFactor", "bisection")


class TestExcludesPsdCombination:
    def test_sound_on_random_pairs(self):
        rng = np.random.default_rng(5)
        held = 0
        for k in range(60):
            d = 3 + k % 2
            A, B = random_sym(rng, d), random_sym(rng, d)
            alpha, Z = rog.gordan_stiemke(A, B)
            if Z is not None and rog._excludes_psd_combination(A, B, Z, rog._pair_scale(A, B)):
                held += 1
                assert _no_psd_angle(A, B), k
        assert held >= 30

    def test_sound_near_the_boundary(self):
        for A, B in _battery_pairs(8, 7)[2:]:
            for delta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                A2, B2 = _near_boundary(A, B, delta)
                Z = rog.gordan_stiemke(A2, B2)[1]
                scale = rog._pair_scale(A2, B2)
                if Z is not None and rog._excludes_psd_combination(A2, B2, Z, scale):
                    assert _no_psd_angle(A2, B2), delta

    def test_refuses_on_psd_pairs(self):
        # diag(1,1,-1) + diag(0,0,1) is PSD, and so is a combination of each
        # battery pair certified by weights, so no Z may exclude them
        pairs = [(np.diag([1.0, 1.0, -1.0]), np.diag([0.0, 0.0, 1.0]))]
        pairs += [(A, B) for A, B in _battery_pairs(200, 3)
                  if rog.check_pair(A, B).certificate["kind"] == "AggregationWeights"]
        assert len(pairs) == 27
        rng = np.random.default_rng(9)
        for A, B in pairs:
            d = len(A)
            Zs = [np.eye(d)] + [G @ G.T + 0.1 * np.eye(d)
                                for G in rng.standard_normal((20, d, d))]
            for Z in Zs:
                assert not rog._excludes_psd_combination(A, B, Z, rog._pair_scale(A, B))

    def test_scale_free(self):
        rng = np.random.default_rng(6)
        for k in range(20):
            d = 3 + k % 2
            A, B = random_sym(rng, d), random_sym(rng, d)
            Z = rog.gordan_stiemke(A, B)[1]
            if Z is None:
                continue
            unit = rog._excludes_psd_combination(A, B, Z, rog._pair_scale(A, B))
            for s in (1e-8, 1e-3, 1e3, 1e8):
                for c in (1e-6, 1e6):
                    scale = rog._pair_scale(s * A, s * B)
                    got = rog._excludes_psd_combination(s * A, s * B, c * Z, scale)
                    assert got == unit, (k, s, c)


class TestAngularScan:
    def test_stacked_grid_matches_per_angle(self):
        rng = np.random.default_rng(41)
        thetas = np.linspace(0.0, 2.0 * np.pi, 97, endpoint=False)
        for d in (3, 4):
            for _ in range(10):
                A = random_sym(rng, d)
                B = random_sym(rng, d)
                stacked = rog._lmin(A, B, thetas)
                ref = [np.linalg.eigvalsh(np.cos(t) * A + np.sin(t) * B)[0]
                       for t in thetas]
                assert stacked.shape == thetas.shape
                assert np.max(np.abs(stacked - ref)) <= 1e-12

    def test_psd_combination_found_and_verified(self):
        A = np.diag([1.0, 1.0, -1.0])
        B = np.diag([0.0, 0.0, 1.0])
        alpha = rog._angular_scan(A, B, rog._pair_scale(A, B))
        assert alpha is not None
        assert abs(float(np.max(np.abs(alpha))) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(alpha[0] * A + alpha[1] * B)[0] >= -1e-7

    def test_pd_witness_pair_has_no_psd_combination(self):
        assert rog._angular_scan(M1_3D, M2_3D, rog._pair_scale(M1_3D, M2_3D)) is None


SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


def _assert_worked_lines(lines):
    """The worked pair's zero lines are (1, +-1, +-1) / sqrt(3)."""
    assert len(lines) == 4
    expected = [np.array([1.0, s1, s2]) / np.sqrt(3.0)
                for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
    for e in expected:
        assert any(min(np.linalg.norm(z - e), np.linalg.norm(z + e)) <= 1e-7
                   for z in lines)


class TestNullLines:
    def test_3d_pair_four_lines(self):
        _assert_worked_lines(rog.null_set_lines_3d(M1_3D, M2_3D))

    @pytest.mark.parametrize("s", SCALES)
    def test_four_lines_at_every_scale(self, s):
        _assert_worked_lines(rog.null_set_lines_3d(s * M1_3D, s * M2_3D))

    def test_lines_annihilate_both_forms(self):
        rng = np.random.default_rng(31)
        found = 0
        for trial in range(20):
            A = random_sym(rng, 3)
            B = random_sym(rng, 3)
            v = rog.check_pair(A, B)
            if v.status != "NOT_ROG_CERTIFIED":
                continue
            lines = rog.null_set_lines_3d(A, B)
            found += 1
            scale = max(np.linalg.norm(A), np.linalg.norm(B), 1.0)
            for z in lines:
                assert abs(float(z @ A @ z)) <= 1e-7 * scale
                assert abs(float(z @ B @ z)) <= 1e-7 * scale
        assert found >= 5

    def test_singular_pencil_one_line(self):
        # every member of diag(1,-1,0), Sym(e1 e2^T) is singular; the only
        # common zero line is the shared kernel e3
        B = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        lines = rog.null_set_lines_3d(M1_3D, B)
        assert len(lines) == 1
        e3 = np.eye(3)[2]
        assert min(np.linalg.norm(lines[0] - e3), np.linalg.norm(lines[0] + e3)) <= 1e-12

    def test_precondition_psd_combo(self):
        with pytest.raises(ValueError):
            rog.null_set_lines_3d(np.diag([1.0, 1.0, -1.0]), np.diag([0.0, 0.0, 1.0]))

    def test_precondition_dependence(self):
        with pytest.raises(ValueError):
            rog.null_set_lines_3d(M1_3D, 2.0 * M1_3D)

    def test_precondition_common_factor(self):
        E = np.eye(3)
        with pytest.raises(ValueError):
            rog.null_set_lines_3d(sym_outer(E[0], E[2]), sym_outer(E[1], E[2]))


HANDPICKED_W = np.array([-1.0, 0.0, 1.0])
HANDPICKED_Z = (np.outer(HANDPICKED_W, HANDPICKED_W)
                + np.outer([1.0, np.sqrt(2.0), 1.0], [1.0, np.sqrt(2.0), 1.0]))


class TestWitness:
    def test_handpicked_witness_verifies(self):
        ok, res = rog.verify_extreme_rank2(HANDPICKED_Z, M1_3D, M2_3D)
        assert ok
        assert abs(res) > 1e-9

    @pytest.mark.parametrize("s1", SCALES)
    @pytest.mark.parametrize("s2", SCALES)
    def test_verification_is_scale_free(self, s1, s2):
        # the slice does not change under M_i -> s_i M_i or Z -> c Z
        A, B = s1 * M1_3D, s2 * M2_3D
        built = rog.construct_rank2_witness_3d(A, B, seed=0)["Z"]
        for Z in (HANDPICKED_Z, built):
            for c in SCALES:
                assert rog.verify_extreme_rank2(c * Z, A, B)[0]
        rank_one = np.outer(HANDPICKED_W, HANDPICKED_W)
        for Z in (rank_one, HANDPICKED_Z + np.diag([1e-3, 0.0, 0.0])):
            assert not rog.verify_extreme_rank2(Z, A, B)[0]

    def test_indefinite_rank_two_rejected(self):
        # rank 2 with <M_i, Z> = 0 and a nonzero resultant on the span of the
        # top two eigenvectors, but Z is not PSD, so it is not in the slice
        w, v = np.array([2.0, 1.0, 1.0]), np.array([2.0, 1.0, -1.0])
        Z = np.outer(w, w) - np.outer(v, v)
        assert not rog.verify_extreme_rank2(Z, M1_3D, M2_3D)[0]

    def test_rog_pair_gets_no_witness(self):
        with pytest.raises(rog.ConstructionFailed):
            rog.construct_rank2_witness_3d(np.diag([1.0, 1.0, -1.0]),
                                           np.diag([0.0, 0.0, 1.0]))

    def test_slow_battery_pair_matched_early(self):
        # pair 256 of a seed-303 battery took 119 Newton attempts (18-25 s)
        rng = np.random.default_rng(303)
        for k in range(257):
            d = rog.BATTERY_DIMS[k % len(rog.BATTERY_DIMS)]
            M1, M2 = random_sym(rng, d), random_sym(rng, d)
        assert M1.shape == (3, 3)
        assert rog.check_pair(M1, M2).status == "NOT_ROG_CERTIFIED"
        wit = rog.construct_rank2_witness_3d(M1, M2, seed=256)
        assert rog.verify_extreme_rank2(wit["Z"], M1, M2)[0]
        assert wit["attempt"] < 10

    def test_constructed_witness(self):
        wit = rog.construct_rank2_witness_3d(M1_3D, M2_3D, seed=0)
        ok, res = rog.verify_extreme_rank2(wit["Z"], M1_3D, M2_3D)
        assert ok and abs(res) > 1e-9
        assert linalg.kernel_basis(wit["Z"]).shape[1] == 1

    def test_rank_one_rejected(self):
        w = np.array([1.0, 1.0, 1.0])
        ok, _ = rog.verify_extreme_rank2(np.outer(w, w), M1_3D, M2_3D)
        assert not ok

class TestSetRules:
    def test_pairwise_sufficient(self):
        mats = (np.diag([1.0, 0.0, -0.5]), np.diag([0.0, 1.0, 1.0]),
                np.diag([1.0, 1.0, 0.0]))
        v = rog.check_pairwise_sufficient(rog.LmiSet(mats, ("LE",) * 3))
        assert v.status == "ROG_BY_SUFFICIENT_RULE"

    def test_common_factor_rule(self):
        E = np.eye(3)
        mats = tuple(sym_outer(E[2], k) for k in
                     (E[0], E[1], E[0] + E[1], E[0] - E[1]))
        v = rog.check_common_factor(rog.LmiSet(mats, ("LE",) * 4))
        assert v.status == "ROG_BY_SUFFICIENT_RULE"
        assert v.certificate["kind"] == "CommonFactor"

    def test_common_factor_rule_checks_residuals(self):
        # the third factor c' = c + 1e-5 e1 passes the 1e-8 angle test on
        # |cos| but leaves a 1e-5 relative residual
        E = np.eye(3)
        c = E[2]
        mats = (sym_outer(E[0], c), sym_outer(E[1], c),
                sym_outer(E[0] + E[1], c + 1e-5 * E[0]))
        v = rog.check_common_factor(rog.LmiSet(mats, ("LE",) * 3))
        assert v.status != "ROG_BY_SUFFICIENT_RULE"

    def test_soc_cap_rule(self):
        thetas = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
        c = np.array([0.0, 0.0, 1.0])
        mats = [-sym_outer(c, np.array([np.cos(t), np.sin(t), 1.0]))
                for t in thetas]
        mats.append(np.diag([1.0, 1.0, -1.0]))
        v = rog.detect_soc_cap(rog.LmiSet(tuple(mats), ("LE",) * 5))
        assert v.status == "ROG_BY_SUFFICIENT_RULE"
        assert v.certificate["kind"] == "SocCap"

    @pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-4, 1.0, 1e4, 1e8])
    def test_soc_cap_rule_at_every_scale(self, s):
        # the cap's negative eigenvalue and the co-factor test are relative
        # to the cap's own scale, so scaling every member keeps the rule
        mset = rog.LmiSet(tuple(s * M for M in _soc_cap_set()), ("LE",) * 5)
        for v in (rog.detect_soc_cap(mset), rog.check_set(mset)):
            assert (v.status, v.certificate.get("kind")) == (
                "ROG_BY_SUFFICIENT_RULE", "SocCap"), s


def _soc_cap_set():
    c = np.array([0.0, 0.0, 1.0])
    mats = [-sym_outer(c, np.array([np.cos(t), np.sin(t), 1.0]))
            for t in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)]
    return tuple(mats) + (np.diag([1.0, 1.0, -1.0]),)


def _factor_set_without_cap():
    # Sym(e3 k^T) with k^T Sym(e3 k_L^T) k = (k.e3)(k.k_L) > 0 for every
    # pair of members, so no member caps the others
    E = np.eye(3)
    return tuple(sym_outer(E[2], k) for k in
                 (E[0] + E[2], E[1] + E[2], E[0] + E[1] + E[2]))


class TestCheckSet:
    @pytest.mark.parametrize("mats,status,kind", [
        ((), "ROG_CERTIFIED", "PsdCone"),
        ((np.diag([1.0, -1.0]),), "ROG_CERTIFIED", "SingleLmi"),
        ((M1_3D, M2_3D), "NOT_ROG_CERTIFIED", "PdWitness"),
        (_soc_cap_set(), "ROG_BY_SUFFICIENT_RULE", "SocCap"),
        (_factor_set_without_cap(), "ROG_BY_SUFFICIENT_RULE", "CommonFactor"),
        ((np.diag([1.0, 0.0, -0.5]), np.diag([0.0, 1.0, 1.0]),
          np.diag([1.0, 1.0, 0.0])), "ROG_BY_SUFFICIENT_RULE", "PairwisePsd"),
        ((M1_3D, M2_3D, np.eye(3)), "UNDECIDED", None),
    ], ids=["empty", "one", "pair", "soc_cap", "common_factor", "pairwise",
            "undecided"])
    def test_routing(self, mats, status, kind):
        v = rog.check_set(rog.LmiSet(mats, ("LE",) * len(mats)))
        assert v.status == status
        assert v.certificate.get("kind") == kind

    def test_common_factor_rejects_empty_set(self):
        with pytest.raises(ValueError):
            rog.check_common_factor(rog.LmiSet((), ()))

    def test_two_equalities_decided_as_pair(self):
        E = np.eye(3)
        mats = (sym_outer(E[0], E[2]), np.diag([1.0, -1.0, 0.0]))
        v = rog.check_set(rog.LmiSet(mats, ("EQ", "EQ")))
        ref = rog.check_pair(*mats)
        assert v.status == ref.status
        np.testing.assert_equal(v.certificate, ref.certificate)
        assert rog.verify_certificate(v, *mats)


class TestPairwiseWeights:
    def test_weights_are_normalised_psd_combinations(self):
        rng = np.random.default_rng(8)
        sets = [rog.LmiSet((np.diag([1.0, 0.0, -0.5]), np.diag([1.0, 1.0, 0.0]),
                            np.diag([0.0, 1.0, 1.0])), ("EQ", "LE", "LE"))]
        sets += [rog.LmiSet(tuple(random_sym(rng, 3) + 1.5 * np.eye(3)
                                  for _ in range(3)), ("LE",) * 3)
                 for _ in range(12)]
        checked = dependent = 0
        for mset in sets:
            v = rog.check_pairwise_sufficient(mset)
            if v.status != "ROG_BY_SUFFICIENT_RULE":
                continue
            mats = mset.expanded()
            for (i, j), alpha in v.certificate["weights"]:
                if isinstance(alpha, str):
                    assert alpha == "dependent"
                    dependent += 1
                    continue
                assert float(np.max(np.abs(alpha))) == pytest.approx(1.0, abs=1e-12)
                scale = max(1.0, np.linalg.norm(mats[i], 2), np.linalg.norm(mats[j], 2))
                combo = alpha[0] * mats[i] + alpha[1] * mats[j]
                assert np.linalg.eigvalsh(combo)[0] >= -1e-7 * scale
                checked += 1
        assert dependent >= 1 and checked >= 10


class TestProbe:
    def test_empty_slice_not_flagged(self, monkeypatch):
        # {Z >= 0 : Z <= 0, 2Z <= 0} = {0}: the PD member empties the slice,
        # so no trial is solved and none is a gap
        sols = _record_solves(monkeypatch)
        mset = rog.LmiSet((np.diag([1.0]), np.diag([2.0])), ("LE", "LE"))
        rep = rog.probe_random_objectives(mset, trials=2, samples=256, max_iter=2000)
        assert sols == []
        assert [r["trial"] for r in rep["records"]] == [0, 1]
        for r in rep["records"]:
            assert {"trial", "status", "v_sdp", "v_rank1", "gap"} <= set(r)
            assert r["status"] == "EMPTY_SLICE" and r["v_rank1"] == np.inf
        assert rep["max_gap"] is None
        assert rep["flagged"] is False
        theta = rep["empty_slice_theta"]
        combo = theta[0] * np.diag([1.0]) + theta[1] * np.diag([2.0])
        assert min(theta) >= 0.0 and np.linalg.eigvalsh(combo)[0] > 0.0

    def test_empty_slice_needs_a_pair(self):
        # neither member is definite, but (M1 + M2) / 2 = diag(1, 1) is
        M1, M2 = np.diag([3.0, -1.0]), np.diag([-1.0, 3.0])
        theta = rog._empty_slice_weights([M1, M2])
        assert theta is not None and theta[0] > 0.0 and theta[1] > 0.0
        assert np.linalg.eigvalsh(theta[0] * M1 + theta[1] * M2)[0] > 1e-6 * sum(theta)

    def test_nonempty_slice_solves_each_trial(self, monkeypatch):
        sols = _record_solves(monkeypatch)
        mset = rog.LmiSet((np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])),
                          ("LE", "LE"))
        rep = rog.probe_random_objectives(mset, trials=3, samples=256, max_iter=2000)
        assert len(sols) == 3
        assert rep["empty_slice_theta"] is None
        assert all(r["status"] != "EMPTY_SLICE" for r in rep["records"])

    def test_rog_pair_never_flagged(self):
        # common-factor pair: rank-one values match the slice optimum
        E = np.eye(3)
        mset = rog.LmiSet((sym_outer(E[0], E[2]), sym_outer(E[1], E[2])),
                          ("LE", "LE"))
        rep = rog.probe_random_objectives(mset, trials=4, seed=0, samples=8192)
        assert not rep["flagged"]

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            rog.probe_random_objectives(rog.LmiSet((np.eye(5),), ("LE",)))

    def test_negative_trials(self):
        with pytest.raises(ValueError, match="trials"):
            rog.probe_random_objectives(rog.LmiSet((np.diag([1.0, -1.0]),), ("LE",)),
                                        trials=-2)

    def test_battery_flags_pinned(self):
        # the benchmark's probe settings on the first 100 seed-3 pairs; only
        # NOT_ROG pairs may flag
        pairs = _battery_pairs(100, 3)
        flagged = [k for k, (M1, M2) in enumerate(pairs)
                   if rog.probe_random_objectives(
                       rog.LmiSet((M1, M2), ("LE", "LE")), trials=2, seed=k,
                       samples=2048, eps=1e-5, max_iter=5000)["flagged"]]
        assert flagged == [5, 12, 13, 18, 22, 26, 28, 33, 39, 41, 42, 44, 45, 46,
                           54, 64, 84, 85, 89, 91, 92]
        assert all(rog.check_pair(*pairs[k]).status == "NOT_ROG_CERTIFIED"
                   for k in flagged)

    def test_rank_one_value_at_the_stop_never_flags(self, monkeypatch):
        # (0.1 + 1e-3) - 0.1 > 1e-3 in floating point, so the stop passed to
        # the oracle must sit below the plain sum for a slice value of 0.1
        assert (0.1 + rog.PROBE_GAP_TOL) - 0.1 > rog.PROBE_GAP_TOL
        solve = solver.solve
        monkeypatch.setattr(solver, "solve", lambda *a, **kw: dataclasses.replace(
            solve(*a, **kw), objective_value=0.1))
        monkeypatch.setattr(oracles, "sphere_min_rank_one",
                            lambda *a, stop_at, **kw: (stop_at, None))
        mset = rog.LmiSet((np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])),
                          ("LE", "LE"))
        rep = rog.probe_random_objectives(mset, trials=2, samples=256, max_iter=2000)
        for r in rep["records"]:
            assert r["status"] == "OPTIMAL"
            assert 0.0 < 0.1 + rog.PROBE_GAP_TOL - r["v_rank1"] <= 1e-15
            assert r["gap"] <= rog.PROBE_GAP_TOL
        assert not rep["flagged"]

    def test_early_stop_keeps_every_decision(self, monkeypatch):
        # the battery's probe settings on its first 40 seed-3 pairs, with the
        # sphere oracle's early stop and then with every start polished;
        # pairs 5, 12 and 13 flag
        def decisions():
            out = []
            for k, (M1, M2) in enumerate(_battery_pairs(40, 3)):
                rep = rog.probe_random_objectives(
                    rog.LmiSet((M1, M2), ("LE", "LE")), trials=2, seed=k,
                    samples=2048, eps=1e-5, max_iter=5000)
                out.append((rep["flagged"], [
                    (bool(np.isfinite(r["v_rank1"])), bool(r["gap"] > rog.PROBE_GAP_TOL))
                    for r in rep["records"]]))
            return out

        early = decisions()
        sphere = oracles.sphere_min_rank_one
        monkeypatch.setattr(oracles, "sphere_min_rank_one",
                            lambda *a, stop_at=None, **kw: sphere(*a, **kw))
        assert decisions() == early
        flagged = [f for f, _ in early]
        assert any(flagged) and not all(flagged)


class TestClconv:
    def test_perspective_instance_closes_hull(self):
        inst = make_perspective_instance()
        A = inst.equalities[0].embed()
        B = inst.equalities[1].embed()
        v = rog.check_pair(A, B)
        assert v.status == "ROG_CERTIFIED"
        assert v.certificate["kind"] == "CommonFactor"
        rep = rog.clconv_report(inst, v)
        assert rep["consequence"] == "CLCONV_EQUALS_DSDP"

    def test_no_consequence_without_rog(self):
        inst = make_separation_instance()
        v = rog.RogVerdict(status="NOT_ROG_CERTIFIED")
        rep = rog.clconv_report(inst, v)
        assert rep["consequence"] == "NO_CONSEQUENCE"

    @pytest.mark.parametrize("name", [name for name in gallery.names()
                                      if gallery.load(name)["kind"] == "qcqp"])
    def test_consequence_is_scale_free(self, name):
        # every form scaled by s: the slice, its ROG verdict and the definite
        # combinations of the blocks are the same at every s
        inst = gallery.load(name)["instance"]

        def consequence(s):
            f = lambda q: model.QuadraticForm(s * q.A, s * q.b, s * q.c)
            scaled = model.QcqpInstance(inst.n, f(inst.objective),
                                        tuple(map(f, inst.inequalities)),
                                        tuple(map(f, inst.equalities)))
            v = rog.check_set(rog.LmiSet.from_instance(scaled))
            return rog.clconv_report(scaled, v)["consequence"]

        at_one = consequence(1.0)
        assert [consequence(s) for s in (1e-6, 1e-3, 1e3, 1e6)] == [at_one] * 4
