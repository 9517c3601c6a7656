"""Built-in gallery: shipped data integrity and the per-kind pipelines."""

import importlib.resources
import json

import numpy as np
import pytest

from sdpexact import gallery, model

EXPECTED_NAMES = {
    "big_m_perspective", "centered", "diag_sign_definite", "explicit_sdp",
    "gtrs_indefinite", "lifting_non_rog", "qmp_k2", "rog_pair_3d_not",
    "rog_pair_not", "rog_vs_ch", "rtls_small", "soc_cap", "swiss_cheese_2x2",
    "trs_1d",
}


def _lmis(ent: dict) -> dict:
    out = {"matrices": [model.matrix_to_dict(M) for M in ent["matrices"]]}
    if "senses" in ent:
        out["senses"] = list(ent["senses"])
    return out


def _encode(ent: dict) -> dict:
    """Re-encode a loaded entry with model's codec (the inverse of gallery.load)."""
    kind = ent["kind"]
    if kind == "qcqp":
        return {"kind": kind,
                **model.instance_to_dict(ent["instance"], ent["gamma_generators"])}
    if kind == "ratio":
        return {"kind": kind, "data": ent["data"].tolist(),
                "rhs": ent["rhs"].tolist(), "radius": ent["radius"]}
    out = {"kind": kind, **_lmis(ent)}
    if "original" in ent:
        out["original"] = _lmis(ent["original"])
    return out


def _q(A, b, c) -> model.QuadraticForm:
    return model.QuadraticForm(np.asarray(A, dtype=float),
                               np.asarray(b, dtype=float), float(c))


def _builders() -> dict:
    return {
        "trs_1d": {"kind": "qcqp", "instance": model.QcqpInstance(
            1, _q([[-1.0]], [0], 0), (_q([[1.0]], [0], -1.0),))},
        "big_m_perspective": {"kind": "qcqp", "instance": model.QcqpInstance(
            2, _q(np.diag([1.0, 0.0]), [0, 0], 0), (),
            (_q([[0.0, -0.5], [-0.5, 0.0]], [0.5, 0.0], 0.0),
             _q(np.diag([0.0, -1.0]), [0.0, 0.5], 0.0)))},
        "rog_pair_not": {"kind": "matrix_pair", "matrices": (
            np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))},
        "rog_pair_3d_not": {"kind": "matrix_pair", "matrices": (
            np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0]))},
    }


class TestData:
    def test_names_complete(self):
        assert set(gallery.names()) == EXPECTED_NAMES

    def test_shipped_files_match_builders(self):
        # Entries that the gallery docstring pins down exactly, rebuilt here.
        rng = np.random.default_rng(7)
        rtls_data = rng.standard_normal((4, 2))
        rtls_rhs = rng.standard_normal(4)
        for name, built in _builders().items():
            shipped = gallery.load(name)
            assert shipped["kind"] == built["kind"], name
            if built["kind"] == "qcqp":
                assert model.instance_to_dict(shipped["instance"]) == \
                    model.instance_to_dict(built["instance"]), name
            else:
                for M, N in zip(shipped["matrices"], built["matrices"],
                                strict=True):
                    assert np.array_equal(M, N), name
        rtls = gallery.load("rtls_small")
        assert np.array_equal(rtls["data"], rtls_data)
        assert np.array_equal(rtls["rhs"], rtls_rhs)
        assert rtls["radius"] == 1.0

    def test_roundtrip_through_dict(self):
        # Every shipped file, decoded by gallery.load and re-encoded with
        # model's codec, equals its JSON exactly.
        data = importlib.resources.files("sdpexact").joinpath("gallery_data")
        for name in gallery.names():
            shipped = json.loads(data.joinpath(f"{name}.json").read_text())
            assert _encode(gallery.load(name)) == shipped, name


class TestRun:
    def test_matrix_pair_entry(self):
        rep = gallery.run("rog_pair_3d_not")
        assert rep["rog"].status == "NOT_ROG_CERTIFIED"
        assert rep["certificate_verified"]
        assert "witness" in rep

    def test_qcqp_entry(self):
        rep = gallery.run("gtrs_indefinite")
        s = rep["summary"]
        assert s["strong"].verdict == "HOLDS"
        assert s["ch"].verdict == "HOLDS"
        assert s["oracle"].exactness_flag

    def test_lmi_set_entry_with_original(self):
        rep = gallery.run("lifting_non_rog")
        assert rep["rog"].status == "NOT_ROG_CERTIFIED"
        assert rep["original_rog"].status == "ROG_CERTIFIED"

    def test_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            gallery.run("no_such_entry")
