"""Built-in instance gallery.

Each entry ships as a JSON file under gallery_data/ and runs a pipeline
appropriate to its kind: full exactness analysis for QCQP instances,
pair/set classification for raw LMI data, and the ratio solver for ratio
problems.
"""

from __future__ import annotations

import importlib.resources
import json

import numpy as np

from . import exactness, model, oracles, ratio, rog, solver


def _enc_matrix(M) -> dict:
    M = np.asarray(M, dtype=float)
    d = np.diag(M)
    if np.max(np.abs(M - np.diag(d)), initial=0.0) == 0.0:
        return {"kind": "diag", "data": [model._num(v) for v in d]}
    return {"kind": "dense", "data": [model._num(v) for v in M.reshape(-1)]}


def _dec_matrix(enc: dict) -> np.ndarray:
    data = [float(v) for v in enc["data"]]
    if enc["kind"] == "diag":
        return np.diag(data)
    d = int(round(len(data) ** 0.5))
    return np.array(data).reshape(d, d)


# ---------------------------------------------------------------------------
# entry definitions
# ---------------------------------------------------------------------------


def _q(A, b, c):
    return model.QuadraticForm(np.asarray(A, dtype=float),
                               np.asarray(b, dtype=float), float(c))


def _build_entries() -> dict:
    e = {}

    # two concentric-hyperbola constraints; norm objective; optimum 2 at
    # the four corners (+-1, +-1)
    e["explicit_sdp"] = {
        "kind": "qcqp",
        "instance": model.QcqpInstance(
            2, _q(np.eye(2), [0, 0], 0),
            (_q(np.diag([-2.0, 1.0]), [0, 0], 1.0),
             _q(np.diag([1.0, -2.0]), [0, 0], 1.0))),
    }

    e["trs_1d"] = {
        "kind": "qcqp",
        "instance": model.QcqpInstance(
            1, _q([[-1.0]], [0], 0), (_q([[1.0]], [0], -1.0),)),
    }

    # indefinite objective, one ball constraint
    e["gtrs_indefinite"] = {
        "kind": "qcqp",
        "instance": model.QcqpInstance(
            2, _q(np.diag([1.0, -1.0]), [0.0, 0.5], 0),
            (_q(np.eye(2), [0, 0], -1.0),)),
    }

    # norm minimization outside one ball, below one halfspace
    e["swiss_cheese_2x2"] = {
        "kind": "qcqp",
        "instance": model.QcqpInstance(
            2, _q(np.eye(2), [0, 0], 0),
            (_q(-np.eye(2), [1.0, 0.0], -0.25),
             _q(np.zeros((2, 2)), [0.0, 0.5], -1.0))),
    }

    # diagonal with sign-definite linear terms
    e["diag_sign_definite"] = {
        "kind": "qcqp",
        "instance": model.QcqpInstance(
            2, _q(np.diag([-1.0, 1.0]), [0.5, 0.0], 0),
            (_q(np.diag([1.0, 0.0]), [0, 0], -1.0),)),
    }

    # no linear terms anywhere
    e["centered"] = {
        "kind": "qcqp",
        "instance": model.QcqpInstance(
            2, _q(np.diag([1.0, -2.0]), [0, 0], 0),
            (_q(np.eye(2), [0, 0], -1.0),)),
    }

    # mixed-binary epigraph: minimize x^2 with x(1-y) = 0 and y(1-y) = 0
    e["big_m_perspective"] = {
        "kind": "qcqp",
        "instance": model.QcqpInstance(
            2, _q(np.diag([1.0, 0.0]), [0, 0], 0),
            (),
            (_q([[0.0, -0.5], [-0.5, 0.0]], [0.5, 0.0], 0.0),
             _q(np.diag([0.0, -1.0]), [0.0, 0.5], 0.0))),
    }

    # repeated-block structure with two identical diagonal blocks
    e["qmp_k2"] = {
        "kind": "qcqp",
        "instance": model.QcqpInstance(
            4, _q(np.diag([1.0, -1.0, 1.0, -1.0]), [0, 0, 0, 0], 0),
            (_q(np.eye(4), [0, 0, 0, 0], -1.0),)),
    }

    e["rog_pair_not"] = {
        "kind": "matrix_pair",
        "matrices": (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])),
    }

    e["rog_pair_3d_not"] = {
        "kind": "matrix_pair",
        "matrices": (np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])),
    }

    # not rank-one generated, yet hull-exact as a QCQP
    e["rog_vs_ch"] = {
        "kind": "qcqp",
        "instance": model.QcqpInstance(
            2, _q(np.eye(2), [0, 0], 0),
            (_q(np.diag([-1.0, 1.0]), [0, 0], -1.0),
             _q(np.diag([2.0, -1.0]), [0, 0], -1.0))),
    }

    # an inequality pair with a shared factor whose equality lifting (with a
    # slack coordinate) stops being rank-one generated
    E = np.eye(4)
    lift1 = 0.5 * (np.outer(E[0], E[1]) + np.outer(E[1], E[0]))
    lift2 = 0.5 * (np.outer(E[0], E[2]) + np.outer(E[2], E[0])) + np.outer(E[3], E[3])
    e["lifting_non_rog"] = {
        "kind": "lmi_set",
        "matrices": (lift1, lift2),
        "senses": ("EQ", "EQ"),
        "original": {
            "matrices": (lift1[:3, :3],
                         0.5 * (np.outer(E[0][:3], E[2][:3]) + np.outer(E[2][:3], E[0][:3]))),
            "senses": ("LE", "LE"),
        },
    }

    # polyhedrally generated second-order-cone slice with a quadratic cap
    thetas = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    c = np.array([0.0, 0.0, 1.0])
    soc_members = [
        -0.5 * (np.outer(c, k) + np.outer(np.asarray(k), c))
        for k in ([np.cos(t), np.sin(t), 1.0] for t in thetas)
    ]
    soc_members.append(np.diag([1.0, 1.0, -1.0]))
    e["soc_cap"] = {
        "kind": "lmi_set",
        "matrices": tuple(soc_members),
        "senses": ("LE",) * len(soc_members),
    }

    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 2))
    b = rng.standard_normal(4)
    e["rtls_small"] = {
        "kind": "ratio",
        "data": A,
        "rhs": b,
        "radius": 1.0,
    }
    return e


_ENTRIES = None


def _entries() -> dict:
    global _ENTRIES
    if _ENTRIES is None:
        _ENTRIES = _build_entries()
    return _ENTRIES


def names() -> list:
    return sorted(_entries().keys())


def entry_to_dict(name: str) -> dict:
    ent = _entries()[name]
    kind = ent["kind"]
    if kind == "qcqp":
        d = {"kind": "qcqp"}
        d.update(model.instance_to_dict(ent["instance"]))
        return d
    if kind == "matrix_pair":
        return {"kind": "matrix_pair",
                "matrices": [_enc_matrix(M) for M in ent["matrices"]]}
    if kind == "lmi_set":
        d = {"kind": "lmi_set",
             "matrices": [_enc_matrix(M) for M in ent["matrices"]],
             "senses": list(ent["senses"])}
        if "original" in ent:
            d["original"] = {
                "matrices": [_enc_matrix(M) for M in ent["original"]["matrices"]],
                "senses": list(ent["original"]["senses"]),
            }
        return d
    if kind == "ratio":
        return {"kind": "ratio",
                "data": [[model._num(v) for v in row] for row in ent["data"]],
                "rhs": [model._num(v) for v in ent["rhs"]],
                "radius": model._num(ent["radius"])}
    raise KeyError(kind)


def entry_from_dict(d: dict) -> dict:
    kind = d["kind"]
    if kind == "qcqp":
        inst, gens = model.instance_from_dict(d)
        return {"kind": "qcqp", "instance": inst, "gamma_generators": gens}
    if kind == "matrix_pair":
        return {"kind": "matrix_pair",
                "matrices": tuple(_dec_matrix(m) for m in d["matrices"])}
    if kind == "lmi_set":
        out = {"kind": "lmi_set",
               "matrices": tuple(_dec_matrix(m) for m in d["matrices"]),
               "senses": tuple(d["senses"])}
        if "original" in d:
            out["original"] = {
                "matrices": tuple(_dec_matrix(m) for m in d["original"]["matrices"]),
                "senses": tuple(d["original"]["senses"]),
            }
        return out
    if kind == "ratio":
        return {"kind": "ratio",
                "data": np.array(d["data"], dtype=float),
                "rhs": np.array(d["rhs"], dtype=float),
                "radius": float(d["radius"])}
    raise KeyError(kind)


def write_gallery_files(directory) -> None:
    import pathlib

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in names():
        (directory / f"{name}.json").write_text(
            json.dumps(entry_to_dict(name), indent=2) + "\n")


def load(name: str) -> dict:
    """Load an entry from the shipped JSON data (not the in-memory builder)."""
    ref = importlib.resources.files("sdpexact").joinpath(f"gallery_data/{name}.json")
    return entry_from_dict(json.loads(ref.read_text()))


def _constraint_lmi_set(inst: model.QcqpInstance) -> rog.LmiSet:
    mats, _ = model.homogenize(inst)
    return rog.LmiSet(tuple(M for M, _ in mats),
                      tuple(s for _, s in mats))


def run(name: str, seed: int = 0) -> dict:
    """Execute the entry's full pipeline and return a report dict."""
    ent = load(name)
    kind = ent["kind"]
    report = {"name": name, "kind": kind}
    if kind == "qcqp":
        inst = ent["instance"]
        summary = exactness.exactness_summary(inst, ent.get("gamma_generators"))
        report["summary"] = summary
        mset = _constraint_lmi_set(inst)
        if len(mset.matrices) == 2:
            rv = rog.check_pair(*mset.matrices, seed=seed)
        elif len(mset.matrices) == 1:
            rv = rog.RogVerdict(status="ROG_CERTIFIED",
                                certificate={"kind": "SingleLmi"})
        else:
            rv = rog.check_common_factor(mset)
            if rv.status == "UNDECIDED":
                rv = rog.check_pairwise_sufficient(mset)
        report["rog"] = rv
        report["clconv"] = rog.clconv_report(inst, rv)
        return report
    if kind == "matrix_pair":
        M1, M2 = ent["matrices"]
        v = rog.check_pair(M1, M2, seed=seed)
        report["rog"] = v
        report["certificate_verified"] = rog.verify_certificate(v, M1, M2)
        if v.status == "NOT_ROG_CERTIFIED" and M1.shape[0] == 3:
            report["witness"] = rog.construct_rank2_witness_3d(M1, M2, seed=seed)
        return report
    if kind == "lmi_set":
        mset = rog.LmiSet(ent["matrices"], ent["senses"])
        if len(mset.matrices) == 2:
            v = rog.check_pair(*mset.matrices, seed=seed)
        else:
            v = rog.detect_soc_cap(mset)
            if v.status == "UNDECIDED":
                v = rog.check_common_factor(mset)
            if v.status == "UNDECIDED":
                v = rog.check_pairwise_sufficient(mset)
        report["rog"] = v
        if "original" in ent:
            ov = rog.check_pair(*ent["original"]["matrices"], seed=seed)
            report["original_rog"] = ov
        return report
    if kind == "ratio":
        p = ratio.build_rtls(ent["data"], ent["rhs"], ent["radius"])
        out = ratio.solve_ratio(p, seed=seed)
        report["ratio"] = out
        report["grid_value"] = ratio.rtls_grid_value(ent["data"], ent["rhs"],
                                                     ent["radius"])
        return report
    raise KeyError(kind)
