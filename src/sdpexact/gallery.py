"""Built-in instance gallery.

Each entry is one JSON file under gallery_data/, and those files are the
only definition of the gallery: adding an entry means adding a file.
``load`` decodes an entry and ``run`` executes the pipeline for its kind:
full exactness analysis for QCQP instances, pair/set classification for
raw LMI data, and the ratio solver for ratio problems.

Entries (what each one shows):

- big_m_perspective: mixed-binary epigraph, minimize x^2 with x(1-y) = 0
  and y(1-y) = 0.
- centered: indefinite diagonal objective over the unit disc, no linear
  terms anywhere.
- diag_sign_definite: diagonal forms with sign-definite linear terms.
- explicit_sdp: norm objective under two concentric-hyperbola constraints;
  optimum 2 at the four corners (+-1, +-1).
- gtrs_indefinite: indefinite objective with a linear term, one ball
  constraint.
- lifting_non_rog: an inequality pair with a shared factor whose equality
  lifting (with a slack coordinate) stops being rank-one generated.
- qmp_k2: repeated-block structure with two identical diagonal blocks.
- rog_pair_3d_not: the 3x3 pair diag(1,-1,0), diag(0,1,-1), not rank-one
  generated, with a rank-two extreme-ray witness.
- rog_pair_not: the 2x2 pair diag(1,-1), [[0,1],[1,0]], not rank-one
  generated.
- rog_vs_ch: not rank-one generated, yet hull-exact as a QCQP.
- rtls_small: regularized total least squares, 4x2 Gaussian data (seed 7)
  over the unit ball.
- soc_cap: polyhedrally generated second-order-cone slice with a
  quadratic cap.
- swiss_cheese_2x2: norm minimization outside one ball, below one
  halfspace.
- trs_1d: one-dimensional trust region, minimize -x^2 over x^2 <= 1.
"""

from __future__ import annotations

import importlib.resources
import json

import numpy as np

from . import exactness, model, ratio, rog


def _data():
    return importlib.resources.files("sdpexact").joinpath("gallery_data")


def names() -> list:
    """Sorted entry names: the stems of the shipped JSON files."""
    return sorted(f.name[:-len(".json")] for f in _data().iterdir()
                  if f.name.endswith(".json"))


def _matrices(d: dict) -> tuple:
    return tuple(model.matrix_from_dict(m) for m in d["matrices"])


def load(name: str) -> dict:
    """Decode a shipped entry (FileNotFoundError for an unknown name)."""
    d = json.loads(_data().joinpath(f"{name}.json").read_text())
    kind = d["kind"]
    if kind == "qcqp":
        inst, gens = model.instance_from_dict(d)
        return {"kind": "qcqp", "instance": inst, "gamma_generators": gens}
    if kind == "matrix_pair":
        return {"kind": "matrix_pair", "matrices": _matrices(d)}
    if kind == "lmi_set":
        out = {"kind": "lmi_set", "matrices": _matrices(d),
               "senses": tuple(d["senses"])}
        if "original" in d:
            out["original"] = {"matrices": _matrices(d["original"]),
                               "senses": tuple(d["original"]["senses"])}
        return out
    if kind == "ratio":
        return {"kind": "ratio",
                "data": np.array(d["data"], dtype=float),
                "rhs": np.array(d["rhs"], dtype=float),
                "radius": float(d["radius"])}
    raise KeyError(kind)


def run(name: str, seed: int = 0) -> dict:
    """Execute the entry's full pipeline and return a report dict; ``seed``
    seeds the rank-two witness of a 3x3 pair that is not ROG."""
    ent = load(name)
    kind = ent["kind"]
    report = {"name": name, "kind": kind}
    if kind == "qcqp":
        inst = ent["instance"]
        report["summary"] = exactness.exactness_summary(inst, ent.get("gamma_generators"))
        report["rog"] = rog.check_set(rog.LmiSet.from_instance(inst))
        report["clconv"] = rog.clconv_report(inst, report["rog"])
        return report
    if kind == "matrix_pair":
        M1, M2 = ent["matrices"]
        v = rog.check_pair(M1, M2)
        report["rog"] = v
        report["certificate_verified"] = rog.verify_certificate(v, M1, M2)
        if v.status == "NOT_ROG_CERTIFIED" and M1.shape[0] == 3:
            report["witness"] = rog.construct_rank2_witness_3d(M1, M2, seed=seed)
        return report
    if kind == "lmi_set":
        report["rog"] = rog.check_set(rog.LmiSet(ent["matrices"], ent["senses"]))
        if "original" in ent:
            report["original_rog"] = rog.check_pair(*ent["original"]["matrices"])
        return report
    if kind == "ratio":
        p = ratio.build_rtls(ent["data"], ent["rhs"], ent["radius"])
        out = ratio.solve_ratio(p)
        report["ratio"] = out
        report["grid_value"] = ratio.rtls_grid_value(ent["data"], ent["rhs"],
                                                     ent["radius"])
        return report
    raise KeyError(kind)
