"""The four benchmark workloads: seeded inputs, one item of user work each,
and the independent checks every item must pass.

An item returns ``(record, checks)``. ``record`` holds the item's
categorical verdicts (it feeds the verdict digest); ``checks`` is a list of
``(label, ok, hard)``. A hard check is a wrong or unverified result. A soft
check is a one-sided sampled oracle that did not confirm the result (a
relaxation-point solve that is not OPTIMAL, a membership test that is
NOT_SHOWN, a probe gap on a certified pair). Only a hard check that does
not hold is a failed operation. A soft check that does not confirm is a
miss, reported as ``soft_miss_frac``; the repository's own acceptance
criterion 06 tolerates up to 5% of those.

The generators re-implement ``random_sym`` and ``make_gtrs`` of the test
suite (criteria 03 and 06) so the benchmark does not import ``tests/``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from sdpexact import exactness, gallery, model, oracles, rog, solver

HERE = pathlib.Path(__file__).resolve().parent
GALLERY_REFERENCE = HERE / "gallery_reference.json"

PAIR_DIMS = (3, 3, 3, 4, 4)  # cycled per pair index, as in criterion 03
PAIR_EPS = 1e-5
PROBE_GAP_TOL = 1e-3
POINTS_PER_INSTANCE = 20
MEMBERSHIP_SAMPLES = 200


def random_sym(rng, d):
    G = rng.standard_normal((d, d))
    return 0.5 * (G + G.T)


def make_gtrs(seed):
    """Random diagonal objective over the unit ball (n = 2)."""
    rng = np.random.default_rng(seed)
    A = np.diag(rng.uniform(-1.0, 1.0, size=2))
    b = rng.uniform(-0.5, 0.5, size=2)
    return model.QcqpInstance(
        2, model.QuadraticForm(A, b, 0.0),
        (model.QuadraticForm(np.eye(2), np.zeros(2), -1.0),))


# ---------------------------------------------------------------------------
# item streams
# ---------------------------------------------------------------------------


def pair_stream(seed: int) -> Iterator[tuple]:
    """(k, d, M1, M2) for k = 0, 1, ...; seed 3 replays criterion 03."""
    rng = np.random.default_rng(seed)
    k = 0
    while True:
        d = PAIR_DIMS[k % len(PAIR_DIMS)]
        M1 = random_sym(rng, d)
        M2 = random_sym(rng, d)
        yield k, d, M1, M2
        k += 1


def gtrs_stream(seed: int) -> Iterator[tuple]:
    """(instance seed, instance); seed 0 replays the instances of criterion 06."""
    i = 0
    while True:
        inst_seed = seed * 100_000 + i
        yield inst_seed, make_gtrs(inst_seed)
        i += 1


def gallery_stream(seed: int) -> Iterator[tuple]:
    """(pass, name, seed): every entry once per pass, in a seeded order."""
    names = gallery.names()
    rng = np.random.default_rng(seed)
    p = 0
    while True:
        for j in rng.permutation(len(names)):
            yield p, names[int(j)], seed
        p += 1


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------


def _decide_pair(k, d, M1, M2, checks):
    verdict = rog.check_pair(M1, M2, seed=k, eps=PAIR_EPS)
    checks.append(("certificate", bool(rog.verify_certificate(verdict, M1, M2)), True))
    checks.append(("decided", verdict.status != "UNDECIDED", True))
    record = {"k": k, "status": verdict.status,
              "kind": verdict.certificate.get("kind")}
    if d == 3 and verdict.status == "NOT_ROG_CERTIFIED":
        try:
            built = rog.construct_rank2_witness_3d(M1, M2, seed=k)
            ok, _ = rog.verify_extreme_rank2(built["Z"], M1, M2)
        except rog.ConstructionFailed:
            ok = False
        checks.append(("witness", bool(ok), True))
        record["witness"] = bool(ok)
    return verdict, record


def pair_decide_item(item):
    checks = []
    _, record = _decide_pair(*item, checks)
    return record, checks


def rog_battery_item(item):
    k, _, M1, M2 = item
    checks = []
    verdict, record = _decide_pair(*item, checks)
    probe = rog.probe_random_objectives(
        rog.LmiSet((M1, M2), ("LE", "LE")), trials=2, seed=k, samples=2048,
        eps=PAIR_EPS, max_iter=5000)
    if verdict.status == "ROG_CERTIFIED":
        # finite rank-one evidence must not beat the slice bound. Soft: the
        # probe compares against whatever value its SDP solve returned,
        # MAX_ITER included, so a gap may be the probe's and not the verdict's
        consistent = all(not (np.isfinite(r["v_rank1"]) and r["gap"] > PROBE_GAP_TOL)
                         for r in probe["records"])
        checks.append(("probe_gap", consistent, False))
    record["flagged"] = probe["flagged"]
    return record, checks


def _relaxation_point(inst, rng):
    """Random-objective optimum of the lifted relaxation as (x, t), or None."""
    n = inst.n
    prog = solver.relaxation_program(inst)
    M_obj = inst.objective.embed()
    C = float(rng.uniform(0.2, 1.0)) * M_obj
    for j in range(n):
        E = np.zeros((n + 1, n + 1))
        E[j, n] = E[n, j] = 0.5
        C = C + float(rng.standard_normal()) * E
    prog = solver.ConicProgram(dim=prog.dim, objective_matrix=C,
                               constraints=prog.constraints)
    sol = solver.solve(prog, eps=1e-6, max_iter=20000)
    if sol.status != solver.SolveStatus.OPTIMAL:
        return None
    return sol.Z[:n, n].copy(), float(np.sum(M_obj * sol.Z))


def trust_region_item(item):
    inst_seed, inst = item
    checks = []
    summary = exactness.exactness_summary(inst)
    ch = summary["ch"].verdict
    flag = bool(summary["oracle"].exactness_flag)
    checks.append(("ch", ch == "HOLDS", True))
    checks.append(("oracle_exact", flag, True))
    rng = np.random.default_rng(10_000 + inst_seed)
    members = []
    for _ in range(POINTS_PER_INSTANCE):
        pt = _relaxation_point(inst, rng)
        checks.append(("point_optimal", pt is not None, False))
        if pt is None:
            members.append(None)
            continue
        status = oracles.conv_membership_sample(inst, pt[0], pt[1],
                                                n_samples=MEMBERSHIP_SAMPLES)
        checks.append(("membership", status == "LIKELY_IN", False))
        members.append(status)
    record = {"seed": inst_seed, "strong": summary["strong"].verdict,
              "weak": summary["weak"].verdict, "ch": ch,
              "burer_ye": summary["burer_ye"].verdict, "oracle_exact": flag,
              "membership": members}
    return record, checks


def gallery_verdicts(report: dict) -> dict:
    """The categorical verdicts of one gallery report."""
    out = {}
    if "rog" in report:
        out["rog"] = report["rog"].status
    if "original_rog" in report:
        out["original_rog"] = report["original_rog"].status
    if "summary" in report:
        for key in ("strong", "weak", "ch", "burer_ye"):
            out[key] = report["summary"][key].verdict
    if "clconv" in report:
        out["clconv"] = report["clconv"]["consequence"]
    if "ratio" in report:
        out["ratio_claim"] = report["ratio"]["claim"]
    if "certificate_verified" in report:
        out["certificate_verified"] = bool(report["certificate_verified"])
    return out


def record_gallery_reference(path=GALLERY_REFERENCE, seed: int = 0) -> None:
    """Write the reference verdicts every gallery item is checked against."""
    ref = {name: gallery_verdicts(gallery.run(name, seed=seed))
           for name in gallery.names()}
    path.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")


def make_gallery_item():
    reference = json.loads(GALLERY_REFERENCE.read_text())

    def gallery_item(item):
        p, name, seed = item
        got = gallery_verdicts(gallery.run(name, seed=seed))
        want = reference[name]
        checks = [(f"{name}.{key}", got.get(key) == want[key], True)
                  for key in sorted(want)]
        return {"pass": p, "name": name, **got}, checks

    return gallery_item


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    default_seed: int
    stream: Callable[[int], Iterator]
    make_item: Callable[[], Callable]  # called once during set-up
    batch: int  # a run stops only after a whole batch (gallery: one pass)
    tail_pct: float  # tail percentile when the run has enough items
    nominal_item_s: float  # sizes the fixed-length traced run


# Why these four (see README.md): each stresses different layers, and each
# planned optimisation has one workload that runs its code and one that
# does not.
WORKLOADS = {
    # angular eigvalsh scan inside check_pair; solver ~2%, no oracles
    "pair_decide": Workload(3, pair_stream, lambda: pair_decide_item,
                            batch=1, tail_pct=95.0, nominal_item_s=0.045),
    # SLSQP sphere oracle and ADMM solver of the probe dominate
    "rog_battery": Workload(3, pair_stream, lambda: rog_battery_item,
                            batch=1, tail_pct=80.0, nominal_item_s=0.23),
    # membership (eval_form loop, HiGHS) and solver; rog never runs
    "trust_region": Workload(0, gtrs_stream, lambda: trust_region_item,
                             batch=1, tail_pct=60.0, nominal_item_s=0.5),
    # the only path to ratio, clconv, the LMI-set rules and supplied gamma data
    "gallery": Workload(0, gallery_stream, make_gallery_item,
                        batch=len(gallery.names()), tail_pct=95.0,
                        nominal_item_s=0.055),
}
