"""Command-line front end.

Human-readable text goes to stdout; machine reports are written only when
--json PATH is given.  Exit codes: 0 completed, 2 input error, 3 solver
non-convergence, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys

import numpy as np

from . import exactness, gallery, gamma, linalg, model, oracles, ratio, rog, solver

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3
EXIT_VERIFICATION = 4


class InputError(ValueError):
    pass


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, enum.Enum):
        return obj.name
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def _write_json(path, payload):
    if path:
        with open(path, "w") as fh:
            json.dump(_jsonable(payload), fh, indent=2)


def parse_matrix_literal(text: str) -> np.ndarray:
    """`diag:1,-1,0` or `dense:1,0;0,1` (rows separated by semicolons)."""
    if text.startswith("diag:"):
        return np.diag([float(v) for v in text[5:].split(",") if v])
    if text.startswith("dense:"):
        rows = [[float(v) for v in row.split(",") if v]
                for row in text[6:].split(";") if row]
        if any(len(row) != len(rows) for row in rows):
            raise InputError("dense literal must be square")
        return np.array(rows)
    raise InputError(f"matrix literal must start with diag: or dense: ({text!r})")


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not isinstance(d, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return d


def _load_instance(path: str):
    d = _read_json(path)
    if d.get("kind") not in (None, "qcqp"):
        raise InputError(f"{path} is not a QCQP instance file")
    try:
        return model.instance_from_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance {path}: {exc}")


def _load_matrices(literals):
    """Parsed literals, checked to be finite, symmetric and of one dimension."""
    mats = [parse_matrix_literal(t) for t in literals]
    if len({M.shape[0] for M in mats}) > 1:
        raise InputError("matrices must all have the same dimension")
    if not all(np.isfinite(M).all() for M in mats):
        raise InputError("matrix entries must be finite")
    return [linalg.sym(M) for M in mats]


def _report_line(name: str, value) -> None:
    print(f"{name}: {value}")


def _cmd_solve(args) -> int:
    inst, _ = _load_instance(args.instance)
    val, Z, sol = solver.solve_opt_sdp(inst)
    _report_line("objective", f"{val:.10g}")
    _report_line("status", sol.status.name)
    _report_line("iterations", sol.iterations)
    print("Z:")
    for row in Z:
        print("  " + "  ".join(f"{v: .8f}" for v in row))
    _write_json(args.json, {"objective": val, "Z": Z, "status": sol.status.name,
                            "iterations": sol.iterations, "rho": sol.rho,
                            "residuals": [sol.primal_residual, sol.dual_residual, sol.gap]})
    if sol.status == solver.SolveStatus.MAX_ITER:
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_check(args) -> int:
    inst, gens = _load_instance(args.instance)
    which = args.which
    if which == "ch-point":
        if args.x is None or args.t is None:
            raise InputError("ch-point requires --x and --t")
        x = [float(v) for v in args.x.split(",")]
        gd = gamma.build_gamma_data(inst, gens)
        verdict, witness = exactness.check_ch_general_pointwise(inst, gd, x, args.t)
        _report_line("verdict", verdict)
        if witness is not None:
            _report_line("witness_x", [float(v) for v in witness[0]])
            _report_line("witness_t", witness[1])
        _write_json(args.json, {"verdict": verdict, "witness": witness, "reason": gd.reason})
        return EXIT_OK
    if which == "burer-ye":
        rep = exactness.check_burer_ye_diag(inst)
    elif which == "qmp":
        rep = exactness.check_qmp_bounds(inst, gens)
    else:
        fn = {"obj-strong": exactness.check_obj_strong,
              "obj-weak": exactness.check_obj_weak,
              "ch": exactness.check_ch_polyhedral}[which]
        rep = fn(inst, gamma.build_gamma_data(inst, gens))
    _report_line("condition", rep.condition)
    _report_line("verdict", rep.verdict)
    if "lp_calls" in rep.details:
        _report_line("lp_calls", rep.details["lp_calls"])
    for fr in rep.face_records:
        _report_line(f"face_{fr.face_id}", f"{fr.classification} {fr.sub_verdict}")
    _write_json(args.json, rep)
    return EXIT_OK


def _cmd_rog(args) -> int:
    sub = args.rog_cmd
    if sub == "battery":
        if args.pairs < 0:
            raise InputError("--pairs must be nonnegative")
        out = rog.run_battery(pairs=args.pairs, seed=args.seed)
        _report_line("pairs", args.pairs)
        _report_line("elapsed_s", f"{out['elapsed_s']:.1f}")
        for status, c in sorted(out["counts"].items()):
            print(f"  {status}: {c}")
        _report_line("certificate verification failures", len(out["verify_failures"]))
        _report_line("inconsistencies", len(out["inconsistencies"]))
        _write_json(args.json, out)
        if out["verify_failures"] or out["inconsistencies"]:
            return EXIT_VERIFICATION
        return EXIT_OK
    mats = _load_matrices(args.matrices)
    if sub == "pair":
        if len(mats) != 2:
            raise InputError("rog pair needs exactly two matrices")
        v = rog.check_pair(mats[0], mats[1])
        ok = rog.verify_certificate(v, mats[0], mats[1])
        _report_line("status", v.status)
        _report_line("certificate", v.certificate.get("kind"))
        _report_line("route", v.diagnostics["route"])
        _report_line("verified", ok)
        _write_json(args.json, {"verdict": v, "verified": ok})
        if v.status in ("ROG_CERTIFIED", "NOT_ROG_CERTIFIED") and not ok:
            return EXIT_VERIFICATION
        return EXIT_OK
    if sub == "witness3d":
        if len(mats) != 2 or mats[0].shape[0] != 3:
            raise InputError("rog witness3d needs two 3x3 matrices")
        # a dependent pair, a PSD combination or a common factor is an input error
        lines = rog.null_set_lines_3d(mats[0], mats[1])
        wit = rog.construct_rank2_witness_3d(mats[0], mats[1], seed=args.seed)
        _report_line("zero_lines", len(lines))
        for z in lines:
            print(f"  {[float(v) for v in z]}")
        _report_line("w", [float(v) for v in wit["w"]])
        _report_line("u", [float(v) for v in wit["u"]])
        _report_line("resultant", wit["resultant"])
        _write_json(args.json, {**wit, "zero_lines": lines})
        return EXIT_OK
    if sub == "probe":
        mset = rog.LmiSet(tuple(mats), ("LE",) * len(mats))
        rep = rog.probe_random_objectives(mset, trials=args.trials, seed=args.seed)
        _report_line("max_gap", rep["max_gap"])
        _report_line("flagged", rep["flagged"])
        _write_json(args.json, rep)
        return EXIT_OK
    raise InputError(f"unknown rog subcommand {sub!r}")


def _cmd_ratio(args) -> int:
    d = _read_json(args.instance)
    try:
        if d.get("kind") == "ratio" and "data" in d:
            p = ratio.build_rtls(np.array(d["data"], dtype=float),
                                 np.array(d["rhs"], dtype=float), float(d["radius"]))
        else:
            M_obj = model.matrix_from_dict(d["M_obj"])
            B = model.matrix_from_dict(d["B"])
            mats = tuple(model.matrix_from_dict(m) for m in d["mset"]["matrices"])
            p = ratio.RatioProblem(M_obj, B, rog.LmiSet(mats, tuple(d["mset"]["senses"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed ratio instance: {exc}")
    out = ratio.solve_ratio(p)
    _report_line("value", f"{out['value']:.10g}")
    _report_line("claim", out["claim"])
    _report_line("rog_hypothesis", out["hypotheses"]["rog"]["status"])
    _report_line("dual_hypothesis", out["hypotheses"]["dual"]["found"])
    if out["z"] is not None:
        _report_line("z", [float(v) for v in out["z"]])
    _write_json(args.json, out)
    if out["solution"].status == solver.SolveStatus.MAX_ITER:
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_oracle(args) -> int:
    inst, _ = _load_instance(args.instance)
    if inst.n > 3:
        raise InputError("oracle compare limited to n <= 3")
    rep = oracles.compare_opt(inst, solver.solve_opt_sdp(inst)[0])
    _report_line("opt_grid", rep.opt_grid)
    _report_line("opt_sdp", rep.opt_sdp)
    _report_line("gap", rep.gap)
    _report_line("exactness_flag", rep.exactness_flag)
    _write_json(args.json, rep)
    return EXIT_OK


def _cmd_examples(args) -> int:
    if args.examples_cmd == "list":
        for name in gallery.names():
            print(name)
        return EXIT_OK
    names = gallery.names() if args.all else args.names
    if not names:
        raise InputError("examples run needs one or more names, or --all")
    unknown = [name for name in names if name not in gallery.names()]
    if unknown:
        raise InputError(f"unknown example(s): {', '.join(unknown)}")
    payload = {}
    for name in names:
        rep = gallery.run(name, seed=args.seed)
        payload[name] = rep
        print(f"== {name} ==")
        if "summary" in rep:
            s = rep["summary"]
            for key in ("strong", "weak", "ch", "burer_ye"):
                print(f"  {key}: {s[key].verdict}")
            print(f"  opt_sdp: {s['opt_sdp']:.6g}")
            if "oracle" in s:
                print(f"  oracle_gap: {s['oracle'].gap:.3g} "
                      f"(exact: {s['oracle'].exactness_flag})")
        if "rog" in rep:
            print(f"  rog: {rep['rog'].status}")
        if "certificate_verified" in rep:
            print(f"  verified: {rep['certificate_verified']}")
        if "original_rog" in rep:
            print(f"  original_rog: {rep['original_rog'].status}")
        if "clconv" in rep:
            print(f"  clconv: {rep['clconv']['consequence']}")
        if "ratio" in rep:
            print(f"  ratio_value: {rep['ratio']['value']:.6g} "
                  f"(grid {rep['grid_value']:.6g}, {rep['ratio']['claim']})")
    _write_json(args.json, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Each leaf command accepts only the flags it reads: --json on every one
    but ``examples list``, --seed on the seeded ``rog`` commands (witness3d,
    probe, battery) and on ``examples run``."""
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", metavar="PATH",
                        help="write a machine report to PATH")
    seeded = argparse.ArgumentParser(add_help=False, parents=[report])
    seeded.add_argument("--seed", type=int, default=0)
    ap = argparse.ArgumentParser(prog="sdpexact")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="solve the lifted relaxation", parents=[report])
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check", help="run an exactness condition", parents=[report])
    p.add_argument("which", choices=["obj-strong", "obj-weak", "ch", "burer-ye",
                                     "qmp", "ch-point"])
    p.add_argument("instance")
    p.add_argument("--x", help="comma-separated point for ch-point")
    p.add_argument("--t", type=float, help="epigraph value for ch-point")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("rog", help="rank-one-generated analysis")
    rsub = p.add_subparsers(dest="rog_cmd", required=True)
    for name in ("pair", "witness3d", "probe"):
        rp = rsub.add_parser(name, parents=[report if name == "pair" else seeded])
        rp.add_argument("matrices", nargs="+", help="diag:... or dense:... literals")
        if name == "probe":
            rp.add_argument("--trials", type=int, default=10)
    rp = rsub.add_parser("battery", parents=[seeded],
                         help="seeded random-pair battery, every verdict re-checked")
    rp.add_argument("--pairs", type=int, default=200)
    p.set_defaults(fn=_cmd_rog)

    p = sub.add_parser("ratio", help="ratio-of-quadratics minimization", parents=[report])
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_ratio)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    op = osub.add_parser("compare", parents=[report])
    op.add_argument("instance")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("examples", help="built-in gallery")
    esub = p.add_subparsers(dest="examples_cmd", required=True)
    esub.add_parser("list")
    ep = esub.add_parser("run", parents=[seeded])
    ep.add_argument("names", nargs="*", metavar="name")
    ep.add_argument("--all", action="store_true")
    p.set_defaults(fn=_cmd_examples)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # InputError and the library's own input checks
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except rog.ConstructionFailed as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
