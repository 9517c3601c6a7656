"""Command-line interface: exit codes, output, JSON reports."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sdpexact import cli, gallery, model, rog
from conftest import make_explicit_instance, make_gtrs, make_lineality_instance, scaled

GALLERY_REFERENCE = (pathlib.Path(__file__).resolve().parents[1]
                     / "bench" / "gallery_reference.json")


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(model.instance_to_dict(make_explicit_instance()), indent=2))
    return str(path)


class TestParsing:
    def test_diag_literal(self):
        M = cli.parse_matrix_literal("diag:1,-1,0")
        assert np.array_equal(M, np.diag([1.0, -1.0, 0.0]))

    def test_dense_literal(self):
        M = cli.parse_matrix_literal("dense:0,1;1,0")
        assert np.array_equal(M, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_bad_prefix(self):
        with pytest.raises(cli.InputError):
            cli.parse_matrix_literal("mat:1,2")

    def test_nonsquare_dense(self):
        with pytest.raises(cli.InputError):
            cli.parse_matrix_literal("dense:1,2,3;4,5,6")


class TestSolve:
    def test_solve_reports_value(self, instance_file, capsys, tmp_path):
        out_json = str(tmp_path / "report.json")
        rc = cli.main(["solve", instance_file, "--json", out_json])
        assert rc == 0
        text = capsys.readouterr().out
        assert "objective: " in text and "status: OPTIMAL" in text
        payload = json.loads(open(out_json).read())
        assert abs(payload["objective"] - 2.0) <= 1e-4
        assert payload["status"] == "OPTIMAL"
        assert payload["iterations"] > 0
        assert payload["rho"] > 0.0

    def test_missing_file_is_input_error(self, capsys):
        rc = cli.main(["solve", "/nonexistent/file.json"])
        assert rc == 2

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["solve", str(bad)]) == 2


class TestCheck:
    @pytest.mark.parametrize("which,verdict", [
        ("obj-strong", "FAILS"),
        ("obj-weak", "HOLDS"),
        ("ch", "HOLDS"),
        ("burer-ye", "FAILS"),
    ])
    def test_explicit_verdicts(self, instance_file, capsys, which, verdict):
        rc = cli.main(["check", which, instance_file])
        assert rc == 0
        assert f"verdict: {verdict}" in capsys.readouterr().out

    @pytest.mark.parametrize("which", ["obj-strong", "obj-weak", "burer-ye"])
    def test_output_is_scale_free(self, tmp_path, capsys, which):
        # centered and criterion-06 seed 24 with every form scaled by 1e-6
        # print what they print at unit scale
        for k, inst in enumerate((gallery.load("centered")["instance"], make_gtrs(24))):
            outs = []
            for s in (1.0, 1e-6):
                path = tmp_path / f"{k}_{s}.json"
                path.write_text(json.dumps(model.instance_to_dict(scaled(inst, s))))
                assert cli.main(["check", which, str(path)]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] and "verdict: " in outs[0], k

    def test_ch_point(self, instance_file, capsys):
        # (0, 0, 2) is on the relaxation's boundary: t = opt_sdp
        rc = cli.main(["check", "ch-point", instance_file, "--x", "0,0", "--t", "2"])
        assert rc == 0
        assert "verdict: PASS" in capsys.readouterr().out.splitlines()

    def test_ch_point_requires_coordinates(self, instance_file, capsys):
        assert cli.main(["check", "ch-point", instance_file]) == 2

    @pytest.mark.parametrize("which,verdict", [
        ("obj-strong", "NOT_APPLICABLE"),
        ("obj-weak", "NOT_APPLICABLE"),
        ("ch", "NOT_APPLICABLE"),
        ("burer-ye", "FAILS"),
    ])
    def test_lineality_space(self, tmp_path, capsys, which, verdict):
        # a multiplier cone with a lineality space has no faces: the face
        # checks do not apply, which is no input error
        path = tmp_path / "lineality.json"
        path.write_text(json.dumps(model.instance_to_dict(make_lineality_instance())))
        report = tmp_path / "report.json"
        assert cli.main(["check", which, str(path), "--json", str(report)]) == 0
        assert f"verdict: {verdict}" in capsys.readouterr().out.splitlines()
        if verdict == "NOT_APPLICABLE":
            assert "lineality space" in json.loads(report.read_text())["details"]["reason"]

    @pytest.mark.parametrize("which", ["obj-strong", "obj-weak", "ch", "ch-point"])
    def test_not_diagonal_not_applicable(self, tmp_path, capsys, which):
        # a rotated instance without generators has no polyhedral cone data:
        # every face check reads NOT_APPLICABLE, which is no input error
        c, s = np.cos(0.3), np.sin(0.3)
        inst = model.congruence_transform(make_explicit_instance(), [[c, -s], [s, c]])
        path = tmp_path / "rotated.json"
        path.write_text(json.dumps(model.instance_to_dict(inst)))
        argv = ["check", which, str(path)] + (["--x", "0,0", "--t", "2"] * (which == "ch-point"))
        assert cli.main(argv) == 0
        assert "verdict: NOT_APPLICABLE" in capsys.readouterr().out.splitlines()

    def test_ch_point_lineality_space(self, tmp_path, capsys):
        path = tmp_path / "lineality.json"
        path.write_text(json.dumps(model.instance_to_dict(make_lineality_instance())))
        report = tmp_path / "report.json"
        argv = ["check", "ch-point", str(path), "--x", "0,0.5", "--t", "0", "--json", str(report)]
        assert cli.main(argv) == 0
        assert "verdict: NOT_APPLICABLE" in capsys.readouterr().out.splitlines()
        assert "lineality space" in json.loads(report.read_text())["reason"]


class TestRog:
    def test_pair_verdict(self, capsys, tmp_path):
        out_json = str(tmp_path / "rog.json")
        rc = cli.main(["rog", "pair", "diag:1,-1,0", "diag:0,1,-1",
                       "--json", out_json])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status: NOT_ROG_CERTIFIED" in out
        assert "verified: True" in out
        assert "route: bisection" in out
        payload = json.loads(open(out_json).read())
        assert payload["verdict"]["status"] == "NOT_ROG_CERTIFIED"
        assert payload["verdict"]["diagnostics"]["route"] == "bisection"
        assert payload["verified"] is True

    @pytest.mark.parametrize("pair", [
        ("diag:10000,-10000,0", "diag:-9999,10001,-0.000001"),
        ("diag:1000000,-2000000", "dense:3000000,0.0001;0.0001,-6000000"),
    ], ids=["near_cancelling_combination", "dependent_large_scale"])
    def test_pair_large_scale_verifies(self, pair, capsys):
        # the PSD combination nearly cancels; its eigenvalues are tiny only
        # next to the pair scale
        assert cli.main(["rog", "pair", *pair]) == 0
        out = capsys.readouterr().out
        assert "status: ROG_CERTIFIED" in out
        assert "verified: True" in out

    def test_small_pair_verifies(self, capsys):
        # the worked NOT_ROG pair at 1e-10: no norm is compared with 1
        assert cli.main(["rog", "pair", "diag:1e-10,-1e-10,0", "diag:0,1e-10,-1e-10"]) == 0
        out = capsys.readouterr().out
        assert "status: NOT_ROG_CERTIFIED" in out
        assert "verified: True" in out

    def test_pair_needs_two_matrices(self, capsys):
        assert cli.main(["rog", "pair", "diag:1,-1"]) == 2

    def test_witness3d(self, capsys, tmp_path):
        out_json = str(tmp_path / "witness.json")
        rc = cli.main(["rog", "witness3d", "diag:1,-1,0", "diag:0,1,-1",
                       "--json", out_json])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resultant:" in out
        assert "zero_lines: 4" in out
        lines = np.array(json.loads(open(out_json).read())["zero_lines"])
        assert np.allclose(np.abs(lines), 1.0 / np.sqrt(3.0))

    def test_witness3d_tiny_pair(self, capsys):
        rc = cli.main(["rog", "witness3d", "diag:0.001,-0.001,0", "diag:0,0.001,-0.001"])
        assert rc == 0
        assert "zero_lines: 4" in capsys.readouterr().out

    def test_witness3d_rog_pair_is_input_error(self, capsys):
        # a PSD combination exists: no zero lines and no witness to report
        assert cli.main(["rog", "witness3d", "diag:1,1,-1", "diag:0,0,1"]) == 2
        assert "PSD combination" in capsys.readouterr().err

    def test_witness3d_rejects_wrong_size(self, capsys):
        assert cli.main(["rog", "witness3d", "diag:1,-1", "diag:0,1"]) == 2

    def test_probe(self, capsys):
        rc = cli.main(["rog", "probe", "diag:1,-1", "dense:0,1;1,0",
                       "--trials", "2"])
        assert rc == 0
        assert "max_gap:" in capsys.readouterr().out

    def test_probe_negative_trials_is_input_error(self, capsys):
        assert cli.main(["rog", "probe", "diag:1,-1", "diag:-1,1", "--trials", "-3"]) == 2
        assert "trials" in capsys.readouterr().err

    def test_probe_empty_slice_not_flagged(self, capsys):
        # a PD member empties the slice: every trial is EMPTY_SLICE, unsolved
        rc = cli.main(["rog", "probe", "diag:1", "diag:2", "--trials", "1"])
        assert rc == 0
        assert "flagged: False" in capsys.readouterr().out

    def test_battery(self, capsys, tmp_path):
        out_json = str(tmp_path / "battery.json")
        rc = cli.main(["rog", "battery", "--pairs", "3", "--json", out_json])
        assert rc == 0
        assert "inconsistencies: 0" in capsys.readouterr().out
        payload = json.loads(open(out_json).read())
        assert sum(payload["counts"].values()) == 3
        assert [row["pair"] for row in payload["rows"]] == [0, 1, 2]
        assert all(row["verified"] is True for row in payload["rows"])
        # only ROG_CERTIFIED pairs are probed
        assert all(row["max_gap"] is None for row in payload["rows"]
                   if row["status"] != "ROG_CERTIFIED")


class TestRatio:
    def test_unknown_matrix_kind_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "ratio.json"
        path.write_text(json.dumps({
            "M_obj": {"kind": "sparse", "data": [1.0, 0.0, 0.0, 1.0]},
            "B": {"kind": "diag", "data": [1.0, 1.0]},
            "mset": {"matrices": [{"kind": "diag", "data": [1.0, -1.0]}],
                     "senses": ["LE"]}}))
        assert cli.main(["ratio", str(path)]) == 2
        assert "unknown matrix kind" in capsys.readouterr().err


BAD_DIAG = {"kind": "diag", "data": 5}


@pytest.mark.parametrize("argv", [
    ["solve", "{instance}"],
    ["ratio", "{ratio}"],
    ["rog", "pair", "diag:x", "diag:1"],
    ["rog", "pair", "dense:1,2;3", "diag:1,1"],
    ["rog", "pair", "diag:1,2", "diag:1,2,3"],
    ["rog", "pair", "dense:1,2;3,4", "diag:1,1"],
    ["rog", "probe", "diag:1,-1,1,1,1", "diag:1,1,1,-1,1"],
    ["rog", "pair", "diag:1e400,1", "diag:1,1"],
    ["check", "ch-point", "{explicit}", "--x", "0", "--t", "2"],
    ["check", "ch-point", "{explicit}", "--x", "0,0", "--t", "nan"],
], ids=["solve-bad-matrix", "ratio-bad-matrix", "non-numeric", "ragged",
        "dimension-mismatch", "asymmetric", "probe-5x5", "non-finite",
        "point-length", "point-value-nan"])
def test_malformed_input_exits_2(argv, instance_file, tmp_path, capsys):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"n": 2, "objective": {"A": BAD_DIAG}}))
    ratio_file = tmp_path / "ratio.json"
    ratio_file.write_text(json.dumps({
        "M_obj": BAD_DIAG, "B": {"kind": "diag", "data": [1.0, 1.0]},
        "mset": {"matrices": [{"kind": "diag", "data": [1.0, -1.0]}],
                 "senses": ["LE"]}}))
    argv = [a.format(instance=instance, ratio=ratio_file, explicit=instance_file)
            for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("input error:")


class TestOracleAndExamples:
    def test_oracle_compare(self, instance_file, capsys):
        rc = cli.main(["oracle", "compare", instance_file])
        assert rc == 0
        assert "exactness_flag: True" in capsys.readouterr().out

    def test_examples_list(self, capsys):
        rc = cli.main(["examples", "list"])
        assert rc == 0
        assert "explicit_sdp" in capsys.readouterr().out

    def test_examples_run_single(self, capsys):
        rc = cli.main(["examples", "run", "trs_1d"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== trs_1d ==" in out

    def test_examples_run_several(self, capsys):
        assert cli.main(["examples", "run", "trs_1d", "rog_pair_not"]) == 0
        out = capsys.readouterr().out
        assert "== trs_1d ==" in out and "== rog_pair_not ==" in out
        assert "verified: True" in out

    def test_examples_run_all_json(self, capsys, tmp_path):
        out_json = tmp_path / "gallery.json"
        assert cli.main(["examples", "run", "--all", "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert sorted(payload) == gallery.names()
        assert payload["rog_pair_not"]["certificate_verified"] is True

    def test_examples_run_all_matches_reference(self, capsys, tmp_path):
        # the categorical verdicts of every entry, as recorded for the benchmark
        out_json = tmp_path / "gallery.json"
        assert cli.main(["examples", "run", "--all", "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        reference = json.loads(GALLERY_REFERENCE.read_text())
        assert sorted(reference) == sorted(payload)
        for name, rep in payload.items():
            got = {key: rep[key]["status"] for key in ("rog", "original_rog") if key in rep}
            if "summary" in rep:
                got.update({key: rep["summary"][key]["verdict"]
                            for key in ("strong", "weak", "ch", "burer_ye")})
            if "clconv" in rep:
                got["clconv"] = rep["clconv"]["consequence"]
            if "ratio" in rep:
                got["ratio_claim"] = rep["ratio"]["claim"]
            if "certificate_verified" in rep:
                got["certificate_verified"] = rep["certificate_verified"]
            assert got == reference[name], name

    def test_examples_unknown_name(self, capsys):
        assert cli.main(["examples", "run", "missing_entry"]) == 2

    def test_examples_run_needs_name(self, capsys):
        assert cli.main(["examples", "run"]) == 2


def _leaf_flags(parser, path=()):
    """{command path: sorted option flags} over the leaf commands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): sorted(a.option_strings[0] for a in parser._actions
                                       if a.option_strings and a.dest != "help")}
    out = {}
    for name, sp in subs[0].choices.items():
        out.update(_leaf_flags(sp, path + (name,)))
    return out


class TestFlags:
    def test_each_command_accepts_only_the_flags_it_reads(self):
        seeded = ["--json", "--seed"]
        assert _leaf_flags(cli.build_parser()) == {
            "solve": ["--json"],
            "check": ["--json", "--t", "--x"],
            "rog pair": ["--json"],
            "rog witness3d": seeded,
            "rog probe": ["--json", "--seed", "--trials"],
            "rog battery": ["--json", "--pairs", "--seed"],
            "ratio": ["--json"],
            "oracle compare": ["--json"],
            "examples list": [],
            "examples run": ["--all", "--json", "--seed"],
        }

    @pytest.mark.parametrize("argv", [
        ["--seed", "5", "rog", "pair", "diag:1", "diag:2"],
        ["rog", "--seed", "5", "pair", "diag:1", "diag:2"],
        ["rog", "pair", "--seed", "5", "diag:1", "diag:2"],
        ["solve", "--seed", "1", "instance.json"],
        ["examples", "list", "--json", "x"],
    ], ids=["top_level_seed", "rog_seed", "rog_pair_seed", "solve_seed",
            "examples_list_json"])
    def test_unread_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["rog", "witness3d", "--seed", "5", "diag:1,-1,0", "diag:0,1,-1"],
        ["examples", "run", "--seed", "5", "rog_pair_3d_not"],
    ], ids=["witness3d", "examples_run"])
    def test_seed_reaches_rank2_witness(self, argv, monkeypatch, capsys):
        seeds = []
        construct = rog.construct_rank2_witness_3d

        def capture(M1, M2, seed=0):
            seeds.append(seed)
            return construct(M1, M2, seed=seed)

        monkeypatch.setattr(rog, "construct_rank2_witness_3d", capture)
        assert cli.main(argv) == 0
        assert seeds == [5]


def test_import_loads_no_scipy_stats():
    # every command pays for what `import sdpexact.cli` loads
    code = ("import sys, sdpexact.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"
