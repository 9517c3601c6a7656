"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_reports_every_metric():
    result = _result(_run("--workload", "all", "--seed", "1", "--seconds", "0.3",
                          "--trace", "1"))
    metrics = result["metrics"]
    for name in WORKLOADS:
        for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
            got = metrics[f"{name}.{spec['name']}"]
            assert got["unit"] == spec["unit"], (name, spec)
            assert isinstance(got["value"], float)
        out = json.loads((HERE / "out" / f"{name}_seed1_trace0.json").read_text())
        info = out["info"]
        assert info["attempted"] > 0
        assert info["fail_frac"] == info["failed"] / info["attempted"]
        assert 0 <= info["soft_missed"] <= info["soft_checks"]
    assert result["attempted"] > 0


def test_counts_repeat_at_the_same_seed():
    def counts(proc):
        result = _result(proc)
        digest = [line for line in proc.stdout.splitlines() if "verdict_digest" in line]
        return digest, {k: v["value"] for k, v in result["metrics"].items()
                        if v["unit"] == "count"}

    args = ("--workload", "rog_battery", "--seed", "5", "--seconds", "1", "--trace", "1")
    first = counts(_run(*args))
    assert first[1]["rog.check_pair.calls"] > 0
    assert first == counts(_run(*args))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "pair_decide", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
