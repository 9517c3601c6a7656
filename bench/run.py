#!/usr/bin/env python3
"""sdpexact benchmark: closed-loop certification workloads, one client.

Run from the repository root:

    python3 bench/run.py --workload pair_decide --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload trust_region --seconds 25 --trace 1
    python3 bench/run.py --workload all --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed number of items twice, first untraced and then
with every layer wrapped from outside (see spans.py), and reports the
per-layer metrics and the tracing overhead. ``--workload all`` runs every
workload in this one process and also prints the machine facts.

Every item is checked (see workloads.py). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count the hard checks, those of a result; misses of
the soft (sampled-oracle) checks are reported apart. Per-item verdicts and their digest go to
bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

# single-threaded: set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# the keys of workloads.WORKLOADS; that module imports sdpexact, which must
# not happen before set-up is timed
WORKLOAD_NAMES = ("pair_decide", "rog_battery", "trust_region", "gallery")
SETUP_CHILDREN = 2  # setup_s is the median of these fresh processes and this one
# Item times are normalised by a fixed reference kernel timed just before and
# just after each item, and reported in milliseconds of a core that runs the
# kernel in REF_MS (an unloaded core of the baseline machine). Shared hosts
# slow a core by up to 1.9x for stretches of seconds; the ratio cancels that.
REF_MS = 0.70
TAIL_MIN_BEYOND = 10  # the tail percentile keeps at least this many items above it
SOFT_FAIL_LIMIT = 0.05  # criterion 06 accepts 95% sampled membership


class Tally:
    """Counts checks. `attempted` and `failed` count hard checks, the checks
    of a result: a failed one is a wrong or unverified result, or an item
    that raised. A soft check is a one-sided sampled oracle; when it does not
    confirm a result the operation still succeeded, so it is counted apart
    as a miss (see workloads.py)."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.soft_attempted = self.soft_missed = 0
        self.failures = []

    def add(self, index, checks):
        for label, ok, hard in checks:
            if hard:
                self.attempted += 1
                self.failed += not ok
            else:
                self.soft_attempted += 1
                self.soft_missed += not ok
            if not ok:
                self.failures.append({"item": index, "check": label, "hard": hard})

    def merge(self, other):
        for key in ("attempted", "failed", "soft_attempted", "soft_missed"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        self.failures += other.failures

    @property
    def correct(self) -> bool:
        soft_ok = self.soft_missed <= SOFT_FAIL_LIMIT * self.soft_attempted
        return self.attempted > 0 and self.failed == 0 and soft_ok


def _import_workloads():
    if not (SRC / "sdpexact" / "__init__.py").is_file():
        sys.exit(f"error: no sdpexact sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path[:0] = [str(SRC), str(HERE)]
    import sdpexact
    import workloads

    if pathlib.Path(sdpexact.__file__).resolve().parent != SRC / "sdpexact":
        sys.exit(f"error: imported sdpexact from {sdpexact.__file__}, not {SRC}")
    return workloads


def setup(name):
    """Import the program and prepare the workload; returns (workload, item, s)."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    import sdpexact.cli  # noqa: F401  (a user of the command line pays for it)

    w = workloads.WORKLOADS[name]
    item_fn = w.make_item()
    return w, item_fn, time.perf_counter() - t0


def setup_seconds(name) -> list:
    """Set-up time of SETUP_CHILDREN fresh interpreters, one after another.

    It is raw wall time: the reference kernel needs numpy, so it could only
    be timed after set-up, and that normalisation proved noisier than none.
    """
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def reference_kernel():
    """A fixed numpy + interpreter workload that shares no code with sdpexact.

    Binds ``np.linalg.eigvalsh`` now, so a later traced run does not see it.
    The collector is paused so that garbage an item left stays the item's cost.
    """
    import gc

    import numpy as np

    eigvalsh = np.linalg.eigvalsh
    M = np.array([[2.0, 1.0, 0.0, 0.5], [1.0, -1.0, 0.3, 0.0],
                  [0.0, 0.3, 0.5, -0.7], [0.5, 0.0, -0.7, 1.5]])

    def kernel_ms():
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(100):
                eigvalsh(M)
            acc = 0
            for i in range(3000):
                acc += i * i % 7
            return 1e3 * (time.perf_counter() - t0)
        finally:
            gc.enable()

    return kernel_ms


class Loop:
    """Result of one closed loop: raw and normalised item latencies (s)."""

    def __init__(self):
        self.raw, self.norm, self.records, self.tally = [], [], [], Tally()
        self.wall = 0.0
        self.rss_mb = None


def run_items(w, item_fn, seed, kernel_ms, *, seconds=None, count=None, tracer=None,
              rss_after=None):
    """Closed loop over the seeded stream, until `seconds` have passed (at a
    batch boundary) or `count` items are done. Peak RSS is read after item
    `rss_after`, or at the end if the loop stops first."""
    stream = w.stream(seed)
    out = Loop()
    t_start = time.perf_counter()
    ref_before = kernel_ms()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if (seconds is not None and i % w.batch == 0
                and time.perf_counter() - t_start >= seconds):
            break
        item = next(stream)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                record, checks = item_fn(item)
            else:
                with tracer.span("item"):
                    record, checks = item_fn(item)
        except Exception as exc:  # an item that raises is a failed check
            record, checks = {"error": repr(exc)}, [("raised", False, True)]
        lat = time.perf_counter() - t0
        ref_after = kernel_ms()
        out.raw.append(lat)
        out.norm.append(lat * REF_MS / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        out.records.append(record)
        out.tally.add(i, checks)
        i += 1
        if i == rss_after:
            out.rss_mb = peak_rss_mb()
    out.wall = time.perf_counter() - t_start
    if out.rss_mb is None:
        out.rss_mb = peak_rss_mb()
    return out


def tail_percentile(n: int, preferred: float) -> float:
    """`preferred` if at least TAIL_MIN_BEYOND items lie above it, else the
    highest percentile that keeps that many (never below the median)."""
    if n * (1.0 - preferred / 100.0) >= TAIL_MIN_BEYOND:
        return preferred
    return max(50.0, math.floor(100.0 * (1.0 - TAIL_MIN_BEYOND / n)) if n else 50.0)


def digest(records) -> str:
    blob = json.dumps(records, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fixed_count(w, seconds) -> int:
    """Items in about half of `seconds`, in whole batches. The traced run
    takes this many twice; it is fixed for a given --seconds, so every count
    repeats exactly at the same seed."""
    return w.batch * max(1, math.ceil(seconds / (2.0 * w.nominal_item_s * w.batch)))


def end_to_end(w, item_fn, seed, seconds, setup_samples):
    import numpy as np

    kernel_ms = reference_kernel()
    run_items(w, item_fn, seed, kernel_ms, count=w.batch)  # warm-up, not counted
    # memory grows with the items done (PROCESSED_SUMMARIES), so it is read
    # after a fixed number of them: a faster program must not read worse
    loop = run_items(w, item_fn, seed, kernel_ms, seconds=seconds,
                     rss_after=fixed_count(w, seconds))
    n = len(loop.norm)
    pct = tail_percentile(n, w.tail_pct)
    ms = [1e3 * x for x in loop.norm]
    metrics = {
        "items_per_s": (n / sum(loop.norm), "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_tail_ms": (float(np.percentile(ms, pct)), "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (loop.rss_mb, "MB"),
    }
    info = {"items": n, "wall_s": loop.wall, "tail_percentile": pct,
            "raw_items_per_s": n / sum(loop.raw),
            "raw_item_p50_ms": 1e3 * statistics.median(loop.raw),
            "setup_samples_s": setup_samples, "fail_frac": _frac(loop.tally),
            "soft_miss_frac": _soft_frac(loop.tally),
            "latency_ms": ms}
    return metrics, info, loop.records, loop.tally


def traced(w, item_fn, seed, seconds):
    from spans import Tracer

    kernel_ms = reference_kernel()
    count = fixed_count(w, seconds)
    run_items(w, item_fn, seed, kernel_ms, count=w.batch)  # warm-up, not counted
    plain = run_items(w, item_fn, seed, kernel_ms, count=count)
    tracer = Tracer()
    tracer.install()
    try:
        loop = run_items(w, item_fn, seed, kernel_ms, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (sum(loop.norm) / sum(plain.norm) - 1.0, "frac")
    loop.tally.merge(plain.tally)
    metrics["fail_frac"] = (_frac(loop.tally), "frac")
    metrics["soft_miss_frac"] = (_soft_frac(loop.tally), "frac")
    info = {"items": count, "untraced_wall_s": plain.wall, "traced_wall_s": loop.wall}
    return metrics, info, loop.records, loop.tally


def _frac(tally) -> float:
    return tally.failed / tally.attempted if tally.attempted else 0.0


def _soft_frac(tally) -> float:
    return tally.soft_missed / tally.soft_attempted if tally.soft_attempted else 0.0


def machine_facts() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "machine": platform.machine()}


def run_workload(name, seed, seconds, trace):
    setup_samples = [] if trace else setup_seconds(name)
    w, item_fn, own_setup = setup(name)
    setup_samples.append(own_setup)
    seed = w.default_seed if seed is None else seed
    if trace:
        metrics, info, records, tally = traced(w, item_fn, seed, seconds)
    else:
        metrics, info, records, tally = end_to_end(w, item_fn, seed, seconds,
                                                   setup_samples)
    info.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                verdict_digest=digest(records), attempted=tally.attempted,
                failed=tally.failed, soft_checks=tally.soft_attempted,
                soft_missed=tally.soft_missed, correct=tally.correct)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(
        {"info": info, "metrics": metrics, "failures": tally.failures[:200],
         "records": records}, indent=1, default=str) + "\n")
    for key, value in info.items():
        if key not in ("setup_samples_s", "latency_ms"):
            print(f"# {name} {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    return metrics, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: 3 for pair streams, 0 otherwise)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(setup(args.workload)[2])
        return 0
    if args.workload != "all":
        metrics, tally = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(_result(tally, metrics)))
        return 0

    # untraced runs first: peak RSS is the shared process's high-water mark
    merged, total = {}, Tally()
    for trace in sorted({0, args.trace}):
        for name in WORKLOAD_NAMES:
            metrics, tally = run_workload(name, args.seed, args.seconds, trace)
            merged.update({f"{name}.{k}": v for k, v in metrics.items()})
            total.merge(tally)
    facts = machine_facts()
    result = _result(total, merged)
    OUT.mkdir(exist_ok=True)
    (OUT / "all.json").write_text(json.dumps(
        {"machine": facts, "seed": args.seed, "seconds": args.seconds, **result},
        indent=1) + "\n")
    print(f"# machine: {json.dumps(facts)}")
    print(json.dumps(result))
    return 0


def _result(tally, metrics) -> dict:
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
