"""Outside-in tracing: wrap module attributes of sdpexact, numpy and scipy,
record one span per call, and reduce the spans to per-layer metrics.

Nothing in the program is edited. Every wrapped function is looked up
through its module attribute at call time (``solver.solve``,
``np.linalg.eigvalsh``, ``scipy.optimize.linprog``), so replacing the
attribute catches calls from other modules and from inside the module
itself. ``Tracer.uninstall`` puts the originals back.

A span is (name, parent span, start, end), kept in flat arrays so that a
traced run of a million leaf calls stays small. Self time is a span's
duration minus the durations of its direct children. The runner opens one
``item`` span per item, so every span belongs to exactly one item.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name); the span name's first part is its layer
TRACED = [
    ("numpy.linalg", "eigh", "numpy.eigh"),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh"),
    ("scipy.optimize", "linprog", "scipy.linprog"),
    ("scipy.optimize", "minimize", "scipy.minimize"),
    ("sdpexact.solver", "solve", "solver.solve"),
    ("sdpexact.linalg", "eig_sym", "linalg.eig_sym"),
    ("sdpexact.gamma", "build_gamma_data", "gamma.build_gamma_data"),
    ("sdpexact.gamma", "dd_extreme_rays", "gamma.dd_extreme_rays"),
    ("sdpexact.exactness", "exactness_summary", "exactness.exactness_summary"),
    ("sdpexact.exactness", "check_obj_strong", "exactness.check_obj_strong"),
    ("sdpexact.exactness", "check_obj_weak", "exactness.check_obj_weak"),
    ("sdpexact.exactness", "check_ch_polyhedral", "exactness.check_ch_polyhedral"),
    ("sdpexact.exactness", "check_burer_ye_diag", "exactness.check_burer_ye_diag"),
    ("sdpexact.exactness", "check_qmp_bounds", "exactness.check_qmp_bounds"),
    ("sdpexact.rog", "check_pair", "rog.check_pair"),
    ("sdpexact.rog", "gordan_stiemke", "rog.gordan_stiemke"),
    ("sdpexact.rog", "verify_certificate", "rog.verify_certificate"),
    ("sdpexact.rog", "construct_rank2_witness_3d", "rog.construct_rank2_witness_3d"),
    ("sdpexact.rog", "verify_extreme_rank2", "rog.verify_extreme_rank2"),
    ("sdpexact.rog", "probe_random_objectives", "rog.probe_random_objectives"),
    ("sdpexact.rog", "check_common_factor", "rog.check_common_factor"),
    ("sdpexact.rog", "check_pairwise_sufficient", "rog.check_pairwise_sufficient"),
    ("sdpexact.rog", "detect_soc_cap", "rog.detect_soc_cap"),
    ("sdpexact.rog", "clconv_report", "rog.clconv_report"),
    ("sdpexact.oracles", "grid_opt", "oracles.grid_opt"),
    ("sdpexact.oracles", "compare_opt", "oracles.compare_opt"),
    ("sdpexact.oracles", "sphere_min_rank_one", "oracles.sphere_min_rank_one"),
    ("sdpexact.oracles", "conv_membership_sample", "oracles.conv_membership_sample"),
    ("sdpexact.model", "eval_form", "model.eval_form"),
    ("sdpexact.ratio", "solve_ratio", "ratio.solve_ratio"),
    ("sdpexact.gallery", "load", "gallery.load"),
    ("sdpexact.gallery", "run", "gallery.run"),
]

LAYERS = ("solver", "linalg", "gamma", "exactness", "rog", "oracles", "model",
          "ratio", "gallery", "numpy", "scipy")
PROGRAM_LAYERS = LAYERS[:-2]


# What each span keeps of its return value, for the few metrics that need it.
def _solve_outcome(sol):
    return sol.iterations, sol.status.name == "OPTIMAL"


def _pair_outcome(verdict):
    cert = verdict.certificate or {}
    return verdict.status, cert.get("kind"), "note" in cert


KEEP_RETURN = {
    "solver.solve": _solve_outcome,
    "rog.check_pair": _pair_outcome,
    "scipy.minimize": lambda res: bool(res.success),
    "oracles.conv_membership_sample": lambda status: status == "LIKELY_IN",
    "gamma.dd_extreme_rays": len,
}

EXACTNESS_CHECKS = ("exactness.check_obj_strong", "exactness.check_obj_weak",
                    "exactness.check_ch_polyhedral",
                    "exactness.check_burer_ye_diag", "exactness.check_qmp_bounds")
FAMILY_RULES = ("rog.check_common_factor", "rog.check_pairwise_sufficient",
                "rog.detect_soc_cap")
ROUTES = ("dependent", "angular_scan", "quick_pd", "gordan_stiemke",
          "long_resolve", "undecided")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.returns: dict[int, object] = {}
        self.stack = [-1]
        self._originals = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself (items)."""
        return _Span(self, self._name_id(name))

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        keep = KEEP_RETURN.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, returns, clock = self.stack, self.returns, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if keep is not None:
                returns[sid] = keep(out)
            return out

        return traced

    def install(self):
        for modname, attr, name in TRACED:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self):
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        kind = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        nid = {n: i for i, n in enumerate(self.names)}
        layer_of = [n.split(".")[0] for n in self.names]

        def ids(name):
            return np.flatnonzero(kind == nid.get(name, -1))

        def calls(name):
            return len(ids(name))

        def self_sum(*span_names):
            return sum(float(self_s[ids(n)].sum()) for n in span_names)

        def p50_ms(name):
            d = dur[ids(name)]
            return 1e3 * float(np.median(d)) if len(d) else 0.0

        def nearest(sid, accept):
            sid = int(parent[sid])
            while sid >= 0 and not accept(int(kind[sid])):
                sid = int(parent[sid])
            return sid

        def program_layer(sid):
            up = nearest(sid, lambda k: layer_of[k] in PROGRAM_LAYERS)
            return layer_of[int(kind[up])] if up >= 0 else "bench"

        m = {}

        def put(name, value, unit):
            m[name] = (float(value), unit)

        put("trace.spans", len(dur), "count")
        put("trace.item_s", dur[ids("item")].sum(), "s")
        for layer in LAYERS:
            in_layer = [i for i, lay in enumerate(layer_of) if lay == layer]
            put(f"layer.{layer}.self_s", self_s[np.isin(kind, in_layer)].sum(), "s")

        # eigendecompositions
        put("numpy.eigvalsh.calls", calls("numpy.eigvalsh"), "count")
        put("numpy.eigh.calls", calls("numpy.eigh"), "count")
        put("numpy.eig.self_s", self_sum("numpy.eigvalsh", "numpy.eigh"), "s")
        put("linalg.eig_sym.calls", calls("linalg.eig_sym"), "count")
        put("linalg.eig_sym.self_s", self_sum("linalg.eig_sym"), "s")

        # rog pair decision and its routes
        put("rog.check_pair.calls", calls("rog.check_pair"), "count")
        put("rog.check_pair.p50_ms", p50_ms("rog.check_pair"), "ms")
        put("rog.check_pair.self_s", self_sum("rog.check_pair"), "s")
        put("rog.verify_certificate.self_s", self_sum("rog.verify_certificate"), "s")
        put("rog.construct_rank2_witness_3d.self_s",
            self_sum("rog.construct_rank2_witness_3d"), "s")
        nested = {int(s): {"rog.gordan_stiemke": 0, "solver.solve": 0}
                  for s in ids("rog.check_pair")}
        for inner in ("rog.gordan_stiemke", "solver.solve"):
            for sid in ids(inner):
                owner = nearest(sid, lambda k: k == nid["rog.check_pair"])
                if owner >= 0:
                    nested[owner][inner] += 1
        routes = dict.fromkeys(ROUTES, 0)
        for sid, inner in nested.items():
            routes[_route(self.returns[sid], inner["rog.gordan_stiemke"],
                          inner["solver.solve"])] += 1
        for route, n in routes.items():
            put(f"rog.route.{route}", n, "count")

        # sphere oracle
        put("rog.probe_random_objectives.self_s",
            self_sum("rog.probe_random_objectives"), "s")
        put("oracles.sphere_min_rank_one.calls", calls("oracles.sphere_min_rank_one"), "count")
        put("oracles.sphere_min_rank_one.self_s",
            self_sum("oracles.sphere_min_rank_one"), "s")
        mins = [self.returns[int(s)] for s in ids("scipy.minimize")]
        put("scipy.minimize.calls", len(mins), "count")
        put("scipy.minimize.self_s", self_sum("scipy.minimize"), "s")
        put("scipy.minimize.success_frac", _frac(sum(mins), len(mins)), "frac")

        # ADMM solver
        solves = [self.returns[int(s)] for s in ids("solver.solve")]
        iters = sum(it for it, _ in solves)
        put("solver.solve.calls", len(solves), "count")
        put("solver.solve.self_s", self_sum("solver.solve"), "s")
        put("solver.solve.iters", iters, "count")
        put("solver.solve.us_per_iter",
            1e6 * _frac(dur[ids("solver.solve")].sum(), iters), "us")
        put("solver.solve.nonoptimal_frac",
            _frac(sum(it for it, ok in solves if not ok), iters), "frac")

        # membership oracle, forms and LPs by the layer that calls them
        members = [self.returns[int(s)] for s in ids("oracles.conv_membership_sample")]
        put("oracles.conv_membership_sample.calls", len(members), "count")
        put("oracles.conv_membership_sample.self_s",
            self_sum("oracles.conv_membership_sample"), "s")
        put("oracles.membership.likely_in_frac", _frac(sum(members), len(members)), "frac")
        put("model.eval_form.calls", calls("model.eval_form"), "count")
        lp_calls = {"exactness": 0, "oracles": 0}
        lp_self = {"exactness": 0.0, "oracles": 0.0}
        for sid in ids("scipy.linprog"):
            layer = program_layer(sid)
            if layer in lp_calls:
                lp_calls[layer] += 1
                lp_self[layer] += float(self_s[sid])
        put("scipy.linprog.oracles.calls", lp_calls["oracles"], "count")
        put("scipy.linprog.oracles.self_s", lp_self["oracles"], "s")
        put("oracles.grid_opt.self_s", self_sum("oracles.grid_opt"), "s")

        # exactness pipeline and gamma data
        put("exactness.exactness_summary.calls", calls("exactness.exactness_summary"), "count")
        put("exactness.exactness_summary.p50_ms", p50_ms("exactness.exactness_summary"), "ms")
        put("exactness.checks.self_s", self_sum(*EXACTNESS_CHECKS), "s")
        put("scipy.linprog.exactness.calls", lp_calls["exactness"], "count")
        put("gamma.build_gamma_data.self_s", self_sum("gamma.build_gamma_data"), "s")
        put("gamma.dd_extreme_rays.self_s", self_sum("gamma.dd_extreme_rays"), "s")
        put("gamma.rays", sum(self.returns[int(s)] for s in ids("gamma.dd_extreme_rays")),
            "count")

        # gallery-only layers
        put("ratio.solve_ratio.self_s", self_sum("ratio.solve_ratio"), "s")
        put("rog.family_rules.self_s", self_sum(*FAMILY_RULES), "s")
        put("rog.clconv_report.self_s", self_sum("rog.clconv_report"), "s")
        put("gallery.load.self_s", self_sum("gallery.load"), "s")
        return m


def _route(outcome, n_gordan, n_solve) -> str:
    """Which branch of ``rog.check_pair`` decided, seen from outside.

    Linearly dependent pairs carry a note on their AggregationWeights
    certificate. Without a nested ``gordan_stiemke`` call the verdict came
    from the angular scan (AggregationWeights) or from the identity matrix
    polished into a PD witness (quick PD). Inside ``gordan_stiemke`` a
    second ``solver.solve`` is the long re-solve.
    """
    status, kind, has_note = outcome
    if status == "UNDECIDED":
        return "undecided"
    if kind == "AggregationWeights" and has_note:
        return "dependent"
    if n_gordan == 0:
        return "angular_scan" if kind == "AggregationWeights" else "quick_pd"
    return "long_resolve" if n_solve >= 2 else "gordan_stiemke"


def _frac(num, den) -> float:
    return float(num) / den if den else 0.0


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.t, self.nid = tracer, nid

    def __enter__(self):
        t = self.t
        self.sid = len(t.start)
        t.name_of.append(self.nid)
        t.parent.append(t.stack[-1])
        t.end.append(0.0)
        t.stack.append(self.sid)
        t.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        self.t.end[self.sid] = time.perf_counter()
        self.t.stack.pop()
        return False
