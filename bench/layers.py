"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each public function listed in TARGETS by a
timing wrapper, in its defining module and in every `flatvol` module that
imported it by name, and replaces listed methods on their classes.  The
program itself is not edited.  Each wrapped call records a span; a span's
self time is its duration minus the time of the wrapped calls nested in
it.  Inclusive time (`.s`) is counted for the outermost call of a name
only, so a function that reaches itself again is not counted twice.

Statistics are kept per thread (scans run on worker threads) and merged
when read.  Set `active = False` to make the wrappers pass calls straight
through, as the benchmark does after its timed loop.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

# (module, attribute path) of every wrapped callable.
TARGETS = (
    ("flatvol.moduli", "sphere_volume_kappa"),
    ("flatvol.moduli", "toric_decomposition"),
    ("flatvol.moduli", "witten_volume"),
    ("flatvol.moduli", "glue_volume"),
    ("flatvol.moduli", "mixed_characteristic_number"),
    ("flatvol.kappa", "PiecewisePolynomial.value_exact"),
    ("flatvol.kappa", "PiecewisePolynomial.chamber_polynomial_at"),
    ("flatvol.kappa", "PiecewisePolynomial.enumerate_support_chambers"),
    ("flatvol.kappa", "PiecewisePolynomial.load_chambers_json"),
    ("flatvol.kappa", "PiecewisePolynomial.dump_json"),
    ("flatvol.kappa", "VectorConfig.density"),
    ("flatvol.kappa", "kappa_point"),
    ("flatvol.exact", "lattice_points_in_ball"),
    ("flatvol.exact", "solve"),
    ("flatvol.exact", "det"),
    ("flatvol.poly", "poly_eval"),
    ("flatvol.poly", "poly_shift"),
    ("flatvol.characters", "enumerate_dominant"),
    ("flatvol.characters", "casimir_cutoff_for_count"),
    ("flatvol.mc", "product_class_histogram"),
    ("flatvol.mc", "haar_sample"),
    ("flatvol.mc", "class_parameter_batch"),
    ("flatvol.mc", "shape_compare"),
    ("flatvol.liecore", "enumerate_waff_positive"),
    ("flatvol.cli", "main"),
)

# Spline methods that materialize chambers on a miss; growth of
# `PiecewisePolynomial.chambers` inside them counts as chambers built.
_CHAMBER_MAKERS = frozenset(
    {"PiecewisePolynomial.value_exact",
     "PiecewisePolynomial.chamber_polynomial_at",
     "PiecewisePolynomial.enumerate_support_chambers"}
)


class _Frame:
    __slots__ = ("name", "start", "child_s", "counts_before")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.counts_before = None


class _ThreadStats:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)  # (parent, child) -> calls
        self.counts = defaultdict(float)  # derived work counters
        self.stack: list[_Frame] = []
        self.depth = defaultdict(int)
        self.maker_depth = 0


class Tracer:
    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._all: list[_ThreadStats] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = _ThreadStats()
            self._local.stats = st
            with self._lock:
                self._all.append(st)
        return st

    def count(self, name: str, amount: float) -> None:
        self._stats().counts[name] += amount

    def _wrap(self, name: str, fn):
        tracer = self
        maker = name in _CHAMBER_MAKERS

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._stats()
            parent = st.stack[-1].name if st.stack else None
            st.calls[name] += 1
            st.edges[(parent, name)] += 1
            frame = _Frame(name, 0.0)
            outer_maker = maker and st.maker_depth == 0
            chambers_before = len(args[0].chambers) if outer_maker else 0
            if maker:
                st.maker_depth += 1
            if name == "glue_volume":
                frame.counts_before = st.calls["sphere_volume_kappa"]
            st.stack.append(frame)
            st.depth[name] += 1
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame.start
                st.stack.pop()
                st.depth[name] -= 1
                if maker:
                    st.maker_depth -= 1
                if st.depth[name] == 0:
                    st.incl_s[name] += dur
                st.self_s[name] += dur - frame.child_s
                if st.stack:
                    st.stack[-1].child_s += dur
            if outer_maker:
                grown = len(args[0].chambers) - chambers_before
                if grown > 0:
                    st.counts["chambers_built"] += grown
                    st.counts["chamber_build_s"] += dur
            _derive(st, name, args, result, frame)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the currently imported flatvol modules."""
        mods = {k: m for k, m in sys.modules.items()
                if m is not None and (k == "flatvol" or k.startswith("flatvol."))}
        for modname, path in TARGETS:
            owner = mods[modname]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(path, cls.__dict__[meth]))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(path, orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    # -- reading -------------------------------------------------------------

    def merged(self) -> dict:
        out = {k: defaultdict(float) for k in
               ("calls", "incl_s", "self_s", "edges", "counts")}
        with self._lock:
            stats = list(self._all)
        for st in stats:
            for key in out:
                for k, v in getattr(st, key).items():
                    out[key][k] += v
        return out


def _derive(st: _ThreadStats, name, args, result, frame) -> None:
    """Work counters read from arguments and results of one call."""
    c = st.counts
    if name == "sphere_volume_kappa":
        rs, mus = args[0], args[1]
        lp = result.parameters["lattice_points"]
        c["lattice_points"] += lp
        c["weyl_tuples"] += lp * len(rs.weyl_elements()) ** (len(mus) - 1)
    elif name == "toric_decomposition":
        c["toric_terms"] += len(result[0])
    elif name == "witten_volume":
        c["series_weights"] += result.parameters["weights"]
    elif name == "enumerate_dominant":
        c["weights_enumerated"] += len(result)
    elif name == "product_class_histogram":
        c["samples"] += result.total
    elif name == "glue_volume":
        pants = st.calls["sphere_volume_kappa"] - frame.counts_before
        per_value = 2 if args[1].boundary == 4 else 1
        c["glue_integrand_calls"] += pants // per_value


def layer_metrics(tr: Tracer) -> dict:
    """The PER_LAYER values, and the times of layers that only some
    workloads use (written to the trace file only)."""
    m = tr.merged()
    calls, incl, self_s = m["calls"], m["incl_s"], m["self_s"]
    edges, counts = m["edges"], m["counts"]
    value_calls = calls["PiecewisePolynomial.value_exact"]
    evals_in_value = edges[("PiecewisePolynomial.value_exact", "poly_eval")]
    hit_ratio = 1.0 - evals_in_value / value_calls if value_calls else 0.0
    return {
        "moduli.sphere_volume_kappa.calls": calls["sphere_volume_kappa"],
        "moduli.sphere_volume_kappa.self_s": self_s["sphere_volume_kappa"],
        "moduli.lattice_points": counts["lattice_points"],
        "moduli.weyl_tuples": counts["weyl_tuples"],
        "moduli.toric_decomposition.self_s": self_s["toric_decomposition"],
        "moduli.toric_decomposition.calls": calls["toric_decomposition"],
        "moduli.toric_terms": counts["toric_terms"],
        "moduli.witten_volume.self_s": self_s["witten_volume"],
        "moduli.witten_volume.calls": calls["witten_volume"],
        "moduli.series_weights": counts["series_weights"],
        "moduli.glue_volume.self_s": self_s["glue_volume"],
        "moduli.glue_volume.calls": calls["glue_volume"],
        "moduli.glue_integrand_calls": counts["glue_integrand_calls"],
        "moduli.mixed_characteristic_number.self_s":
            self_s["mixed_characteristic_number"],
        "moduli.mixed_characteristic_number.calls": calls["mixed_characteristic_number"],
        "kappa.value_exact.calls": value_calls,
        "kappa.value_exact.self_s": self_s["PiecewisePolynomial.value_exact"],
        "kappa.value_cache_hit_ratio": hit_ratio,
        "kappa.chambers_built": counts["chambers_built"],
        "kappa.chamber_build_s": counts["chamber_build_s"],
        "kappa.density.calls": calls["VectorConfig.density"],
        "kappa.density.s": incl["VectorConfig.density"],
        "kappa.kappa_point.calls": calls["kappa_point"],
        "kappa.load_chambers_json.calls": calls["PiecewisePolynomial.load_chambers_json"],
        "kappa.dump_json.calls": calls["PiecewisePolynomial.dump_json"],
        "kappa.load_chambers_json.s": incl["PiecewisePolynomial.load_chambers_json"],
        "kappa.dump_json.s": incl["PiecewisePolynomial.dump_json"],
        "exact.lattice_points_in_ball.calls": calls["lattice_points_in_ball"],
        "exact.lattice_points_in_ball.s": incl["lattice_points_in_ball"],
        "exact.solve.calls": calls["solve"],
        "exact.solve.s": incl["solve"],
        "exact.det.calls": calls["det"],
        "poly.poly_eval.calls": calls["poly_eval"],
        "poly.poly_eval.s": incl["poly_eval"],
        "poly.poly_shift.calls": calls["poly_shift"],
        "characters.enumerate_dominant.calls": calls["enumerate_dominant"],
        "characters.enumerate_dominant.s": incl["enumerate_dominant"],
        "characters.weights_enumerated": counts["weights_enumerated"],
        "characters.casimir_cutoff_for_count.s": incl["casimir_cutoff_for_count"],
        "mc.product_class_histogram.s": incl["product_class_histogram"],
        "mc.haar_sample.s": incl["haar_sample"],
        "mc.class_parameter_batch.s": incl["class_parameter_batch"],
        "mc.shape_compare.self_s": self_s["shape_compare"],
        "mc.samples": counts["samples"],
        "mc.product_class_histogram.calls": calls["product_class_histogram"],
        "mc.haar_sample.calls": calls["haar_sample"],
        "liecore.enumerate_waff_positive.calls": calls["enumerate_waff_positive"],
        "liecore.enumerate_waff_positive.s": incl["enumerate_waff_positive"],
        "cli.main.s": incl["main"],
        "cli.main.calls": calls["main"],
        "cli.output_bytes": counts["output_bytes"],
    }


def full_report(tr: Tracer) -> dict:
    """Every recorded span and counter, for the trace file."""
    m = tr.merged()
    return {
        "calls": dict(m["calls"]),
        "incl_s": dict(m["incl_s"]),
        "self_s": dict(m["self_s"]),
        "edges": {f"{p} -> {c}": n for (p, c), n in m["edges"].items()},
        "counts": dict(m["counts"]),
        "layer_metrics": layer_metrics(tr),
    }


# The per-layer metrics a traced run prints, with their units.  Times of
# layers that only some workloads use (toric, series, gluing, operators,
# characters, mc, liecore, cli, cache I/O) stay in the trace file: on the
# other workloads they would read exactly 0.0 on every run, and a time
# that reads the same on every run is refused as unmeasured.  Their call
# and work counts are here.
PER_LAYER = (
    ("moduli.sphere_volume_kappa.calls", "count"),
    ("moduli.sphere_volume_kappa.self_s", "s"),
    ("moduli.lattice_points", "count"),
    ("moduli.weyl_tuples", "count"),
    ("moduli.toric_decomposition.calls", "count"),
    ("moduli.toric_terms", "count"),
    ("moduli.witten_volume.calls", "count"),
    ("moduli.series_weights", "count"),
    ("moduli.glue_volume.calls", "count"),
    ("moduli.glue_integrand_calls", "count"),
    ("moduli.mixed_characteristic_number.calls", "count"),
    ("kappa.value_exact.calls", "count"),
    ("kappa.value_exact.self_s", "s"),
    ("kappa.value_cache_hit_ratio", "ratio"),
    ("kappa.chambers_built", "count"),
    ("kappa.chamber_build_s", "s"),
    ("kappa.density.calls", "count"),
    ("kappa.density.s", "s"),
    ("kappa.kappa_point.calls", "count"),
    ("kappa.load_chambers_json.calls", "count"),
    ("kappa.dump_json.calls", "count"),
    ("exact.lattice_points_in_ball.calls", "count"),
    ("exact.lattice_points_in_ball.s", "s"),
    ("exact.solve.calls", "count"),
    ("exact.solve.s", "s"),
    ("exact.det.calls", "count"),
    ("poly.poly_eval.calls", "count"),
    ("poly.poly_eval.s", "s"),
    ("poly.poly_shift.calls", "count"),
    ("characters.enumerate_dominant.calls", "count"),
    ("characters.weights_enumerated", "count"),
    ("mc.product_class_histogram.calls", "count"),
    ("mc.haar_sample.calls", "count"),
    ("mc.samples", "count"),
    ("liecore.enumerate_waff_positive.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.output_bytes", "bytes"),
    ("trace.jobs_per_s", "1/s"),
)
