"""Outside-in span recorder for bcfusion.

`Recorder.install` replaces each traced public function in every bcfusion
namespace that binds it (``bcfusion.fuse``, ``bcfusion.fusion.fuse``,
``bcfusion.verify.fuse`` and ``bcfusion.bmwdual.fuse`` are separate
bindings), and patches methods and classmethods on their classes.  Nothing
under ``src/`` changes.  Spans (name, start, end, parent) are kept in
compact arrays in memory and summarised once the job has finished.

A check of ``verify.run_suite`` ends when its ``CheckResult`` is built, so
timestamping each construction of ``bcfusion.verify.CheckResult`` gives the
per-check times without touching ``verify.py``.
"""
from __future__ import annotations

import time
from array import array

import spec

import bcfusion
from bcfusion import bmwdual, cli, fusion, qchar, rootdata, symmetry, unitarity, verify

MODULES = (bcfusion, rootdata, fusion, qchar, symmetry, bmwdual, unitarity, verify, cli)

FUNCTIONS = {
    "fusion.alcove_enumerate": fusion.alcove_enumerate,
    "fusion.fuse_two_stage": fusion.fuse_two_stage,
    "qchar.qdim": qchar.qdim,
    "qchar.chi": qchar.chi,
    "qchar.dim_mu_vector": qchar.dim_mu_vector,
    "qchar.positive_character": qchar.positive_character,
    "qchar.pf_certify_unique": qchar.pf_certify_unique,
    "qchar.character_law_defect": qchar.character_law_defect,
    "symmetry.verify_simple_current": symmetry.verify_simple_current,
    "bmwdual.gamma_set": bmwdual.gamma_set,
    "bmwdual.eig_square_set_check": bmwdual.eig_square_set_check,
    "bmwdual.verify_psi_fusion": bmwdual.verify_psi_fusion,
    "bmwdual.gamma_bratteli": bmwdual.gamma_bratteli,
    "bmwdual.ranklevel_check": bmwdual.ranklevel_check,
    "bmwdual.trace_match": bmwdual.trace_match,
    "bmwdual.psi_table": bmwdual.psi_table,
    "unitarity.audit": unitarity.audit,
    "verify.run_suite": verify.run_suite,
    "cli.main": cli.main,
}

METHODS = {
    "rootdata.weyl_orbit": (rootdata.RootDatum, "weyl_orbit"),
    "fusion.check_unit": (fusion.FusionTable, "check_unit"),
    "fusion.check_total_symmetry": (fusion.FusionTable, "check_total_symmetry"),
    "fusion.check_associativity": (fusion.FusionTable, "check_associativity"),
    "fusion.check_sector_grading": (fusion.FusionTable, "check_sector_grading"),
}

CLASSMETHODS = {
    "fusion.FusionTable.build": (fusion.FusionTable, "build"),
    "symmetry.InvolutionData.build": (symmetry.InvolutionData, "build"),
}

# Originals, taken before anything is patched, for the post-run bookkeeping.
_dominant_weight_multiplicities = rootdata.RootDatum.dominant_weight_multiplicities
_weyl_orbit = rootdata.RootDatum.weyl_orbit
_CheckResult = verify.CheckResult


class Recorder:
    """Spans and counts of one traced job."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # counts gathered at the boundaries
        self.fuse_log: list[tuple[object, object, object, int | None]] = []
        self.highest_weights: set[tuple[object, object]] = set()
        self.labels = 0
        self.table_bytes = 0
        self.diagrams = 0
        self.z_rows = 0
        self.check_stamps: list[tuple[str, float]] = []
        self._sizes: dict[tuple[object, object], tuple[int, int]] = {}
        self._after_names: list[str] = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called ``name``; ``after(result)`` runs outside the span."""
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(end)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _set(self, target, attr: str, value) -> None:
        self._patched.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def _rebind(self, original, replacement) -> None:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        after = {
            "fusion.alcove_enumerate": self._saw_labels,
            "bmwdual.gamma_set": self._saw_diagrams,
            "unitarity.audit": self._saw_audit,
        }
        self._after_names = list(after)
        for name, fn in FUNCTIONS.items():
            self._rebind(fn, self.wrap(name, fn, after.get(name)))
        self._rebind(fusion.fuse, self._observed_fuse(self.wrap("fusion.fuse", fusion.fuse)))
        for name, (cls, attr) in METHODS.items():
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))
        dwm = self.wrap("rootdata.dominant_weight_multiplicities",
                        _dominant_weight_multiplicities)

        def observed_dwm(datum, lam):
            self.highest_weights.add((datum, lam))
            return dwm(datum, lam)

        self._set(rootdata.RootDatum, "dominant_weight_multiplicities", observed_dwm)
        for name, (cls, attr) in CLASSMETHODS.items():
            after_build = self._saw_table if cls is fusion.FusionTable else None
            self._set(cls, attr, classmethod(self.wrap(name, cls.__dict__[attr].__func__, after_build)))
        self._set(verify, "CheckResult", self._stamped_check_result)

    def uninstall(self) -> None:
        while self._patched:
            target, attr, value = self._patched.pop()
            setattr(target, attr, value)

    def _observed_fuse(self, traced_fuse):
        log = self.fuse_log

        def fuse(params, lam, mu, _cache=None):
            before = len(_cache) if _cache is not None else 0
            out = traced_fuse(params, lam, mu, _cache=_cache)
            log.append((params.datum, lam, mu, None if _cache is None else len(_cache) - before))
            return out

        return fuse

    def _saw_labels(self, labels) -> None:
        self.labels = max(self.labels, len(labels))

    def _saw_table(self, table) -> None:
        self.table_bytes += table.coeffs.nbytes

    def _saw_diagrams(self, diagrams) -> None:
        self.diagrams += len(diagrams)

    def _saw_audit(self, report) -> None:
        self.z_rows += len(report.per_z)

    def _stamped_check_result(self, *args, **kwargs):
        result = _CheckResult(*args, **kwargs)
        self.check_stamps.append((result.name, time.perf_counter()))
        return result

    # -- summary --------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name."""
        n = len(self.end)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
        return out

    def _first_span(self, name: str) -> tuple[float, float] | None:
        nid = self.names.index(name)
        for i in range(len(self.end)):
            if self.span_name[i] == nid:
                return self.start[i], self.end[i]
        return None

    def check_times(self) -> dict[str, float]:
        """Seconds per verify check: the gap since the previous CheckResult.

        The first gap starts with run_suite and holds the table build, which
        has its own metric, so the build span is taken out of it.
        """
        suite = self._first_span("verify.run_suite")
        if suite is None or not self.check_stamps:
            return {}
        build = self._first_span("fusion.FusionTable.build")
        prev = suite[0] + (build[1] - build[0] if build else 0.0)
        out = {}
        for name, stamp in self.check_stamps:
            out[name] = stamp - prev
            prev = stamp
        return out

    def multiset_size(self, datum, lam) -> tuple[int, int]:
        """(distinct weights, weights with multiplicity) of V_lam.

        The first is what fuse() reduces, one lookup per Weyl image of each
        dominant weight; the second is the multiset size sum of m * |W mu|.
        """
        key = (datum, lam)
        if key not in self._sizes:
            doms = _dominant_weight_multiplicities(datum, lam)
            orbits = {mu: len(_weyl_orbit(datum, mu)) for mu in doms}
            self._sizes[key] = (sum(orbits.values()),
                                sum(m * orbits[mu] for mu, m in doms.items()))
        return self._sizes[key]

    def wrapper_calls(self) -> int:
        """Calls into the recorder's wrappers: spans, plus the observers around
        fuse and dominant_weight_multiplicities, the CheckResult stamps and
        the `after` hooks, each of which costs about as much as one span."""
        totals = self.span_totals()
        observed = ["rootdata.dominant_weight_multiplicities", *self._after_names]
        return (len(self.end) + len(self.fuse_log) + len(self.check_stamps)
                + sum(totals[name]["calls"] for name in observed if name in totals))

    def overhead_s(self, trials: int = 7, reps: int = 20_000) -> float:
        """Seconds the tracer added: wrapper calls times the cost of one span.

        The cost of one span is a wrapped no-op against the bare no-op, each
        the fastest of `trials` interleaved loops, and never below 0.
        Traced minus untraced wall time would be the direct measure, but on a
        shared host two untraced runs of one job already differ by up to a
        fifth, which swamps it.
        """
        def noop():
            return None

        wrapped = Recorder().wrap("noop", noop)
        clock = time.perf_counter
        bare = span = float("inf")
        for _ in range(trials):
            t = clock()
            for _ in range(reps):
                noop()
            bare = min(bare, clock() - t)
            t = clock()
            for _ in range(reps):
                wrapped()
            span = min(span, clock() - t)
        return self.wrapper_calls() * max(0.0, span - bare) / reps

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics of spec.per_layer() that the spans and counts give.

        verify.checks_skipped needs the check results; the caller adds it.
        """
        totals = self.span_totals()
        out: dict[str, float] = {}
        for span, kinds in spec.SPANS.items():
            row = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for kind in kinds:
                out[f"{span}.{kind}"] = row[kind]
        terms = growth = 0
        for datum, lam, mu, grew in self.fuse_log:
            small = lam if datum.weyl_dim(lam) <= datum.weyl_dim(mu) else mu
            size = self.multiset_size(datum, small)[0]
            terms += size
            # without a shared cache every key of one call is new: the Weyl
            # orbits of distinct dominant weights are disjoint
            growth += size if grew is None else grew
        out["rootdata.dominant_weight_multiplicities.distinct"] = len(self.highest_weights)
        out["rootdata.multiset_max"] = max(
            (self.multiset_size(d, lam)[1] for d, lam in self.highest_weights), default=0)
        out["fusion.labels"] = self.labels
        out["fusion.fuse.terms"] = terms
        out["fusion.reduce_cache.hit_ratio"] = 1.0 - growth / terms if terms else 0.0
        out["fusion.table_bytes"] = self.table_bytes
        out["bmwdual.diagrams"] = self.diagrams
        out["unitarity.z_rows"] = self.z_rows
        checks = self.check_times()
        for name in spec.VERIFY_CHECKS:
            out[f"verify.check.{name}.s"] = checks.get(name, 0.0)
        out["trace.overhead_s"] = self.overhead_s()
        return out
