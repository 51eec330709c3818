"""Traced-run recorder.

Wraps hodgeslope's public functions from the benchmark's side and records
one span per call: id, parent id, document id, layer name, start and end.
A function is wrapped at every module attribute bound to it, because
``cli`` and ``gallery`` import with ``from ... import``; static
``from_json`` constructors are wrapped on their class.  Spans stay in
memory until ``write``, up to SPAN_CAP of them; later spans are dropped
and counted.  Per-layer calls, busy time (outermost calls only) and self
time (duration minus direct child spans) are aggregated over every call as
the calls return, so the cap never changes a metric.  ``uninstall`` restores every original binding, and
untraced runs never construct a Tracer.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

SPAN_CAP = 200_000  # spans kept for the trace file

# layer name -> functions as (module, attribute); "Class.attr" names a static method
LAYERS = {
    "cli.main": [("cli", "main")],
    "slope_core.max_subsheaf_degree": [("slope_core", "max_subsheaf_degree")],
    "slope_core.from_json": [("slope_core", "BundleData.from_json"),
                             ("slope_core", "GeometricContext.from_json")],
    "hodge_system.system_from_json": [("hodge_system", "system_from_json")],
    "hodge_system.criteria": [("hodge_system", "criterion_semistable"),
                              ("hodge_system", "criterion_stable")],
    "hodge_system.verdict_json": [("hodge_system", "verdict_json")],
    "search_oracle.verdict_from_search": [("search_oracle", "verdict_from_search")],
    "search_oracle.max_slope_profile": [("search_oracle", "max_slope_profile")],
    "search_oracle.check_declared": [("search_oracle", "check_declared")],
    "oper": [("oper", name) for name in (
        "is_generalized_oper", "oper_semistability", "connection_verdict",
        "graded_of_filtration", "pair_from_json", "GriffithsFiltration.from_json")],
    "hn_profiles": [("hn_profiles", name) for name in ("tensor_hn", "hn_polygon", "validate_hn")],
    "gallery.build_entry": [("gallery", "build_entry")],
    "gallery.recompute_verdict": [("gallery", "recompute_verdict")],
    "inequalities.hodge_sum_inequality": [("inequalities", "hodge_sum_inequality")],
    "inequalities.power_sums": [("inequalities", "weighted_power_sum"),
                                ("inequalities", "geometric_sum")],
    "inequalities.chebyshev": [("inequalities", "chebyshev_upper"),
                               ("inequalities", "chebyshev_lower")],
}

# per-layer metrics in BENCHMARK.json order: (name, unit)
PER_LAYER = [
    ("cli.main.calls", "count"), ("cli.main.self_ms_p50", "ms"), ("cli.main.self_share", "ratio"),
    ("cli.exit1", "count"), ("cli.exit2", "count"),
    ("slope_core.max_subsheaf_degree.calls", "count"),
    ("slope_core.max_subsheaf_degree.busy_s", "s"),
    ("slope_core.from_json.busy_s", "s"),
    ("hodge_system.system_from_json.busy_s", "s"),
    ("hodge_system.criteria.calls", "count"), ("hodge_system.criteria.busy_s", "s"),
    ("hodge_system.verdict_json.busy_s", "s"),
    ("profiles.constructed", "count"),
    ("search_oracle.verdict_from_search.calls", "count"),
    ("search_oracle.verdict_from_search.busy_s", "s"),
    ("search_oracle.max_slope_profile.calls", "count"),
    ("search_oracle.max_slope_profile.busy_s", "s"),
    ("search_oracle.max_slope_profile.self_share", "ratio"),
    ("search_oracle.profiles_enumerated", "count"),
    ("search_oracle.profiles_per_verdict", "ratio"),
    ("search_oracle.refused", "count"),
    ("search_oracle.enumerated_per_gate", "ratio"),
    ("search_oracle.check_declared.busy_s", "s"),
    ("oper.busy_s", "s"), ("hn_profiles.busy_s", "s"),
    ("gallery.build_entry.busy_s", "s"), ("gallery.recompute_verdict.busy_s", "s"),
    ("inequalities.hodge_sum_inequality.calls", "count"),
    ("inequalities.hodge_sum_inequality.busy_s", "s"),
    ("inequalities.power_sums.calls", "count"), ("inequalities.power_sums.busy_s", "s"),
    ("inequalities.power_sums.self_share", "ratio"),
    ("inequalities.chebyshev.calls", "count"), ("inequalities.chebyshev.busy_s", "s"),
    ("trace.overhead", "ratio"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []  # [start, child time, span id]
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, busy, self
        self.depth = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(
            ("exit1", "exit2", "refused", "verdicts", "enumerated", "constructed", "gate"), 0)
        self.main_self: list[float] = []
        self.root_time = 0.0
        self.doc = 0
        self.next_id = 0
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import hodgeslope.profiles
        import hodgeslope.search_oracle

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hodgeslope" or name.startswith("hodgeslope.")]
        hooks = {
            "cli.main": self._after_main,
            "search_oracle.verdict_from_search": self._after_verdict,
            "search_oracle.max_slope_profile": self._after_search,
        }
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules["hodgeslope." + module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = self._wrap(layer, original.__func__, hooks.get(layer))
                    self._rebind(cls, meth, staticmethod(wrapped))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(layer, original, hooks.get(layer))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, wrapped)
        # work counters: profiles the search enumerates, and every profile built
        search, profiles = hodgeslope.search_oracle, hodgeslope.profiles
        profile_cls = profiles.SubsystemProfile
        counts = self.counts

        def enumerated(*args, **kwargs):
            counts["enumerated"] += 1
            return profile_cls(*args, **kwargs)

        post_init = profile_cls.__post_init__

        def constructed(obj):
            counts["constructed"] += 1
            post_init(obj)

        self._rebind(search, "SubsystemProfile", enumerated)
        self._rebind(profile_cls, "__post_init__", constructed)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer, fn, hook=None):
        stack, stats, depth, spans = self.stack, self.stats[layer], self.depth, self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if layer == "cli.main":
                tracer.doc += 1
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][2] if stack else None
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            level = depth[layer]
            depth[layer] = level + 1
            outcome = None
            try:
                result = fn(*args, **kwargs)
                outcome = result
                return result
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = clock()
                stack.pop()
                depth[layer] = level
                duration = end - frame[0]
                own = duration - frame[1]
                stats[0] += 1
                if level == 0:
                    stats[1] += duration
                stats[2] += own
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_time += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, tracer.doc, layer, frame[0], end))
                else:
                    tracer.dropped += 1
                if hook is not None:
                    hook(args, outcome, own)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_main(self, args, outcome, own) -> None:
        self.main_self.append(own)
        if outcome == 1:
            self.counts["exit1"] += 1
        elif outcome == 2:
            self.counts["exit2"] += 1

    def _after_verdict(self, args, outcome, own) -> None:
        if type(outcome).__name__ == "BudgetExceededError":
            self.counts["refused"] += 1
        elif not isinstance(outcome, Exception):
            self.counts["verdicts"] += 1

    def _after_search(self, args, outcome, own) -> None:
        if not isinstance(outcome, Exception):
            gate = 1
            for comp in args[0].components:
                gate *= comp.rank + 1
            self.counts["gate"] += gate

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict:
        """Per-layer metrics, counts and busy times per workload pass."""
        s, c = self.stats, self.counts
        main_busy = s["cli.main"][1] or 1.0
        out = {
            "cli.main.self_ms_p50": 1000 * statistics.median(self.main_self) if self.main_self else 0.0,
            "cli.main.self_share": s["cli.main"][2] / main_busy,
            "cli.exit1": c["exit1"] / passes,
            "cli.exit2": c["exit2"] / passes,
            "profiles.constructed": c["constructed"] / passes,
            "search_oracle.max_slope_profile.self_share":
                s["search_oracle.max_slope_profile"][2] / main_busy,
            "search_oracle.profiles_enumerated": c["enumerated"] / passes,
            "search_oracle.profiles_per_verdict": c["enumerated"] / c["verdicts"] if c["verdicts"] else 0.0,
            "search_oracle.refused": c["refused"] / passes,
            "search_oracle.enumerated_per_gate": c["enumerated"] / c["gate"] if c["gate"] else 0.0,
            "inequalities.power_sums.self_share": s["inequalities.power_sums"][2] / main_busy,
            "trace.overhead": overhead,
        }
        units = dict(PER_LAYER)
        for name in units:
            if name in out:
                continue
            layer, field = name.rsplit(".", 1)
            calls, busy, _ = s[layer]
            out[name] = calls / passes if field == "calls" else busy / passes
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}

    def self_shares(self) -> list[tuple[str, float]]:
        """Every layer's self time as a share of all traced time."""
        total = self.root_time or 1.0
        return sorted(((name, st[2] / total) for name, st in self.stats.items()),
                      key=lambda item: -item[1])

    def write(self, path: Path, summary: dict) -> None:
        """The summary line, with the counts of spans kept and dropped, then
        one line per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        summary = {**summary, "spans_kept": len(self.spans), "spans_dropped": self.dropped}
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
