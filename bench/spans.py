"""Per-layer tracing from outside the package.

Each public function of a layer module is wrapped, and the wrapper is
put wherever an `aggsem` module looks the function up (for example
`aggsem.fixpoints.tp` as well as `aggsem.eval2.tp`).  The constructors
of `Interpretation` and `InterpretationPair` are wrapped too, since
building them is a large part of the work.  A wrapper records a span
(name, start, end, parent, task) and counts at the same boundary.  A
layer's self time is the time inside its spans minus the time inside
spans of other layers; it is summed online, so the spans kept in memory
can be capped without losing the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# module -> layer; `truth` belongs to the ternary layer
LAYERS = {
    "syntax": "syntax", "interp": "interp", "eval2": "eval2", "bounds": "bounds",
    "ternary": "ternary", "truth": "ternary", "fixpoints": "fixpoints",
    "oracle": "oracle", "cli": "cli",
}
LAYER_NAMES = ("bench",) + tuple(dict.fromkeys(LAYERS.values()))
# diagnostics and the process exit, not work
SKIP = {"interp.interval_expansion_count", "interp.reset_interval_expansions", "cli.main"}
SPAN_CAP = 100_000

COUNTS = {
    "syntax.parse_calls": ("syntax.parse_program",),
    "eval2.tp_calls": ("eval2.tp",),
    "eval2.sat2_calls": ("eval2.sat2",),
    "eval2.eval_aggregate_calls": ("eval2.eval_aggregate",),
    "bounds.exact_bounds_calls": ("bounds.exact_bounds",),
    "ternary.sat3_calls": ("ternary.sat3",),
    "ternary.truth3_calls": ("ternary.truth3",),
    "fixpoints.candidates_tested": ("fixpoints.stable_check",),
    "fixpoints.operator_steps": ("fixpoints.lower_step", "fixpoints.upper_step"),
    "cli.commands": ("cli.run",),
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        value = getattr(module, name)
        if callable(value) and getattr(value, "__module__", None) == module.__name__ \
                and not isinstance(value, type):
            yield name, value


class Tracer:
    def __init__(self):
        self.self_time = [0.0] * len(LAYER_NAMES)
        self.calls: dict[str, int] = {}
        self.extra = {"interp.interval_members": 0, "fixpoints.models_found": 0, "oracle.checks": 0}
        self.layer = 0
        self.seg = perf_counter()
        self.parent = -1
        self.task = -1
        self.names: list[str] = []
        self.spans: list[list] = []
        self.dropped = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key: str, layer: int, post=None):
        calls, self_time, spans, st = self.calls, self.self_time, self.spans, self
        calls[key] = 0
        name_id = len(self.names)
        self.names.append(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = perf_counter()
            outer, parent = st.layer, st.parent
            self_time[outer] += now - st.seg
            st.layer, st.seg = layer, now
            calls[key] += 1
            if len(spans) < SPAN_CAP:
                idx = len(spans)
                spans.append([name_id, st.task, parent, now, 0.0])
                st.parent = idx
            else:
                idx = -1
                st.dropped += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                now = perf_counter()
                self_time[layer] += now - st.seg
                st.layer, st.seg, st.parent = outer, now, parent
                if idx >= 0:
                    spans[idx][4] = now
            return post(result) if post else result

        return wrapper

    def _members(self, iterator, layer: int):
        """Re-yield an interval's members, counting them and timing each step as interp."""
        st, self_time, extra = self, self.self_time, self.extra
        while True:
            now = perf_counter()
            outer = st.layer
            self_time[outer] += now - st.seg
            st.layer, st.seg = layer, now
            try:
                member = next(iterator)
            except StopIteration:
                return
            finally:
                now = perf_counter()
                self_time[layer] += now - st.seg
                st.layer, st.seg = outer, now
            extra["interp.interval_members"] += 1
            yield member

    def _post(self, key: str, layer: int):
        extra = self.extra
        if key == "interp.enumerate_interval":
            return lambda it: self._members(it, layer)
        if key == "fixpoints.stable_check":
            def found(ok):
                extra["fixpoints.models_found"] += bool(ok)
                return ok
            return found
        if key == "oracle.verify_program":
            def checked(report):
                extra["oracle.checks"] += report.checked
                return report
            return checked
        return None

    def install(self) -> "Tracer":
        modules = {m: sys.modules[f"aggsem.{m}"] for m in LAYERS}
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            layer = LAYER_NAMES.index(LAYERS[short])
            for name, fn in _public_functions(module):
                key = f"{short}.{name}"
                if key not in SKIP:
                    wrappers[id(fn)] = self._wrap(fn, key, layer, self._post(key, layer))
        for module in [m for n, m in sys.modules.items() if n == "aggsem" or n.startswith("aggsem.")]:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
        interp_layer = LAYER_NAMES.index("interp")
        for cls in (modules["interp"].Interpretation, modules["interp"].InterpretationPair):
            self._patched.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(cls.__init__, f"interp.{cls.__name__}", interp_layer)
        self._expansions = modules["interp"].interval_expansion_count
        self.expansions_at_install = self._expansions()
        return self

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    # -- tasks and figures ---------------------------------------------------

    def begin_task(self, task: int) -> None:
        self.task = task

    def end_task(self) -> None:
        self.task = -1

    def snapshot(self) -> dict:
        """Cumulative counts and self seconds per layer so far."""
        self.self_time[self.layer] += perf_counter() - self.seg
        self.seg = perf_counter()
        counts = {metric: sum(self.calls.get(k, 0) for k in keys) for metric, keys in COUNTS.items()}
        counts.update(self.extra)
        counts["interp.interval_expansions"] = self._expansions() - self.expansions_at_install
        seconds = dict(zip(LAYER_NAMES, self.self_time))
        return {"counts": counts, "seconds": seconds}

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "names": self.names, "dropped": self.dropped,
                       "fields": ["name", "task", "parent", "start", "end"], "spans": self.spans},
                      handle, separators=(",", ":"))
