"""Outside-in layer tracing: wrap the public functions of the ``ocsg``
modules without touching their source.

Every binding of a public function is replaced, in every loaded ``ocsg``
module namespace, not only in the defining module: ``mdp`` imports
``solve_linear_system`` by name and ``ssg``, ``termination`` and ``chain``
import model helpers by name, so wrapping the defining module alone would
miss those calls.  A span stack gives each call its self time (its own
time minus that of wrapped callees); spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("model", "linsolve", "chain", "mdp", "ssg", "termination", "reduce", "cli")

# (layer, function) -> per-layer counter it feeds
CALL_COUNTERS = {
    ("model", "parse_model"): "model.parse_calls",
    ("model", "validate"): "model.validate_calls",
    ("model", "fix_strategies"): "model.fix_strategies_calls",
    ("linsolve", "solve_linear_system"): "linsolve.calls",
    ("chain", "reach_probabilities"): "chain.reach_calls",
    ("chain", "bscc_decompose"): "chain.bscc_calls",
    ("chain", "analyze_bscc"): "chain.analyze_calls",
    ("chain", "strongly_connected_components"): "chain.scc_calls",
    ("mdp", "quantitative_limit"): "mdp.quantitative_calls",
    ("mdp", "solve_reachability"): "mdp.reach_pi_calls",
    ("mdp", "expected_mean_payoff"): "mdp.mean_payoff_calls",
    ("mdp", "mec_decompose"): "mdp.mec_calls",
    ("mdp", "almost_sure_reach"): "mdp.asr_calls",
    ("mdp", "energy_min_credit"): "mdp.energy_calls",
    ("ssg", "solve_limit_ssg"): "ssg.solve_calls",
    ("ssg", "best_response"): "ssg.best_response_calls",
    ("termination", "decide_term_one"): "termination.decide_calls",
    ("termination", "decide_term_zero"): "termination.decide_calls",
    ("termination", "synthesize_term_strategies"): "termination.synth_calls",
}

# (layer, function) -> counter that sums the call's inclusive time
INCLUSIVE_TIMERS = {
    ("model", "parse_model"): "model.parse_s",
    ("mdp", "almost_sure_reach"): "mdp.asr_s",
    ("mdp", "energy_min_credit"): "mdp.energy_s",
    ("termination", "build_level_game"): "termination.build_s",
}


class Tracer:
    def __init__(self):
        self.counters: dict[str, float] = defaultdict(float)
        self.functions: list[tuple[str, str]] = []
        # One span per call, column-wise.  Span ids count calls in entry
        # order; ``request`` is the operation the harness was running.
        self.span_ints = {name: array("i") for name in ("id", "parent", "request", "function")}
        self.span_times = {name: array("d") for name in ("start_s", "duration_s", "self_s")}
        self.request = -1
        self._next_id = 0
        self.dims: list[int] = []
        self._stack: list[list] = []  # [child time, layer, span id]
        self._patched: list[tuple] = []
        self.origin = perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ocsg.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ocsg" and not mod_name.startswith("ocsg."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        index = len(self.functions)
        self.functions.append((layer, name))
        counter = CALL_COUNTERS.get((layer, name))
        timer = INCLUSIVE_TIMERS.get((layer, name))
        observe = _OBSERVERS.get((layer, name))
        stack, counters = self._stack, self.counters
        ids, parents, requests, fns = (self.span_ints[k] for k in ("id", "parent", "request", "function"))
        starts, durs, owns = self.span_times.values()
        origin = self.origin

        def traced(*args, **kwargs):
            parent_layer, parent_id = (stack[-1][1], stack[-1][2]) if stack else (None, -1)
            if layer == "reduce" and parent_layer != "reduce":
                counters["reduce.calls"] += 1
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, layer, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if parent_layer != layer:
                    counters[f"{layer}.exceptions"] += 1
                    if layer == "mdp" and type(exc).__name__ == "EnumerationTooLarge":
                        counters["mdp.refusals"] += 1
                raise
            else:
                if observe is not None:
                    observe(self, args, result)
                return result
            finally:
                dur = perf_counter() - t0
                stack.pop()
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    counters["trace.top_level_s"] += dur
                counters[f"{layer}.self_s"] += own
                if counter:
                    counters[counter] += 1
                if timer:
                    counters[timer] += dur
                ids.append(span_id)
                parents.append(parent_id)
                requests.append(self.request)
                fns.append(index)
                starts.append(t0 - origin)
                durs.append(dur)
                owns.append(own)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def top_level_time(self) -> float:
        """Summed duration of spans with no traced caller."""
        return self.counters.get("trace.top_level_s", 0.0)

    def span_table(self) -> dict:
        """Spans as columns; ``function`` indexes ``functions``, ``parent``
        is the caller's span id (-1 at the top)."""
        table = {name: col.tolist() for name, col in self.span_ints.items()}
        table.update({name: [round(t, 6) for t in col] for name, col in self.span_times.items()})
        table["functions"] = [f"{layer}.{name}" for layer, name in self.functions]
        return table

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        c = self.counters
        out = {f"{layer}.self_s": c.get(f"{layer}.self_s", 0.0) for layer in LAYERS}
        for key in set(CALL_COUNTERS.values()) | set(INCLUSIVE_TIMERS.values()):
            out[key] = c.get(key, 0.0)
        for layer in LAYERS:
            out[f"{layer}.exceptions"] = c.get(f"{layer}.exceptions", 0.0)
        out["mdp.refusals"] = c.get("mdp.refusals", 0.0)
        out["reduce.calls"] = c.get("reduce.calls", 0.0)
        dims = self.dims
        out["linsolve.dim_max"] = float(max(dims, default=0))
        out["linsolve.dim_mean"] = sum(dims) / len(dims) if dims else 0.0
        out["linsolve.n3_sum"] = float(sum(d ** 3 for d in dims))
        out["linsolve.pivot_bits_max"] = c.get("linsolve.pivot_bits_max", 0.0)
        solves = c.get("ssg.solve_calls", 0.0)
        out["ssg.best_responses_per_solve"] = c.get("ssg.best_response_calls", 0.0) / solves if solves else 0.0
        out["ssg.improvement_frac"] = c.get("ssg.improvement_solves", 0.0) / solves if solves else 0.0
        out["termination.level_states"] = c.get("termination.level_states", 0.0)
        return out

    def function_table(self) -> list[dict]:
        """Calls, total and self time per wrapped function, from the spans."""
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for index, dur, own in zip(self.span_ints["function"], self.span_times["duration_s"], self.span_times["self_s"]):
            row = totals[index]
            row[0] += 1
            row[1] += dur
            row[2] += own
        return [
            {"function": "{}.{}".format(*self.functions[index]), "calls": calls, "total_s": total, "self_s": own}
            for index, (calls, total, own) in sorted(totals.items())
        ]


def _observe_linsolve(tracer, args, result):
    tracer.dims.append(len(args[0]))
    bits = float(result[1].bit_length())
    if bits > tracer.counters.get("linsolve.pivot_bits_max", 0.0):
        tracer.counters["linsolve.pivot_bits_max"] = bits


def _observe_solve(tracer, args, result):
    if result.method == "improvement":
        tracer.counters["ssg.improvement_solves"] += 1


def _observe_level(tracer, args, result):
    tracer.counters["termination.level_states"] += len(result.game.states)


_OBSERVERS = {
    ("linsolve", "solve_linear_system"): _observe_linsolve,
    ("ssg", "solve_limit_ssg"): _observe_solve,
    ("termination", "build_level_game"): _observe_level,
}
