"""Per-layer tracing from outside the library.

`Tracer.install` replaces the public functions of `core`, `automata`,
`conjugacy` and `recognizability` with wrappers in every module namespace
that binds them, and the methods of `Nfa`, `Dfa` and `ClassAutomaton` on the
classes themselves; `uninstall` puts the originals back.  A wrapper records
a span (name, start, end, parent span, query id) in flat in-memory arrays;
the hot inner calls `mul`, `overlap` and `ClassAutomaton.step` are counted
but not timed, and `apply_redex` is left alone, so tracing stays cheap.  Sizes (states, symbols) are read off
arguments and results where a metric needs them.

The library is single-threaded pure Python with no queues, so no layer
waits on another: there are no wait metrics, only busy time and counts.
"""

from __future__ import annotations

import math
from array import array
from importlib import import_module
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "core", "automata", "conjugacy", "recognizability")

# function name in the library -> metric name, for methods whose names clash
_METHOD_METRICS = {
    "Nfa.__init__": "nfa_init",
    "Dfa.__init__": "dfa_init",
    "Dfa.minimize": "minimize",
    "Nfa.minimize": "nfa_minimize",
    "Dfa.complement": "dfa_complement",
    "Nfa.accepts": "nfa_accepts",
    "Dfa.accepts": "dfa_accepts",
    "Dfa.step": "dfa_step",
    "ClassAutomaton.__init__": "class_automaton_init",
    "ClassAutomaton.step": "class_step",
    "Nfa.to_dot": "nfa_to_dot",
    "Dfa.to_dot": "dfa_to_dot",
}
_COUNTED = {"core.mul", "core.overlap", "automata.class_step"}
# runs once per rewrite step; even counting it slows rewriting by a tenth
_SKIPPED = {"core.apply_redex"}
_CLASSES = {"automata": ("Nfa", "Dfa", "ClassAutomaton")}


def _states(obj) -> int:
    nfa = getattr(obj, "nfa", obj)  # ConjugatorAutomaton wraps its Nfa
    return len(nfa.states)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # one entry per span; parallel arrays keep a span at ~30 bytes
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.query_id = 0
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.sums: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[tuple]] = defaultdict(list)
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def timed(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(args, result, seconds)` records sizes."""
        name_id = self._name_id(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_query.append(self.query_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_start[index] = start
                self.span_end[index] = end
            if after is not None:
                after(args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------------

    def _after_hooks(self):
        sums, samples = self.sums, self.samples

        def word_symbols(metric):
            def after(args, result, seconds):
                sums[metric + ".symbols"] += len(args[0])
                samples[metric].append((0, math.log(max(len(args[0]), 1)), seconds))
            return after

        def states_out(metric):
            def after(args, result, seconds):
                sums[metric + ".states_out"] += _states(result)
            return after

        def init(metric, transitions):
            def after(args, result, seconds):
                obj = args[0]
                sums[metric + ".states"] += len(obj.states)
                if transitions:
                    sums[metric + ".transitions"] += sum(map(len, obj.transitions.values()))
            return after

        def minimize(args, result, seconds):
            sums["automata.minimize.states_in"] += len(args[0].states)
            sums["automata.minimize.states_out"] += len(result.states)

        def class_dfa(args, result, seconds):
            sums["automata.class_dfa.states"] += len(result.states)
            samples["automata.class_dfa"].append(
                (len(args[1]), math.log(max(len(args[0]), 1)), seconds))

        def conjugator_nfa(args, result, seconds):
            sums["conjugacy.conjugator_nfa.states_out"] += _states(result)
            samples["conjugacy.conjugator_nfa"].append(
                (len(args[2]), len(args[0].write_projection), seconds))

        def omega_nfa(args, result, seconds):
            sums["recognizability.omega_nfa.states_out"] += _states(result)
            samples["recognizability.omega_nfa"].append((len(args[1]), args[0], seconds))

        return {
            "core.rewrite_normalize": word_symbols("core.rewrite_normalize"),
            "core.eval_word": word_symbols("core.eval_word"),
            "automata.nfa_init": init("automata.nfa_init", True),
            "automata.dfa_init": init("automata.dfa_init", False),
            "automata.intersect": states_out("automata.intersect"),
            "automata.determinize": states_out("automata.determinize"),
            "automata.minimize": minimize,
            "automata.class_dfa": class_dfa,
            "conjugacy.overconj_nfa": states_out("conjugacy.overconj_nfa"),
            "conjugacy.g_k_nfa": states_out("conjugacy.g_k_nfa"),
            "conjugacy.conjugator_nfa": conjugator_nfa,
            "recognizability.omega_nfa": omega_nfa,
            "recognizability.compile_simple": states_out("recognizability.compile_simple"),
        }

    def install(self, package) -> None:
        """Wrap the library's public functions and methods; `package` is the
        imported `queue_monoid` package."""
        modules = {name: import_module(f"{package.__name__}.{name}") for name in LAYERS}
        hooks = self._after_hooks()
        replacement = {}

        def wrap(metric, fn):
            if metric in _COUNTED:
                return self.counted(metric, fn)
            return self.timed(metric, fn, hooks.get(metric))

        for layer in LAYERS[1:]:
            module = modules[layer]
            for attr, value in vars(module).items():
                if (callable(value) and not isinstance(value, type) and not attr.startswith("_")
                        and getattr(value, "__module__", None) == module.__name__
                        and f"{layer}.{attr}" not in _SKIPPED):
                    replacement[value] = wrap(f"{layer}.{attr}", value)
            for cls_name in _CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    metric = _METHOD_METRICS.get(f"{cls_name}.{attr}", attr)
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(wrap(f"{layer}.{metric}", raw.__func__))
                    elif callable(raw):
                        new = wrap(f"{layer}.{metric}", raw)
                    else:
                        continue
                    self._saved.append((cls, attr, raw))
                    setattr(cls, attr, new)
        replacement[modules["cli"].main] = self.timed("cli.main", modules["cli"].main)

        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                try:
                    new = replacement.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if new is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results ------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tquery\n")
            for i in range(len(self.span_name)):
                handle.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                             f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t"
                             f"{self.span_query[i]}\n")

    def hot_spots(self, kind_of_query: dict[int, str], top: int = 4) -> dict:
        """Per query kind: time in `cli.main` and the functions that took most of it."""
        root = self.name_ids.get("cli.main")
        inclusive: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(len(self.span_name)):
            kind = kind_of_query.get(self.span_query[i])
            if kind is not None:
                name = "cli.main" if self.span_name[i] == root else self.names[self.span_name[i]]
                inclusive[kind][name] += (self.span_end[i] - self.span_start[i]) * 1e3
        out = {}
        for kind, times in inclusive.items():
            total = times.pop("cli.main", 0.0)
            ranked = sorted(times.items(), key=lambda kv: -kv[1])[:top]
            out[kind] = {"ms": round(total, 3),
                         "top": [[name, round(ms, 3), round(ms / total, 3) if total else 0.0]
                                 for name, ms in ranked]}
        return out

    def metrics(self) -> dict[str, float]:
        """calls/ms per span name, self time per layer, sums and growth fits."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            duration = self.span_end[i] - self.span_start[i]
            out[name + ".calls"] += 1
            out[name + ".ms"] += duration * 1e3
            out[name.split(".", 1)[0] + ".self_ms"] += (duration - child[i]) * 1e3
        for name, cell in self.counts.items():
            out[name + ".calls"] += cell[0]
        out.update(self.sums)
        states_in = out.get("automata.minimize.states_in", 0.0)
        out["automata.minimize.keep_ratio"] = (
            out.get("automata.minimize.states_out", 0.0) / states_in if states_in else 0.0)
        out["core.rewrite_normalize.growth_exp"] = loglog_slope(self.samples["core.rewrite_normalize"])
        out["core.eval_word.growth_exp"] = loglog_slope(self.samples["core.eval_word"])
        out["automata.class_dfa.growth_exp"] = loglog_slope(self.samples["automata.class_dfa"])
        out["conjugacy.conjugator_nfa.growth_per_letter"] = step_factor(
            self.samples["conjugacy.conjugator_nfa"])
        out["recognizability.omega_nfa.growth_per_k"] = step_factor(
            self.samples["recognizability.omega_nfa"])
        return out


def _grouped_slope(samples) -> float | None:
    """Least-squares slope of log(seconds) on x, with one intercept per group.

    `samples` holds (group, x, seconds); the group is the alphabet size where
    that shifts the cost curve, so alphabets do not bias the slope.
    """
    groups = defaultdict(list)
    for group, x, seconds in samples:
        if seconds > 0:
            groups[group].append((x, math.log(seconds)))
    sxx = sxy = 0.0
    for points in groups.values():
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx if sxx > 0 else None


def loglog_slope(samples) -> float:
    """Exponent e in time ~ size^e (samples carry log size); 0 without data."""
    slope = _grouped_slope(samples)
    return slope if slope is not None else 0.0


def step_factor(samples) -> float:
    """Factor f in time ~ f^x per unit step of x; 0 without data."""
    slope = _grouped_slope(samples)
    return math.exp(slope) if slope is not None else 0.0
