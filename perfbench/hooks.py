"""Hooks the benchmark installs around quditmeas' public functions.

Every hook replaces a name in the module namespace its caller resolves at
call time, so ``quditmeas`` itself stays unmodified.  The untraced run only
timestamps allocation decisions (``engine.select_clique``); the traced run
also records one span per wrapped call.  Spans nest through a stack: a span's
self time is its duration minus the time of its direct children, so the self
times of one estimation add up to the wall time of its root span.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  Names are ``<layer>.<function>``.
TRACED = [
    ("quditmeas.engine", "covariance_mcmc", "bayes.covariance_mcmc"),
    ("quditmeas.bayes", "tune_gamma", "bayes.tune_gamma"),
    ("quditmeas.engine", "ps_mean", "bayes.vertex_estimate"),
    ("quditmeas.engine", "self_covariance", "bayes.vertex_estimate"),
    ("quditmeas.engine", "posterior_mean_theta", "bayes.vertex_estimate"),
    ("quditmeas.engine", "build_graph", "graph.build_graph"),
    ("quditmeas.engine", "clique_cover", "graph.clique_cover"),
    ("quditmeas.engine", "variance_decrease", "graph.variance_decrease"),
    ("quditmeas.engine", "estimate_observable", "graph.estimate_observable"),
    ("quditmeas.engine", "diagonalize_clique", "clifford.diagonalize_clique"),
    # record_batch imports conjugate_ps at call time, so it resolves in clifford
    ("quditmeas.clifford", "conjugate_ps", "clifford.conjugate_ps"),
    ("quditmeas.engine", "apply_circuit", "simulator.apply_circuit"),
    ("quditmeas.simulator", "apply_circuit", "simulator.apply_circuit"),
    ("quditmeas.engine", "stabilizer_probe", "simulator.stabilizer_probe"),
    ("quditmeas.simulator", "sample_shot", "simulator.sample_shot"),
    ("quditmeas.engine", "record_batch", "engine.record_batch"),
    ("quditmeas.engine", "select_clique", "engine.select_clique"),
    ("quditmeas.engine", "estimate_xi", "engine.estimate_xi"),
    ("quditmeas.cli", "run_estimation", "engine.run_estimation"),
]
DECISION = ("quditmeas.engine", "select_clique")
LAYERS = ("bayes", "graph", "clifford", "simulator", "engine", "cli")


class HookError(RuntimeError):
    """A wrapped name is missing or a hook count breaks an invariant."""


class StopAtFirstDecision(Exception):
    """Raised by the decision hook to end a set-up-only pass."""


class Tracer:
    """Per-estimation record of decision timestamps and (when traced) spans."""

    def __init__(self, traced: bool, idle: frozenset[str] = frozenset(), stop_at_first_decision: bool = False):
        self.traced = traced
        self.idle = idle  # traced spans the workload never enters
        self.stop_at_first_decision = stop_at_first_decision  # set-up-only pass
        self._patched: list[tuple[object, str, object]] = []
        self.decisions: list[float] = []
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.mcmc: list = []  # CovarianceEstimate of every covariance_mcmc call
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0

    # -- installation -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._patch(*DECISION, self._decision_hook)
        if self.traced:
            for module, attr, name in TRACED:
                self._patch(module, attr, lambda fn, name=name: self.span(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr, None)
        if not callable(original):
            self.__exit__()
            raise HookError(f"hooked name {module}.{attr} is missing; the benchmark no longer matches the program")
        self._patched.append((mod, attr, original))
        setattr(mod, attr, make_wrapper(original))

    def _decision_hook(self, fn):
        def select_clique(*args, **kwargs):
            self.decisions.append(perf_counter())
            if self.stop_at_first_decision:
                raise StopAtFirstDecision
            return fn(*args, **kwargs)

        return select_clique

    # -- spans ------------------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                dur = end - frame[1]
                parent = -1
                if self._stack:
                    self._stack[-1][2] += dur
                    parent = self._stack[-1][0]
                self.spans.append((frame[0], parent, name, frame[1], end))
                self.self_s[name] += dur - frame[2]
                self.total_s[name] += dur
                self.calls[name] += 1
            if name == "bayes.covariance_mcmc":
                self.mcmc.append(result[0] if isinstance(result, tuple) else result)
            return result

        return wrapper

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_s.items():
            out[name.split(".")[0]] += t
        return out

    def check(self, n_history: int, n_probes: int) -> None:
        """Fail loudly when a count breaks an invariant of the run loop."""
        if len(self.decisions) != n_history:
            raise HookError(
                f"select_clique hook saw {len(self.decisions)} decisions but the report has "
                f"{n_history} batches; the engine no longer resolves engine.select_clique"
            )
        if not self.traced:
            return
        if self.calls["simulator.stabilizer_probe"] != n_probes:
            raise HookError(
                f"stabilizer_probe hook saw {self.calls['simulator.stabilizer_probe']} probes but the "
                f"report has {n_probes}"
            )
        for _, _, name in TRACED:
            if name not in self.idle and self.calls[name] == 0:
                raise HookError(f"traced span {name} was never entered; its hook is no longer on the call path")
