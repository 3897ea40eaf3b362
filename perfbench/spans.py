"""Span tracing of hostile-mdp layers, installed from outside the program.

:class:`Tracer` replaces public functions of the ``hostilemdp`` modules with
wrappers, under the names their callers look them up by (``cli.build_mdp``
is what ``cmd_build`` calls, ``synth._SOLVERS`` is what
``solve_reachability`` indexes), and restores the originals afterwards.  Each
wrapper records one span: operation, span id, parent span id, name, start,
end, and a small value taken from the function's result (model sizes,
sweep counts).  Spans stay in memory until :meth:`Tracer.write` is called.
Functions called once per Monte Carlo run are not timed, since a span per
call would add its own cost to the simulator's; their wrapper only keeps the
value taken from each result (a run's step count) in :attr:`Tracer.counted`.

A function that a later version of the program removes or renames is simply
not wrapped; the metrics it feeds are then absent.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import itertools
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple, Optional


#: extraction work shorter than this is left inside the caller's self time
EXTRACT_SPAN_MIN_S = 1e-4


class Span(NamedTuple):
    op: int
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    value: object


def _count(obj, name: str) -> int:
    """``obj.name`` as an int, whether it is an attribute or a method."""
    value = getattr(obj, name)
    return int(value() if callable(value) else value)


def _model_size(mdp):
    return {key: _count(mdp, attr) for key, attr in
            (("states", "n_states"), ("choices", "n_choices"), ("transitions", "n_transitions"))}


def _strategy_size(strategy):
    return {"switch": len(strategy.switch), "policy": len(strategy.first) + len(strategy.second)}


def _convergence(result):
    return {"iterations": result.iterations, "residual": result.residual}


def _outcomes(estimate):
    return {key: int(getattr(estimate, key))
            for key in ("runs", "satisfied", "delivered", "lost", "step_limit")}


def _primitives(env):
    return len(env.primitives)


#: (module, attribute, span name, result -> recorded value)
WRAPPED: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("hostilemdp.cli", "main", "cli.main", None),
    ("hostilemdp.cli", "load_environment", "envmodel.load_environment", _primitives),
    ("hostilemdp.cli", "enumerate_reachable", "belief.enumerate_reachable", len),
    ("hostilemdp.cli", "build_mdp", "mdpbuild.build_mdp", _model_size),
    ("hostilemdp.cli", "validate_mdp", "mdpbuild.validate_mdp", None),
    ("hostilemdp.cli", "dump_mdp", "mdpbuild.dump_mdp", None),
    ("hostilemdp.cli", "load_mdp", "mdpbuild.load_mdp", _model_size),
    ("hostilemdp.cli", "export_prism", "mdpbuild.export_prism", None),
    ("hostilemdp.cli", "synthesize_mission", "synth.synthesize_mission", _strategy_size),
    ("hostilemdp.cli", "estimate_success", "simrun.estimate_success", _outcomes),
    ("hostilemdp.mdpbuild", "enumerate_reachable", "belief.enumerate_reachable", len),
    ("hostilemdp.synth", "qualitative_reach", "synth.qualitative_reach", None),
    ("hostilemdp.synth", "max_reach_vi", "synth.max_reach_vi", _convergence),
    ("hostilemdp.synth", "max_reach_lp", "synth.max_reach_lp", _convergence),
    ("hostilemdp.synth", "extract_policy", "synth.extract_policy", None),
)

#: (module, attribute, name, result -> counted value): kept, but not timed
COUNTED: tuple[tuple[str, str, str, Callable], ...] = (
    ("hostilemdp.simrun", "simulate_run", "simrun.simulate_run", len),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        #: (name, value) of each call to a :data:`COUNTED` function; the caller clears it
        self.counted: list[tuple[str, object]] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, extract: Optional[Callable]) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = None
            if extract is not None:
                try:
                    value = extract(result)
                except (AttributeError, TypeError, ValueError):
                    value = None
                done = time.perf_counter()
                # counting a model's transitions takes a few milliseconds; book
                # that under the benchmark so the caller's self time stays clean
                if done - end > EXTRACT_SPAN_MIN_S:
                    self.spans.append(Span(self.op, next(self._ids), parent, "bench.extract",
                                           end, done, None))
            self.spans.append(Span(self.op, sid, parent, name, start, end, value))
            return result
        return traced

    def _count(self, name: str, fn: Callable, extract: Callable) -> Callable:
        counted = self.counted

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            try:
                counted.append((name, extract(result)))
            except (AttributeError, TypeError, ValueError):
                pass
            return result
        return counting

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in :data:`WRAPPED` and :data:`COUNTED` that exists;
        restore on exit."""
        undo = []
        hooks = [(entry, self._wrap) for entry in WRAPPED]
        hooks += [(entry, self._count) for entry in COUNTED]
        try:
            for (module_name, attr, name, extract), make in hooks:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = make(name, original, extract)
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)
                # dispatch tables such as synth._SOLVERS hold the function itself
                for table in list(vars(module).values()):
                    if isinstance(table, dict):
                        for key, value in list(table.items()):
                            if value is original:
                                table[key] = wrapper
                                undo.append((table, key, original))
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def write(self, path: Path):
        """Write every span recorded so far as CSV, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["op", "span", "parent", "name", "start_s", "end_s", "value"])
            for s in self.spans:
                out.writerow([s.op, s.sid, s.parent if s.parent is not None else "", s.name,
                              f"{s.start - origin:.6f}", f"{s.end - origin:.6f}",
                              "" if s.value is None else s.value])


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


#: span name -> (metric, "self" or "total" time)
TIMED = {
    "cli.main": ("cli.self_s", "self"),
    "envmodel.load_environment": ("envmodel.load_environment_s", "total"),
    "belief.enumerate_reachable": ("belief.enumerate_reachable_s", "total"),
    "mdpbuild.build_mdp": ("mdpbuild.build_mdp_s", "self"),
    "mdpbuild.validate_mdp": ("mdpbuild.validate_mdp_s", "total"),
    "mdpbuild.dump_mdp": ("mdpbuild.dump_mdp_s", "total"),
    "mdpbuild.load_mdp": ("mdpbuild.load_mdp_s", "total"),
    "mdpbuild.export_prism": ("mdpbuild.export_prism_s", "total"),
    "synth.qualitative_reach": ("synth.qualitative_reach_s", "total"),
    "synth.max_reach_vi": ("synth.solve_vi_s", "self"),
    "synth.max_reach_lp": ("synth.solve_lp_s", "self"),
    "synth.extract_policy": ("synth.extract_policy_s", "self"),
    "simrun.estimate_success": ("simrun.estimate_success_s", "total"),
}


def op_metrics(spans: list[Span], counted: list[tuple[str, object]],
               command: str) -> dict[str, float]:
    """Per-layer metrics of one traced operation; a layer that did not fire is absent."""
    own = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    closures, built = [], []
    steps = [value for name, value in counted if name == "simrun.simulate_run"]
    for s in spans:
        if s.name in TIMED:
            metric, kind = TIMED[s.name]
            m[metric] += own[s.sid] if kind == "self" else s.end - s.start
        if s.name == "cli.main":
            m[f"cli.{command}_s"] += s.end - s.start
        elif s.name == "synth.qualitative_reach":
            m["synth.qualitative_reach_calls"] += 1
        value = s.value
        if value is None:
            continue
        if s.name == "envmodel.load_environment":
            m["envmodel.primitives"] = value
        elif s.name == "belief.enumerate_reachable":
            closures.append(value)
        elif s.name in ("mdpbuild.build_mdp", "mdpbuild.load_mdp"):
            for key in ("states", "choices", "transitions"):
                m[f"mdpbuild.{key}"] = value[key]
            if s.name == "mdpbuild.build_mdp":
                built.append(value["states"] / (s.end - s.start))
        elif s.name == "synth.synthesize_mission":
            m["synth.switch_states"] = value["switch"]
            m["synth.policy_states"] = value["policy"]
        elif s.name == "synth.max_reach_vi":
            if value["iterations"] is not None:
                m["synth.vi_sweeps"] += value["iterations"]
            if value["residual"] is not None:
                m["synth.vi_residual"] = max(m["synth.vi_residual"], value["residual"])
        elif s.name == "synth.max_reach_lp":
            if value["iterations"] is not None:
                m["synth.lp_nit"] += value["iterations"]
        elif s.name == "simrun.estimate_success":
            for key in ("satisfied", "delivered", "lost", "step_limit"):
                m[f"simrun.{key}"] = value[key]
            m["simrun.runs_per_s"] = value["runs"] / (s.end - s.start)
    if closures:
        m["belief.closure_members"] = sum(closures)
        m["belief.closure_max"] = max(closures)
    if built:
        m["mdpbuild.states_per_s"] = statistics.fmean(built)
    if steps:
        p = statistics.quantiles(steps, n=100, method="inclusive")
        m["simrun.steps_p50"] = p[49]
        m["simrun.steps_p99"] = p[98]
        m["simrun.steps_total"] = sum(steps)
    return dict(m)
