"""Spans around the calls into each dsmpepc layer, recorded from outside.

The traced run swaps module attributes for timing wrappers, at the name the
caller module looks up (`plan` calls `dsmpepc.optimizer.evaluate_batch`, so
that is the attribute replaced). No code inside the package changes. Spans
are kept in flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from dsmpepc import cost, optimizer, scenarios, simulator
from dsmpepc.world import OccupancyGrid

# Span names, one per wrapped entry point. Per-plan metrics count only the
# spans that carry a plan's request id.
PLAN = "optimizer.plan"
REFINE = "optimizer.refine"
CANDIDATE = "optimizer.evaluate_candidate"
BATCH = "batch.evaluate_batch"
ROLLOUT = "kinematics.rollout"
TRAJ_COST = "cost.trajectory_cost"
DIST_BATCH = "world.distance_batch"
TTC_SEGMENT = "world.ttc.segment"
TTC_TERMINAL = "world.ttc.terminal"
GRID_BUILD = "world.grid.build"
NAV_BUILD = "world.nav_field.build"
LOAD = "scenarios.load"
RUN = "simulator.run"


class Tracer:
    """In-memory span store: name, start, end, parent span and request id.

    The request id is the index of the enclosing plan() call, or -1 for spans
    outside any plan (set-up, simulator bookkeeping, output checks).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counts: Counter = Counter()
        self.plans = 0
        self._stack: list[int] = []
        self._request = -1
        self._last_candidates = 0
        self._patches: list[tuple[object, str, object, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None):
        """`fn` recording one span per call; `on_call(args)` counts work."""
        nid = self.name_id(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self._request)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()

        return traced

    def wrap_plan(self, fn):
        """plan() span that opens a new request and notes the argmin's origin."""
        inner = self.wrap(PLAN, fn)

        def traced_plan(*args, **kwargs):
            self._request = self.plans
            self.plans += 1
            self.counts["world.obstacles"] += len(args[2].obstacles)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._request = -1
            best = argmin_index(result)
            if best >= self._last_candidates:
                self.counts["refine.wins"] += 1
            return result

        return traced_plan

    def _count_candidates(self, args) -> None:
        self._last_candidates = len(args[0])
        if self._request >= 0:
            self.counts["batch.candidates"] += len(args[0])

    def _count_segments(self, args) -> None:
        if self._request >= 0:
            self.counts["cost.segments"] += len(args[0].states) - 1

    def install(self) -> None:
        """Wrap the layer entry points where the package's callers look them up.

        The wrappers are made once; installing again after uninstall() puts
        the same wrappers back.
        """
        if not self._patches:
            self._patches = [
                (module, attr, getattr(module, attr), wrapper)
                for module, attr, wrapper in self._targets()
            ]
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _targets(self):
        tracer = self

        class TracedGrid(OccupancyGrid):
            from_ascii = classmethod(
                tracer.wrap(GRID_BUILD, OccupancyGrid.from_ascii.__func__)
            )

        return [
            (simulator, "plan", self.wrap_plan(simulator.plan)),
            (simulator, "NavigationField", self.wrap(NAV_BUILD, simulator.NavigationField)),
            (scenarios, "OccupancyGrid", TracedGrid),
            (optimizer, "evaluate_batch",
             self.wrap(BATCH, optimizer.evaluate_batch, self._count_candidates)),
            (optimizer, "minimize", self.wrap(REFINE, optimizer.minimize)),
            (optimizer, "evaluate_candidate", self.wrap(CANDIDATE, optimizer.evaluate_candidate)),
            (optimizer, "rollout", self.wrap(ROLLOUT, optimizer.rollout)),
            (optimizer, "trajectory_cost",
             self.wrap(TRAJ_COST, optimizer.trajectory_cost, self._count_segments)),
            (cost, "distance_to_nearest_batch",
             self.wrap(DIST_BATCH, cost.distance_to_nearest_batch)),
            (cost, "_ttc_assuming_clear", self.wrap(TTC_SEGMENT, cost._ttc_assuming_clear)),
            (cost, "terminal_ttc", self.wrap(TTC_TERMINAL, cost.terminal_ttc)),
        ]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def argmin_index(result) -> int:
    """Position of the returned argmin among the plan's evaluations."""
    for i, (z, c) in enumerate(result.evaluated):
        if z is result.best_param and c == result.best_cost:
            return i
    return -1


class SpanStats:
    """Durations and self times of a slice of the span store."""

    def __init__(self, tracer: Tracer, lo: int = 0, hi: int | None = None) -> None:
        full = tracer.arrays()
        hi = len(tracer) if hi is None else hi
        dur = full["end"] - full["start"]
        # self time = duration minus the part covered by direct children;
        # spans nest on one thread, so children never overlap each other
        has_parent = full["parent"] >= 0
        covered = np.bincount(full["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self.dur = dur[lo:hi]
        self.self_time = (dur - covered)[lo:hi]
        self.name = full["name"][lo:hi]
        self.in_plan = full["request"][lo:hi] >= 0
        self._tracer = tracer

    def mask(self, name: str, in_plan: bool | None = None) -> np.ndarray:
        m = self.name == self._tracer.name_id(name)
        if in_plan is not None:
            m &= self.in_plan == in_plan
        return m

    def calls(self, name: str, in_plan: bool | None = None) -> int:
        return int(self.mask(name, in_plan).sum())

    def total(self, name: str, in_plan: bool | None = None, self_only: bool = False) -> float:
        values = self.self_time if self_only else self.dur
        return float(values[self.mask(name, in_plan)].sum())

    def mean(self, name: str, in_plan: bool | None = None, self_only: bool = False) -> float:
        n = self.calls(name, in_plan)
        return self.total(name, in_plan, self_only) / n if n else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(tracer: Tracer, counts: Counter, lo: int, hi: int) -> dict[str, float]:
    """Work counts per plan over spans [lo, hi); they repeat exactly run to run."""
    s = SpanStats(tracer, lo, hi)
    plans = s.calls(PLAN, True)
    ttc_segment = s.calls(TTC_SEGMENT, True)
    return {
        "batch.candidates": _ratio(counts["batch.candidates"], plans),
        "optimizer.refine.evals": _ratio(s.calls(CANDIDATE, True), plans),
        "optimizer.refine.win_frac": _ratio(counts["refine.wins"], plans),
        "kinematics.rollout.calls": _ratio(s.calls(ROLLOUT, True), plans),
        "world.ttc.calls": _ratio(ttc_segment + s.calls(TTC_TERMINAL, True), plans),
        "cost.ttc_gate_frac": _ratio(ttc_segment, counts["cost.segments"]),
        "world.obstacles": _ratio(counts["world.obstacles"], plans),
        "plans": plans,
    }


def timing_metrics(tracer: Tracer, lo: int, hi: int, cycles: int) -> dict[str, float]:
    """Per-layer times over spans [lo, hi); `cycles` = planning cycles of run()."""
    s = SpanStats(tracer, lo, hi)
    plans = s.calls(PLAN, True)
    ttc_calls = s.calls(TTC_SEGMENT, True) + s.calls(TTC_TERMINAL, True)
    ttc_time = s.total(TTC_SEGMENT, True) + s.total(TTC_TERMINAL, True)
    return {
        "optimizer.refine.ms": 1e3 * _ratio(s.total(REFINE, True), plans),
        "optimizer.plan.self_ms": 1e3 * _ratio(s.total(PLAN, True, self_only=True), plans),
        "batch.evaluate_batch.ms": 1e3 * _ratio(s.total(BATCH, True), plans),
        "kinematics.rollout.us": 1e6 * s.mean(ROLLOUT, True),
        "cost.trajectory_cost.self_us": 1e6 * s.mean(TRAJ_COST, True, self_only=True),
        "world.ttc.us": 1e6 * _ratio(ttc_time, ttc_calls),
        "world.distance_batch.us": 1e6 * s.mean(DIST_BATCH, True),
        "simulator.run.self_ms_per_cycle":
            1e3 * _ratio(s.total(RUN, self_only=True), cycles),
    }


def build_metrics(tracer: Tracer) -> dict[str, float]:
    """Mean grid, navigation-field and scenario build times, wherever they ran."""
    s = SpanStats(tracer)
    return {
        "world.grid.build_ms": 1e3 * s.mean(GRID_BUILD),
        "world.nav_field.build_ms": 1e3 * s.mean(NAV_BUILD),
        "scenarios.load_ms": 1e3 * s.mean(LOAD),
    }
