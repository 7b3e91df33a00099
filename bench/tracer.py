"""Outside-in span tracer for the ftcbf modules.

The benchmark never edits program source to trace it. Instead `Tracer.installed()`
replaces public functions and methods of the `ftcbf` modules with wrappers
that record one span per call (name, parent span, start, end). A function is
replaced in every loaded `ftcbf.*` namespace that holds it, so calls made
through `from .x import f` bindings are traced too. A target that a later
version of the program renamed or removed is reported as absent instead of
failing the run.

Spans live in flat in-memory arrays while the run is going and are written out
once, when the run ends. A span's self time is its duration minus the
durations of its direct children; calls are strictly nested because every
workload is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Span name -> the public targets it covers ("module:Qualified.name"). Several
# targets may share one span name when together they form one layer step.
TARGETS = {
    "simulator.step": ["ftcbf.simulator:step_true_state", "ftcbf.simulator:measure"],
    "estimators.bank_step": ["ftcbf.estimators:EstimatorBank.step"],
    "estimators.ekf_step": ["ftcbf.estimators:ekf_step"],
    "estimators.make_bank": ["ftcbf.estimators:make_bank"],
    "estimators.steady_state_gain": ["ftcbf.estimators:steady_state_gain"],
    "estimators.calibrate": ["ftcbf.estimators:calibrate_gammas"],
    "barriers.hoscbf_row": ["ftcbf.barriers:hoscbf_row"],
    "barriers.scbf_row": ["ftcbf.barriers:scbf_row"],
    "barriers.af_rows": ["ftcbf.barriers:af_rows"],
    "barriers.build_chain": ["ftcbf.barriers:build_chain"],
    "clf.clf_row": ["ftcbf.clf:clf_row"],
    "clf.build": ["ftcbf.clf:build_quadratic_clf"],
    "policy.active_sets": ["ftcbf.policy:active_sets"],
    "policy.assemble": ["ftcbf.policy:assemble_constraints"],
    "policy.decide": ["ftcbf.policy:resolve_conflicts", "ftcbf.policy:actuator_control"],
    "optimizer.qp_setup": ["ftcbf.optimizer:QpProblem.__init__"],
    "optimizer.solve_qp": ["ftcbf.optimizer:solve_qp"],
    "optimizer.farkas": ["ftcbf.optimizer:farkas_certificate"],
    "verifier.pointwise": ["ftcbf.verifier:verify_ft_set_pointwise",
                           "ftcbf.verifier:verify_scbf_pointwise"],
    "verifier.falsify": ["ftcbf.verifier:falsify_sensor_region",
                         "ftcbf.verifier:falsify_actuator_region",
                         "ftcbf.verifier:falsify_region"],
    "scenarios.build": ["ftcbf.scenarios:load_scenario"],
    "scenarios.compensator": ["ftcbf.scenarios:wmr_compensator"],
    "scenarios.save_config": ["ftcbf.scenarios:save_config"],
    "runner.loop": ["ftcbf.runner:run_scenario"],
    "runner.csv": ["ftcbf.runner:write_csv"],
    "runner.metrics_json": ["ftcbf.runner:sweep_metrics", "ftcbf.runner:write_metrics"],
}

ROOT_PASS = "bench.pass"
ROOT_SETUP = "bench.setup"


def _safety_row(source: str) -> bool:
    return not source.startswith(("clf", "ubox"))


def _hook_decide(tr: "Tracer", args, kwargs, out) -> None:
    c = tr.counters
    c["decide.steps"] += 1
    c[f"decide.resolved_at.{int(getattr(out, 'step', 0))}"] += 1
    if getattr(out, "infeasible_event", False):
        c["decide.infeasible"] += 1
    elif not any(_safety_row(getattr(r, "source", "")) for r in getattr(out, "rows", ())):
        c["decide.unfiltered"] += 1


def _hook_solve(tr: "Tracer", args, kwargs, out) -> None:
    c = tr.counters
    prob = args[0] if args else kwargs.get("prob")
    c["qp.solves"] += 1
    c["qp.rows"] += len(getattr(prob, "rows", ()))
    c["qp.feasible"] += bool(getattr(out, "is_feasible", False))
    if tr.open_count("policy.decide"):
        c["decide.solves"] += 1


def _hook_pointwise(tr: "Tracer", args, kwargs, out) -> None:
    tr.counters["pointwise.calls"] += 1
    tr.counters["pointwise.vacuous"] += bool(isinstance(out, dict) and out.get("vacuous"))


def _hook_csv(tr: "Tracer", args, kwargs, out) -> None:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    tr.counters["csv.bytes"] += Path(path).stat().st_size


HOOKS = {
    "policy.decide": _hook_decide,
    "optimizer.solve_qp": _hook_solve,
    "verifier.pointwise": _hook_pointwise,
    "runner.csv": _hook_csv,
}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.names: list = []
        self._name_idx: dict = {}
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list = []
        self._open_names: dict = defaultdict(int)
        self.counters: dict = defaultdict(float)
        self.absent: list = []

    # -- recording -------------------------------------------------------
    def _intern(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._intern(name))
        self.t1.append(float("nan"))
        self._stack.append(sid)
        self._open_names[name] += 1
        self.t0.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter()
        self._stack.pop()
        self._open_names[self.names[self.name[sid]]] -= 1

    def open_count(self, name: str) -> int:
        return self._open_names[name]

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, out)
                return out
            finally:
                tracer.close(sid)

        return traced

    # -- patching --------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Patch every resolvable target; restore the originals on exit."""
        patches = []
        self.absent = []
        try:
            for name, targets in self.targets.items():
                for target in targets:
                    if not self._patch(name, target, patches):
                        self.absent.append(target)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch(self, name: str, target: str, patches: list) -> bool:
        mod_name, qual = target.split(":")
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            return False
        owner = module
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapper = self.wrap(name, original)
        if isinstance(owner, type):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return True
        for mod in [m for k, m in sys.modules.items() if k == "ftcbf" or k.startswith("ftcbf.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return True

    # -- reporting -------------------------------------------------------
    def arrays(self):
        # Copies: a live buffer view would stop the arrays from growing.
        return (np.frombuffer(self.t0, dtype=float).copy(),
                np.frombuffer(self.t1, dtype=float).copy(),
                np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.name, dtype=np.int64).copy())

    def self_times(self):
        """Per-span (duration, self time) arrays; open spans count as zero."""
        t0, t1, parent, _ = self.arrays()
        dur = np.nan_to_num(t1 - t0, nan=0.0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur, dur - child

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all recorded spans."""
        _, _, _, name = self.arrays()
        dur, self_t = self.self_times()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_t, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
                for i, n in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        if name not in self._name_idx:
            return np.zeros(0)
        t0, t1, _, idx = self.arrays()
        sel = idx == self._name_idx[name]
        return t1[sel] - t0[sel]

    def write(self, path) -> None:
        t0, t1, parent, name = self.arrays()
        np.savez_compressed(path, t0=t0, t1=t1, parent=parent, name=name,
                            names=np.array(self.names, dtype=str))
