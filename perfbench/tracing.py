"""Span recorder for the traced run, wrapped around each layer's public entry points.

The wrappers are installed from the benchmark's own files: nothing inside
``repro`` changes.  Each wrapped call records one span (name, start, end,
parent, thread); self time is a span's duration minus the part covered by
its child spans.  Spans stay in memory and are summarised when the run
ends.  An entry point that no longer exists marks its layer absent
instead of failing the run, so the benchmark survives deletions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time

# (layer, "module:qualname", span name, kind)
#   kind "func":  a module-level function, rebound in every repro module
#                 that imported it by name;
#   kind "meth":  a method, wrapped on the class and on every subclass
#                 that overrides it;
#   kind "cmeth": a classmethod, same subclass rule;
#   kind "gen":   a generator method; each resumption is one span.
ENTRY_POINTS = (
    ("core", "repro.core.solver:evaluate_pair", "core.evaluate_pair", "func"),
    ("schedules", "repro.schedules.vectorized:ScheduleGrid.from_points", "schedules.grid_build", "cmeth"),
    ("schedules", "repro.schedules.vectorized:solve_schedule_grid", "schedules.kernel", "func"),
    ("schedules", "repro.schedules.incremental:solve_schedule_grid_incremental", "schedules.incremental", "func"),
    ("api", "repro.api.experiment:Experiment.plan", "api.plan_compile", "meth"),
    ("api", "repro.api.experiment:ExecutionPlan.execute", "api.execute", "meth"),
    ("api", "repro.api.backends:SolverBackend.solve_batch", "api.solve_batch", "meth"),
    ("api", "repro.api.cache:SolveCache.get", "api.cache_get", "meth"),
    ("api", "repro.api.cache:SolveCache.put", "api.cache_put", "meth"),
    ("exec", "repro.exec.base:Transport.prepare", "exec.prepare", "meth"),
    ("exec", "repro.exec.base:Transport.as_completed", "exec.harvest_wait", "gen"),
    ("analysis", "repro.api.result:ResultSet.frontier", "analysis.verbs", "meth"),
    ("analysis", "repro.api.result:ResultSet.sensitivity", "analysis.verbs", "meth"),
    ("analysis", "repro.api.result:ResultSet.crossover", "analysis.verbs", "meth"),
    ("analysis", "repro.api.result:ResultSet.savings", "analysis.verbs", "meth"),
    ("reporting", "repro.reporting.csvio:write_results_csv", "reporting.csv", "func"),
    ("reporting", "repro.api.result:ResultSet.to_dicts", "reporting.json", "meth"),
    ("reporting", "repro.reporting.serialize:dump_json", "reporting.json", "func"),
    ("reporting", "repro.analysis.verbs:FrontierResult.to_json", "reporting.json", "meth"),
    ("reporting", "repro.analysis.verbs:SensitivityResult.to_json", "reporting.json", "meth"),
    ("service", "repro.service.specs:parse_experiment_spec", "service.spec_parse", "func"),
    ("service", "repro.service.artifacts:ArtifactStore.put", "service.artifact_put", "meth"),
)

# Per-layer metric -> (end-to-end metric it should move, workloads).
# Printed with the traced run and mirrored in README.md.
PREDICTIONS = {
    "core.evaluate_pair_calls": ("scenarios_per_s", "paper_grid"),
    "core.evaluate_pair_s": ("scenarios_per_s", "paper_grid"),
    "schedules.grid_build_s": ("scenarios_per_s", "schedule_sweep"),
    "schedules.kernel_s": ("scenarios_per_s", "schedule_sweep"),
    "schedules.kernel_rows": ("scenarios_per_s", "schedule_sweep"),
    "schedules.incremental_s": ("scenarios_per_s", "schedule_sweep"),
    "schedules.warm_rows": ("scenarios_per_s", "schedule_sweep"),
    "schedules.anchor_rows": ("scenarios_per_s", "schedule_sweep"),
    "schedules.fallback_rows": ("scenarios_per_s", "schedule_sweep"),
    "api.plan_compile_s": ("scenarios_per_s", "paper_grid, schedule_sweep"),
    "api.dedup_ratio": ("scenarios_per_s", "paper_grid, schedule_sweep"),
    "api.solve_batch_s.firstorder": ("scenarios_per_s", "paper_grid"),
    "api.solve_batch_s.schedule-grid": ("scenarios_per_s", "schedule_sweep"),
    "api.execute_self_s": ("scenarios_per_s", "paper_grid, schedule_sweep"),
    "api.cache_get_s": ("cached_job_s", "service_jobs"),
    "api.cache_put_s": ("fresh_job_s", "service_jobs"),
    "api.cache_hit_ratio": ("cached_job_s, fresh_job_s", "service_jobs"),
    "exec.prepare_s": ("jobs_per_s, fresh_job_s", "service_jobs"),
    "exec.harvest_wait_s": ("jobs_per_s, fresh_job_s", "service_jobs"),
    "exec.shards": ("jobs_per_s, fresh_job_s", "service_jobs"),
    "exec.shard_retries": ("success_share", "service_jobs"),
    "exec.worker_crashes": ("success_share", "service_jobs"),
    "exec.inline_fallbacks": ("jobs_per_s, success_share", "service_jobs"),
    "analysis.verbs_s": ("scenarios_per_s", "paper_grid, schedule_sweep"),
    "reporting.csv_s": ("scenarios_per_s", "paper_grid, schedule_sweep"),
    "reporting.json_s": ("scenarios_per_s", "paper_grid, schedule_sweep"),
    "reporting.bytes": ("scenarios_per_s", "paper_grid, schedule_sweep"),
    "service.spec_parse_s": ("jobs_per_s, fresh_job_s", "service_jobs"),
    "service.job_exec_s": ("jobs_per_s, fresh_job_s", "service_jobs"),
    "service.solve_wall_s": ("jobs_per_s, fresh_job_s", "service_jobs"),
    "service.artifact_put_s": ("jobs_per_s, fresh_job_s", "service_jobs"),
    "service.http_overhead_s": ("jobs_per_s, fresh_job_s", "service_jobs"),
    "service.job_p50_s": ("jobs_per_s (closed loop: latency sets the rate)", "service_jobs"),
    "service.job_p95_s": ("jobs_per_s (tail)", "service_jobs"),
    "setup.import_s": ("setup_s", "all"),
    "setup.server_ready_s": ("setup_s", "service_jobs"),
    "trace.overhead": ("none (cost of tracing itself)", "all"),
}


class Recorder:
    """Spans and counters of one process, kept in memory.

    Only the process that installed the wrappers records: forked pool
    workers inherit the wrappers and pass straight through.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        # (name, start_ns, end_ns, parent index or -1, thread id)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counters: dict[str, float] = {}
        self.absent: dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._generation = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def open(self, name: str) -> tuple[int, int, str, int]:
        stack = self._stack()
        with self._lock:
            # A span left open across reset() has no parent any more.
            parent = stack[-1] if stack and stack[-1] < len(self.spans) else -1
            idx = len(self.spans)
            self.spans.append((name, 0, 0, parent, threading.get_ident()))
            generation = self._generation
        stack.append(idx)
        return generation, idx, name, time.perf_counter_ns()

    def close(self, token: tuple[int, int, str, int]) -> None:
        end = time.perf_counter_ns()
        generation, idx, name, start = token
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        with self._lock:
            if generation != self._generation:
                return
            _, _, _, parent, tid = self.spans[idx]
            self.spans[idx] = (name, start, end, parent, tid)

    def count(self, name: str, value: float = 1.0) -> None:
        if self.active():
            with self._lock:
                self.counters[name] = self.counters.get(name, 0.0) + value

    def reset(self) -> None:
        with self._lock:
            self._generation += 1
            self.spans.clear()
            self.counters.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        with self._lock:
            spans = list(self.spans)
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if end == 0:
                continue  # still open
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            if end == 0:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return out


RECORDER = Recorder()


def _span_call(fn, name, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not RECORDER.active():
            return fn(*args, **kwargs)
        span = name(args) if callable(name) else name
        token = RECORDER.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            RECORDER.close(token)
        if after is not None:
            try:
                after(result)
            except (AttributeError, TypeError) as exc:  # the result's shape changed
                RECORDER.absent.setdefault(f"{span} counters", f"{type(exc).__name__}: {exc}")
        return result

    return wrapper


def _span_gen(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                token = RECORDER.open(name) if RECORDER.active() else None
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if token is not None:
                        RECORDER.close(token)
                RECORDER.count("exec.shards")
                yield item
        finally:
            gen.close()

    return wrapper


def _after_plan(plan):
    RECORDER.count("api.plans")
    RECORDER.count("api.requested", len(plan))
    RECORDER.count("api.unique", plan.n_unique)


def _after_kernel(sol):
    RECORDER.count("schedules.kernel_rows", len(sol.feasible))


def _after_incremental(sol):
    stats = sol.stats
    RECORDER.count("schedules.warm_rows", stats.warm)
    RECORDER.count("schedules.anchor_rows", stats.anchors)
    RECORDER.count("schedules.fallback_rows", stats.fallback + stats.boundary)


def _after_cache_get(result):
    RECORDER.count("api.cache_lookups")
    if result is not None:
        RECORDER.count("api.cache_hits")


_AFTER = {
    "api.plan_compile": _after_plan,
    "schedules.kernel": _after_kernel,
    "schedules.incremental": _after_incremental,
    "api.cache_get": _after_cache_get,
}


def _backend_span(args):
    return f"api.solve_batch.{getattr(args[0], 'name', 'unknown')}"


def _resolve(target):
    module_name, qualname = target.split(":")
    obj = importlib.import_module(module_name)
    owner = None
    for part in qualname.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, qualname.split(".")[-1], obj


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def _wrap_function(original, wrapper):
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(modules=("repro", "repro.service", "repro.exec")) -> Recorder:
    """Import ``modules`` and wrap every entry point that still exists."""
    for name in modules:
        try:
            importlib.import_module(name)
        except ImportError as exc:
            RECORDER.absent[name] = f"{type(exc).__name__}: {exc}"
    for layer, target, span, kind in ENTRY_POINTS:
        try:
            owner, attr, obj = _resolve(target)
        except (ImportError, AttributeError) as exc:
            RECORDER.absent[f"{layer}: {target}"] = f"{type(exc).__name__}: {exc}"
            continue
        name = _backend_span if span == "api.solve_batch" else span
        after = _AFTER.get(span)
        if kind == "func":
            _wrap_function(obj, _span_call(obj, name, after))
            continue
        for cls in _subclasses(owner):
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            if kind == "cmeth" and isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_span_call(raw.__func__, name, after)))
            elif kind == "gen" and inspect.isgeneratorfunction(raw):
                setattr(cls, attr, _span_gen(raw, name))
            elif kind == "meth" and callable(raw):
                setattr(cls, attr, _span_call(raw, name, after))
    RECORDER.enabled = True
    return RECORDER
