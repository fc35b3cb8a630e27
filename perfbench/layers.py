"""Per-layer tracing for the traced benchmark run.

The benchmark never edits the program: a traced run wraps the public entry
points of each layer -- ``QueryOptimizer.plan``, ``WorkloadEstimator.
estimate_query`` / ``run_workload``, ``QueryEstimateCache.get``,
``WorkloadProfiler.profile``, ``DOTOptimizer.optimize`` / ``validate``,
``ExhaustiveSolver.solve``, ``OnlineLoop.step``, ``AdvisorService.tick``,
``Journal.append``, ``SnapshotStore.save``, ``experiments.specs.execute`` and
``ResultsStore.record`` -- with timers and counters kept in a :class:`Ledger`,
and unwraps them again after each traced unit.  Wrapper times are inclusive
(``plan_s`` is inside ``estimate_query_s``, which is inside ``optimize_s``).

Every per-layer metric is listed in :data:`CATALOG` with its unit and a
repeatability label: ``exact`` counts repeat bit for bit between runs of the
same seed and may carry a count-based claim; ``varies`` counts move between
identical runs (work stealing, store payload sizes) and may not; ``timing``
values are wall-clock measurements.  Counts and times are reported per traced
unit, so they do not depend on how many units fit into the run.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Experiment kinds of ``repro.experiments.specs.EXECUTORS``, one timer each.
SPEC_KINDS = ("tpch", "fig8_box", "fig9_arm", "table1", "table2")


class Ledger:
    """Call counts, inclusive seconds and named counters of the wrapped layers."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.plan_shapes = set()
        # The sweep runs specs on a thread pool.
        self._lock = threading.Lock()

    def timed(self, key: str, seconds: float) -> None:
        with self._lock:
            self.calls[key] += 1
            self.seconds[key] += seconds

    def bump(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def add_shape(self, shape) -> None:
        with self._lock:
            self.plan_shapes.add(shape)


# ---------------------------------------------------------------------------
# Wrappers: (owner, attribute, factory(original, ledger) -> wrapper)
# ---------------------------------------------------------------------------

def _timer(key: str, after: Callable = None):
    """A wrapper factory that times every call under ``key``.

    ``after(ledger, args, result)`` records what the call returned; it runs
    outside the timed interval.
    """

    def factory(original, ledger: Ledger):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            ledger.timed(key, time.perf_counter() - started)
            if after is not None:
                after(ledger, args, result)
            return result

        return wrapper

    return factory


def _wrap_plan(original, ledger: Ledger):
    @functools.wraps(original)
    def plan(self, *args, **kwargs):
        hits_before = self.cache_stats.hits
        started = time.perf_counter()
        result = original(self, *args, **kwargs)
        ledger.timed("plan", time.perf_counter() - started)
        if self.cache_stats.hits > hits_before:
            ledger.bump("plan_hits")
        else:
            ledger.bump("plans_built")
            ledger.add_shape((
                result.query_name,
                tuple(sorted(result.access_paths.items())),
                tuple(result.join_algorithms),
            ))
        return result

    return plan


def _wrap_cache_get(original, ledger: Ledger):
    @functools.wraps(original)
    def get(self, *args, **kwargs):
        hits_before = self.hits
        result = original(self, *args, **kwargs)
        ledger.bump("estimate_cache_hits" if self.hits > hits_before
                    else "estimate_cache_misses")
        return result

    return get


def _wrap_step(original, ledger: Ledger):
    @functools.wraps(original)
    def step(self, *args, **kwargs):
        cold = self.deployed is None
        started = time.perf_counter()
        record = original(self, *args, **kwargs)
        elapsed = time.perf_counter() - started
        kind = "cold" if cold else ("retier" if record.reoptimized else "warm")
        ledger.timed(f"step_{kind}", elapsed)
        return record

    return step


def _wrap_execute(original, ledger: Ledger):
    @functools.wraps(original)
    def execute(spec, *args, **kwargs):
        started = time.perf_counter()
        result = original(spec, *args, **kwargs)
        ledger.timed(f"spec_exec.{spec.experiment}", time.perf_counter() - started)
        return result

    return execute


def _after_profile(ledger, args, result):
    ledger.bump("baselines_profiled", len(result.profiles))


def _after_optimize(ledger, args, result):
    ledger.bump("dot_layouts_evaluated", result.evaluated_layouts)
    ledger.bump("dot_moves_evaluated", len(result.history))
    ledger.bump("dot_moves_accepted", sum(1 for move in result.history if move.accepted))


def _after_es_solve(ledger, args, result):
    stats = result.stats
    batch = stats.batch
    ledger.bump("es_solves")
    ledger.bump("es_evaluated", stats.evaluated_layouts)
    ledger.bump("es_pruned", stats.pruned_layouts)
    ledger.bump("es_workers", stats.workers)
    if batch is not None:
        for field in ("build_s", "warm_s", "attach_s", "eval_s",
                      "pruned_subtrees", "shards", "steals"):
            ledger.bump(f"es_{field}", getattr(batch, field))


def _targets():
    """Every wrapped entry point, imported lazily (``src`` is on the path by then)."""
    from repro.core.batch_eval import QueryEstimateCache
    from repro.core.dot import DOTOptimizer
    from repro.core.profiler import WorkloadProfiler
    from repro.core.solver import ExhaustiveSolver
    from repro.dbms.executor import WorkloadEstimator
    from repro.dbms.optimizer import QueryOptimizer
    from repro.experiments import specs
    from repro.experiments.store import ResultsStore
    from repro.online.controller import OnlineLoop
    from repro.service.daemon import AdvisorService
    from repro.service.journal import Journal, SnapshotStore

    return [
        (QueryOptimizer, "plan", _wrap_plan),
        (WorkloadEstimator, "estimate_query", _timer("estimate_query")),
        (WorkloadEstimator, "run_workload", _timer("run_workload")),
        (QueryEstimateCache, "get", _wrap_cache_get),
        (WorkloadProfiler, "profile", _timer("profile", _after_profile)),
        (DOTOptimizer, "optimize", _timer("dot_optimize", _after_optimize)),
        (DOTOptimizer, "validate", _timer("dot_validate")),
        (ExhaustiveSolver, "solve", _timer("es_solve", _after_es_solve)),
        (OnlineLoop, "step", _wrap_step),
        (AdvisorService, "tick", _timer("tick")),
        (Journal, "append", _timer("journal_append")),
        (SnapshotStore, "save", _timer("snapshot")),
        (specs, "execute", _wrap_execute),
        (ResultsStore, "record", _timer("store_record")),
    ]


class Tracing:
    """Installs the wrappers for one traced unit and removes them afterwards."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Ledger:
        for owner, attribute, factory in _targets():
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, factory(original, self.ledger))
        return self.ledger

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# The per-layer metric catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    #: ``exact``, ``varies`` or ``timing`` (see the module docstring).
    repeat: str
    value: Callable[[Ledger, int], float]
    better: str = "lower"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_unit(table: str, key: str):
    return lambda ledger, units: getattr(ledger, table)[key] / units


def _median(key: str):
    # A median repeats bit for bit however many traced units sampled it.
    return lambda ledger, units: (
        statistics.median(ledger.samples[key]) if ledger.samples[key] else 0.0
    )


def _hit_ratio(hits: str, misses: str):
    return lambda ledger, units: _ratio(
        ledger.counts[hits], ledger.counts[hits] + ledger.counts[misses]
    )


def _count(name, table, key, repeat="exact"):
    return LayerMetric(name, "count", repeat, _per_unit(table, key))


def _seconds(name, table, key):
    return LayerMetric(name, "s", "timing", _per_unit(table, key))


CATALOG: Tuple[LayerMetric, ...] = (
    _count("dbms.optimizer.plan_calls", "calls", "plan"),
    _seconds("dbms.optimizer.plan_s", "seconds", "plan"),
    LayerMetric("dbms.optimizer.plan_cache_hit_ratio", "ratio", "exact",
                _hit_ratio("plan_hits", "plans_built"), "higher"),
    _count("dbms.optimizer.plans_built", "counts", "plans_built"),
    LayerMetric("dbms.optimizer.plan_shapes", "count", "exact",
                lambda ledger, units: len(ledger.plan_shapes)),
    _count("dbms.executor.estimate_query_calls", "calls", "estimate_query"),
    _seconds("dbms.executor.estimate_query_s", "seconds", "estimate_query"),
    _count("dbms.executor.run_workload_calls", "calls", "run_workload"),
    _seconds("dbms.executor.run_workload_s", "seconds", "run_workload"),
    LayerMetric("dbms.executor.calibration_error", "ratio", "exact",
                _median("calibration_error")),
    LayerMetric("core.batch_eval.estimate_cache_hit_ratio", "ratio", "exact",
                _hit_ratio("estimate_cache_hits", "estimate_cache_misses"), "higher"),
    _seconds("core.profiler.profile_s", "seconds", "profile"),
    _count("core.profiler.baselines_profiled", "counts", "baselines_profiled"),
    _seconds("core.dot.optimize_s", "seconds", "dot_optimize"),
    _seconds("core.dot.validate_s", "seconds", "dot_validate"),
    _count("core.dot.layouts_evaluated", "counts", "dot_layouts_evaluated"),
    _count("core.dot.moves_accepted", "counts", "dot_moves_accepted"),
    _count("core.dot.moves_evaluated", "counts", "dot_moves_evaluated"),
    _seconds("core.parallel_search.build_s", "counts", "es_build_s"),
    _seconds("core.parallel_search.warm_s", "counts", "es_warm_s"),
    _seconds("core.parallel_search.attach_s", "counts", "es_attach_s"),
    _seconds("core.parallel_search.eval_s", "counts", "es_eval_s"),
    _count("core.parallel_search.evaluated_layouts", "counts", "es_evaluated", "varies"),
    _count("core.parallel_search.pruned_layouts", "counts", "es_pruned", "varies"),
    LayerMetric("core.parallel_search.pruning_efficacy", "ratio", "varies",
                lambda ledger, units: _ratio(
                    ledger.counts["es_evaluated"],
                    ledger.counts["es_evaluated"] + ledger.counts["es_pruned"],
                )),
    _count("core.parallel_search.pruned_subtrees", "counts", "es_pruned_subtrees", "varies"),
    _count("core.parallel_search.shards", "counts", "es_shards"),
    _count("core.parallel_search.steals", "counts", "es_steals", "varies"),
    LayerMetric("core.parallel_search.workers", "count", "exact",
                lambda ledger, units: _ratio(ledger.counts["es_workers"],
                                             ledger.counts["es_solves"]), "higher"),
    LayerMetric("online.steps", "count", "exact",
                lambda ledger, units: sum(ledger.calls[f"step_{kind}"]
                                          for kind in ("cold", "retier", "warm")) / units),
    _count("online.cold_starts", "calls", "step_cold"),
    _count("online.retiers", "calls", "step_retier"),
    _seconds("online.cold_step_s", "seconds", "step_cold"),
    _seconds("online.retier_step_s", "seconds", "step_retier"),
    _seconds("online.warm_step_s", "seconds", "step_warm"),
    _seconds("service.tick_s", "seconds", "tick"),
    _count("service.shed", "counts", "shed"),
    _count("service.journal.appends", "calls", "journal_append"),
    _seconds("service.journal.append_s", "seconds", "journal_append"),
    LayerMetric("service.journal.bytes_per_epoch", "bytes", "exact",
                lambda ledger, units: _ratio(ledger.counts["journal_bytes"],
                                             ledger.counts["epochs"])),
    _count("service.snapshots", "calls", "snapshot"),
    _seconds("service.snapshot_s", "seconds", "snapshot"),
    *(_seconds(f"experiments.spec_exec_s.{kind}", "seconds", f"spec_exec.{kind}")
      for kind in SPEC_KINDS),
    _count("experiments.store.record_calls", "calls", "store_record"),
    _seconds("experiments.store.record_s", "seconds", "store_record"),
    LayerMetric("experiments.store.bytes_per_spec", "bytes", "varies",
                lambda ledger, units: _ratio(ledger.counts["store_bytes"],
                                             ledger.counts["specs"])),
    _seconds("experiments.figures.assemble_s", "seconds", "assemble"),
    _seconds("experiments.pool_overhead_s", "counts", "pool_overhead_s"),
    # Stored by run.py: mean traced minus mean untraced unit wall time.
    LayerMetric("obs.tracing_overhead_s", "s", "timing",
                lambda ledger, units: ledger.counts["tracing_overhead_s"]),
)


def layer_metrics(ledger: Ledger, units: int) -> Dict[str, Tuple[float, str]]:
    """Every catalog metric as ``name -> (value, unit)`` over ``units`` traced units."""
    units = max(1, units)
    return {metric.name: (float(metric.value(ledger, units)), metric.unit)
            for metric in CATALOG}
