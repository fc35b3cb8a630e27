"""The shared-memory estimate tables and the worker boot that attaches them.

Three contracts are under test:

* **Shared-table transport** -- ``SharedEstimateTables`` must round-trip the
  coordinator's dense response tables through shared memory byte for byte,
  refuse ineligible evaluators (OLTP, partially warmed), and an evaluator
  with installed views must score chunks identically to the one that warmed
  its own tables.
* **Attach fallback** -- a pool worker whose attach fails must warm its
  tables from the pickled cache instead, so it never scores with a cold
  evaluator.
* **Stats folding** -- per-worker cache and boot deltas fold into the run's
  stats exactly once per shard.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import parallel_search
from repro.core.batch_eval import (
    BatchEvalStats,
    BatchLayoutEvaluator,
    UnsupportedBatchEvaluation,
    iter_assignment_chunks,
)
from repro.core.parallel_search import EnumerationSpec, SearchProgress, _ShardOutcome
from repro.core.shm_tables import SharedEstimateTables
from repro.dbms.executor import WorkloadEstimator
from repro.workloads.workload import Workload


def fresh_estimator(catalog):
    return WorkloadEstimator(catalog, noise=0.0, buffer_pool=None, seed=7)


def make_evaluator(objects, system, catalog, workload, **kwargs):
    return BatchLayoutEvaluator(
        objects, system, fresh_estimator(catalog), workload, **kwargs
    )


@pytest.fixture
def oltp_workload(scan_query, lookup_query, write_query):
    return Workload(
        name="tiny-oltp",
        kind="oltp",
        transaction_mix=((scan_query, 1.0), (lookup_query, 8.0), (write_query, 3.0)),
        concurrency=50,
        measured_transaction_fraction=0.4,
    )


# ---------------------------------------------------------------------------
# Shared-memory estimate tables
# ---------------------------------------------------------------------------

class TestSharedTables:
    def warmed_evaluator(self, small_objects, box1_system, small_catalog,
                         small_workload):
        evaluator = make_evaluator(
            small_objects, box1_system, small_catalog, small_workload
        )
        assert evaluator.warm_signatures()
        return evaluator

    def test_roundtrip_is_bitwise(self, small_objects, box1_system, small_catalog,
                                  small_workload):
        evaluator = self.warmed_evaluator(
            small_objects, box1_system, small_catalog, small_workload
        )
        dense = evaluator.dense_response_tables()
        with SharedEstimateTables.build(evaluator) as tables:
            assert tables.num_tables == len(dense)
            assert tables.nbytes == sum(arr.nbytes for arr in dense.values())
            attached = SharedEstimateTables.attach(tables.descriptor())
            try:
                views = attached.views()
                assert set(views) == set(dense)
                for name, arr in dense.items():
                    assert (views[name] == arr).all()
                    assert not views[name].flags.writeable
            finally:
                attached.close()

    def test_installed_views_score_identically(self, small_objects, box1_system,
                                               small_catalog, small_workload):
        warmed = self.warmed_evaluator(
            small_objects, box1_system, small_catalog, small_workload
        )
        rows = np.concatenate(
            [chunk for _, chunk in
             iter_assignment_chunks(len(small_objects), 3, 16)]
        )
        reference = warmed.evaluate_chunk(rows)
        with SharedEstimateTables.build(warmed) as tables:
            attached = SharedEstimateTables.attach(tables.descriptor())
            try:
                cold = make_evaluator(
                    small_objects, box1_system, small_catalog, small_workload
                )
                cold.install_dense_tables(attached.views())
                candidate = cold.evaluate_chunk(rows)
                assert (reference.toc_cents == candidate.toc_cents).all()
                assert (reference.feasible == candidate.feasible).all()
                # Installed tables answer from shared memory: no estimator
                # traffic, and the TOC floor bound stays available.
                assert cold.stats.estimator_calls == 0
                assert cold.toc_floor_factor() > 0.0
            finally:
                attached.close()

    def test_unwarmed_evaluator_is_refused(self, small_objects, box1_system,
                                           small_catalog, small_workload):
        evaluator = make_evaluator(
            small_objects, box1_system, small_catalog, small_workload
        )
        with pytest.raises(UnsupportedBatchEvaluation):
            evaluator.dense_response_tables()

    def test_oltp_evaluator_is_refused(self, small_objects, box1_system,
                                       small_catalog, oltp_workload):
        evaluator = make_evaluator(
            small_objects, box1_system, small_catalog, oltp_workload
        )
        evaluator.warm_signatures()
        with pytest.raises(UnsupportedBatchEvaluation):
            SharedEstimateTables.build(evaluator)

    def test_install_validates_shapes_and_coverage(self, small_objects, box1_system,
                                                   small_catalog, small_workload):
        evaluator = self.warmed_evaluator(
            small_objects, box1_system, small_catalog, small_workload
        )
        views = evaluator.dense_response_tables()
        target = make_evaluator(
            small_objects, box1_system, small_catalog, small_workload
        )
        name = next(iter(views))
        with pytest.raises(UnsupportedBatchEvaluation):
            target.install_dense_tables(
                {**views, name: views[name][:-1]}  # truncated table
            )
        missing = dict(views)
        del missing[name]
        with pytest.raises(UnsupportedBatchEvaluation):
            target.install_dense_tables(missing)

    def test_unlink_destroys_the_segment(self, small_objects, box1_system,
                                         small_catalog, small_workload):
        evaluator = self.warmed_evaluator(
            small_objects, box1_system, small_catalog, small_workload
        )
        tables = SharedEstimateTables.build(evaluator)
        descriptor = tables.descriptor()
        tables.unlink()
        tables.unlink()  # idempotent
        with pytest.raises(FileNotFoundError):
            SharedEstimateTables.attach(descriptor)


# ---------------------------------------------------------------------------
# Worker boot: the attach fallback
# ---------------------------------------------------------------------------

class _PoolCaptured(Exception):
    """Aborts an engine run right after it built the worker boot arguments."""


class _CapturingContext:
    """A ``multiprocessing`` context whose ``Pool`` records its initargs."""

    def __init__(self):
        self.initargs = None

    def Value(self, typecode, value):
        return multiprocessing.Value(typecode, value)

    def Pool(self, processes, initializer, initargs):
        self.initargs = initargs
        raise _PoolCaptured


class TestWorkerAttachFallback:
    def test_failed_attach_warms_from_the_pickled_cache(
            self, monkeypatch, small_objects, box1_system, small_catalog, small_workload):
        """A worker whose shared-memory attach fails must warm its evaluator
        from the pickled cache instead of scoring with cold tables.

        The boot arguments are the ones the coordinator really builds; by
        the time the worker boots here, the engine has closed and unlinked
        the segment the descriptor names, so the attach fails."""
        estimator = fresh_estimator(small_catalog)
        evaluator = BatchLayoutEvaluator(small_objects, box1_system, estimator, small_workload)
        spec = EnumerationSpec(
            variable_objects=small_objects, system=box1_system, estimator=estimator,
            workload=small_workload, pinned=[], constraint=None, cache=evaluator.cache,
        )
        context = _CapturingContext()
        monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)
        with parallel_search.ParallelEnumerationEngine.from_evaluator(
                evaluator, spec, workers=2) as engine:
            with pytest.raises(_PoolCaptured):
                engine.run()
        descriptor = context.initargs[-2]
        assert descriptor is not None  # the coordinator took the shm path
        with pytest.raises(FileNotFoundError):
            SharedEstimateTables.attach(descriptor)

        monkeypatch.setattr(parallel_search, "_WORKER_STATE", None)
        parallel_search._worker_init(*context.initargs)
        state = parallel_search._WORKER_STATE
        worker = state["evaluator"]
        assert state["shm_tables"] is None
        assert worker._fully_warmed
        assert worker.toc_floor_factor() > 0.0
        assert state["boot"]["attach_s"] == 0.0
        assert state["boot"]["warm_s"] > 0.0
        # Warming from the coordinator's complete pickled cache is pure
        # lookups: the worker never calls the optimizer.
        assert state["boot"]["cache_misses"] == 0
        assert state["boot"]["cache_hits"] > 0


# ---------------------------------------------------------------------------
# Worker cache-delta folding
# ---------------------------------------------------------------------------

class TestCacheDeltaFolding:
    """Worker cache hit/miss deltas are measured per ``(shard_id, attempt)``
    and folded exactly once: a retried shard whose first outcome already
    landed must not double-count."""

    @staticmethod
    def outcome(shard_id, hits, misses):
        stats = BatchEvalStats(cache_hits=hits, cache_misses=misses)
        return _ShardOutcome(
            shard_id=shard_id, best_toc=float("inf"), best_index=-1,
            best_row=None, evaluated=0, stats=stats,
        )

    def test_duplicate_shard_outcomes_fold_once(self):
        progress = SearchProgress(total_shards=2)
        progress.record(self.outcome(0, hits=5, misses=2))
        progress.record(self.outcome(0, hits=7, misses=9))  # late duplicate attempt
        progress.record(self.outcome(1, hits=3, misses=1))
        assert progress.stats.cache_hits == 8
        assert progress.stats.cache_misses == 3

    def test_stats_merge_folds_boot_and_steal_fields(self):
        total = BatchEvalStats()
        total.merge(BatchEvalStats(build_s=0.5, warm_s=0.25, attach_s=0.01, steals=3,
                                   cache_hits=10, cache_misses=4))
        total.merge(BatchEvalStats(build_s=0.5, warm_s=0.25, attach_s=0.02, steals=1,
                                   cache_hits=2, cache_misses=6))
        assert total.build_s == 1.0
        assert total.warm_s == 0.5
        assert total.attach_s == pytest.approx(0.03)
        assert total.steals == 4
        assert total.cache_hits == 12
        assert total.cache_misses == 10
