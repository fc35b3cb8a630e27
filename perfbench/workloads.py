"""The four benchmark workloads: ``advise``, ``exact``, ``fleet`` and ``sweep``.

Each workload is measured in whole *units* -- one advise cycle over its
twelve requests, one exhaustive solve, one fleet session, one sweep -- so
that every unit does the same work and per-unit counts repeat.  A unit
times its own measured region and leaves its output checks outside it.

* ``setup()`` builds what one unit consumes; ``run.py`` times it as
  ``setup_s`` and calls it once per unit.
* ``run_unit(state, ledger)`` measures one unit and checks its outputs;
  ``ledger`` is the per-layer :class:`~perfbench.layers.Ledger` of a traced
  unit, or ``None``.
* ``finish()`` runs the checks that need every unit and returns the
  workload's answer-quality figures.

``seed`` sets the advise request order and the fleet tenants' drift seeds;
the exact and sweep inputs are fixed instances that no seed changes.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass
class UnitResult:
    """What one measured unit did."""

    #: Latency of each operation of the unit, in seconds.
    latencies: List[float]
    #: Wall seconds of the measured region (excludes the unit's own checks).
    busy_s: float
    #: Work items completed, the numerator of ``throughput_per_s``.
    items: int
    attempted: int
    failed: int
    #: Reasons the unit failed a run-level check (empty when it passed).
    problems: List[str] = field(default_factory=list)


@dataclass
class Quality:
    """Answer quality in estimate space, plus checks spanning all units."""

    toc_ratio: float
    cost_cents: float
    #: Operations found failed by the cross-unit checks.
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


class Workload:
    """Shared shape of the four workloads."""

    name = ""
    #: Percentile reported as ``latency_tail_s``.  Runs of few operations
    #: (one solve or one sweep each) have no percentile above the median with
    #: ten operations beyond it, so their tail is the median.
    tail = 0.5

    def __init__(self, seed: int, tiny: bool, workdir: Path, nproc: int):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.nproc = nproc
        self._setups = 0

    def _next_path(self, prefix: str, suffix: str = "") -> Path:
        self._setups += 1
        return self.workdir / f"{prefix}-{self._setups}{suffix}"

    def setup(self):
        raise NotImplementedError

    def discard(self, state) -> None:
        """Release a state that no unit will use."""

    def run_unit(self, state, ledger) -> UnitResult:
        raise NotImplementedError

    def finish(self) -> Quality:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# advise: cold-cache planning, one closed-loop client
# ---------------------------------------------------------------------------

ADVISE_SCENARIOS = ("tpch_original", "tpch_modified", "tpcc_fig8")
BOXES = ("Box 1", "Box 2")
ADVISE_SLA_RATIOS = (0.5, 0.25)


class Advise(Workload):
    """``ProvisioningAdvisor.recommend`` with a fresh estimator per request."""

    name = "advise"
    tail = 0.90

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = random.Random(self.seed)
        self.requests = [
            (scenario, box, ratio)
            for scenario in ADVISE_SCENARIOS
            for box in BOXES
            for ratio in ADVISE_SLA_RATIOS
        ]
        #: First answer per request: (estimated TOC, reference TOC).
        self.answers: Dict[Tuple[str, str, float], Tuple[float, float]] = {}

    def setup(self):
        from repro import scenarios

        return {name: scenarios.build(name) for name in ADVISE_SCENARIOS}

    def _recommend(self, bundle, box: str, ratio: float):
        from repro import scenarios
        from repro.core import ProvisioningAdvisor
        from repro.sla import RelativeSLA

        advisor = ProvisioningAdvisor(
            bundle.objects, scenarios.box_system(box), bundle.fresh_estimator()
        )
        patterns = (
            [advisor.profiler.single_baseline_pattern()]
            if bundle.single_baseline_profile else None
        )
        return advisor.recommend(
            bundle.workload,
            sla=RelativeSLA(ratio, metric=bundle.sla.metric),
            profile_mode=bundle.profile_mode,
            baseline_patterns=patterns,
        )

    def _problem(self, request, recommendation) -> Optional[str]:
        if not recommendation.validated:
            return "not validated"
        if recommendation.relaxations_used:
            return f"relaxed the SLA {recommendation.relaxations_used} times"
        if recommendation.psr < 1.0:
            return f"PSR {recommendation.psr}"
        if not recommendation.layout.satisfies_capacity():
            return "layout breaks capacity"
        estimated = recommendation.estimated_report.toc_cents
        first = self.answers.setdefault(
            request, (estimated, recommendation.baseline_report.toc_cents)
        )
        if estimated != first[0]:
            return f"estimated TOC {estimated!r} != first answer {first[0]!r}"
        return None

    def run_unit(self, bundles, ledger) -> UnitResult:
        order = self.rng.sample(self.requests, len(self.requests))
        latencies, failed, problems = [], 0, []
        busy = 0.0
        for request in order:
            scenario, box, ratio = request
            started = time.perf_counter()
            try:
                recommendation = self._recommend(bundles[scenario], box, ratio)
            except Exception as exc:  # a failed request is counted, not fatal
                recommendation, problem = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            busy += elapsed
            latencies.append(elapsed)
            if recommendation is not None:
                problem = self._problem(request, recommendation)
                if ledger is not None:
                    measured = recommendation.measured_report.toc_cents
                    estimated = recommendation.estimated_report.toc_cents
                    ledger.sample("calibration_error", abs(estimated - measured) / measured)
            if problem is not None:
                failed += 1
                problems.append(f"{request}: {problem}")
        return UnitResult(latencies, busy, len(order), len(order), failed, problems)

    def finish(self) -> Quality:
        missing = [request for request in self.requests if request not in self.answers]
        if missing:
            return Quality(1.0, 1.0, problems=[f"no valid answer for {missing}"])
        return Quality(
            toc_ratio=_geomean([est / ref for est, ref in self.answers.values()]),
            cost_cents=sum(est for est, _ in self.answers.values()),
        )


# ---------------------------------------------------------------------------
# exact: full-object TPC-H exhaustive search on Box 2
# ---------------------------------------------------------------------------

class Exact(Workload):
    """``ExhaustiveSolver(workers=nproc).solve`` over all 16 TPC-H objects (3^16)."""

    name = "exact"

    def __init__(self, *args):
        super().__init__(*args)
        self.optima: List[float] = []

    def _context(self):
        from repro import scenarios

        bundle = scenarios.build("tpch_es_subset")
        objects = (
            bundle.objects_named(bundle.extras["es_object_names"]) if self.tiny
            else bundle.objects
        )
        return bundle.context(system=scenarios.box_system("Box 2"), objects=objects,
                              estimator=bundle.fresh_estimator())

    def setup(self):
        return self._context()

    def run_unit(self, context, ledger) -> UnitResult:
        from repro.core.solver import ExhaustiveSolver

        started = time.perf_counter()
        try:
            result = ExhaustiveSolver(workers=self.nproc).solve(context)
            problem = None
        except Exception as exc:
            result, problem = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if result is not None:
            if result.stats.degraded:
                problem = f"degraded: {result.stats.incidents}"
            elif not result.feasible:
                problem = "infeasible"
            else:
                self.optima.append(result.toc_cents)
        return UnitResult([elapsed], elapsed, 1, 1, int(problem is not None),
                          [problem] if problem else [])

    def finish(self) -> Quality:
        from repro.core.solver import DOTSolver

        if not self.optima:
            return Quality(1.0, 1.0, problems=["no solve succeeded"])
        context = self._context()
        dot_toc = DOTSolver().solve(context).toc_cents
        reference = context.evaluate(context.reference_layout(), mode="estimate").toc_cents
        first = self.optima[0]
        wrong = [toc for toc in self.optima if toc != first or toc > dot_toc]
        problems = [f"optima {self.optima} vs DOT {dot_toc!r}"] if wrong else []
        return Quality(first / reference, first, failed=len(wrong), problems=problems)


# ---------------------------------------------------------------------------
# fleet: the advisor service with warm caches and a durable journal
# ---------------------------------------------------------------------------

class Fleet(Workload):
    """One ``AdvisorService`` session of drifting TPC-H and steady TPC-C tenants."""

    name = "fleet"
    # About 4.5% of ticks are slow: 1.2% run two cold starts, the rest a
    # re-tier.  p99 falls on the edge between those two groups and moved 24%
    # between runs; p98 falls inside the re-tier group.
    tail = 0.98

    def __init__(self, *args):
        super().__init__(*args)
        self.tenants, self.epochs = (3, 4) if self.tiny else (24, 84)
        self.costs: List[float] = []
        self.ratio: Optional[float] = None

    def _specs(self):
        from repro.service import TenantSpec

        specs = []
        for index in range(self.tenants):
            kind = index % 3
            if kind == 2:
                scenario, overrides, drift = (
                    "tpcc_fig8", {"warehouses": 10, "concurrency": 10}, "steady")
            else:
                scenario, overrides = "tpch_original", {"scale_factor": 1.0, "repetitions": 1}
                drift = ("crossfade", "flash")[kind]
            specs.append(TenantSpec(
                tenant_id=f"tenant-{index:02d}", scenario=scenario, overrides=overrides,
                num_epochs=self.epochs, drift=drift,
                drift_seed=self.seed * 1000 + index,
                # Sensitive enough that every drifting tenant re-tiers.
                share_threshold=0.02,
            ))
        return specs

    def setup(self):
        from repro.service import AdvisorService, ServiceConfig

        state_dir = self._next_path("fleet")
        service = AdvisorService(
            state_dir, ServiceConfig(workers=self.nproc, queue_depth=self.tenants)
        )
        for spec in self._specs():
            service.register(spec)
        return service

    def discard(self, service) -> None:
        service.journal.close()
        shutil.rmtree(service.state_dir, ignore_errors=True)

    def run_unit(self, service, ledger) -> UnitResult:
        from repro.service.journal import Journal

        latencies = []
        max_ticks = 4 * self.tenants * self.epochs
        started = time.perf_counter()
        while not service.all_done and len(latencies) < max_ticks:
            tick_started = time.perf_counter()
            service.tick()
            latencies.append(time.perf_counter() - tick_started)
        service.shutdown()
        busy = time.perf_counter() - started

        report = service.report()
        attempted = self.tenants * self.epochs
        shed = sum(report.shed.values())
        uncommitted = attempted - sum(
            status.epochs_committed for status in report.tenants.values())
        records, _ = Journal.load(service.journal.path)
        journaled = sum(1 for record in records if record.get("kind") == "epoch_committed")
        problems = [
            f"tenant {tid} {'failed' if status.failed else 'exhausted'}"
            for tid, status in report.tenants.items() if status.failed or status.exhausted
        ]
        if journaled != report.completed_epochs:
            problems.append(f"{journaled} journaled commits for "
                            f"{report.completed_epochs} completed epochs")
        self.costs.append(sum(s.cumulative_cost_cents for s in report.tenants.values()))
        if self.ratio is None:
            self.ratio = self._toc_ratio(service)
        if ledger is not None:
            ledger.bump("shed", shed)
            ledger.bump("epochs", report.completed_epochs)
            ledger.bump("journal_bytes", service.journal.path.stat().st_size)
        shutil.rmtree(service.state_dir, ignore_errors=True)
        return UnitResult(latencies, busy, report.completed_epochs, attempted,
                          uncommitted + shed, problems)

    @staticmethod
    def _toc_ratio(service) -> float:
        """Geomean over tenants of the final deployed layout's estimated TOC
        over the all-most-expensive layout's, on the final epoch workload."""
        from repro.core.layout import Layout

        ratios = []
        for runtime in service.tenants.values():
            advisor = runtime.advisor
            workload = runtime.epochs[-1].workload
            reference = Layout.uniform(advisor.objects, advisor.system,
                                       advisor.system.most_expensive().name)
            deployed = advisor.toc_model.evaluate(runtime.loop.deployed, workload,
                                                  mode="estimate")
            best = advisor.toc_model.evaluate(reference, workload, mode="estimate")
            ratios.append(deployed.toc_cents / best.toc_cents)
        return _geomean(ratios)

    def finish(self) -> Quality:
        if not self.costs:
            return Quality(1.0, 1.0, problems=["no fleet session ran"])
        problems = []
        if any(cost != self.costs[0] for cost in self.costs):
            problems.append(f"fleet cost differs between sessions: {self.costs}")
        return Quality(self.ratio, self.costs[0], problems=problems)


# ---------------------------------------------------------------------------
# sweep: the paper-figure matrix into an empty results store
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """``orchestrator.run_figures`` into an empty store, then figure assembly."""

    name = "sweep"

    def __init__(self, *args):
        super().__init__(*args)
        self.figures: Optional[Dict[str, object]] = None

    def setup(self):
        from repro.experiments.store import ResultsStore

        return ResultsStore(self._next_path("sweep", ".sqlite"))

    def discard(self, store) -> None:
        for path in store.path.parent.glob(store.path.name + "*"):
            path.unlink()

    def run_unit(self, store, ledger) -> UnitResult:
        from repro.experiments import orchestrator, specs

        spec_s_before = _spec_seconds(ledger)
        started = time.perf_counter()
        report = orchestrator.run_figures(specs.FIGURES, store, workers=self.nproc)
        swept = time.perf_counter()
        problems = []
        try:
            figures = specs.assemble_all(orchestrator.store_lookup(store))
        except Exception as exc:
            figures = None
            problems.append(f"figure assembly raised {type(exc).__name__}: {exc}")
        finished = time.perf_counter()

        failed = 0
        for spec in report.requested:
            stored = store.get(spec)
            if stored is None or stored.record.stats.get("attempts") != 1:
                failed += 1
        if figures is not None:
            view = specs.strip_timing(figures)
            if self.figures is None:
                self.figures = view
            elif view != self.figures:
                problems.append("assembled figures differ between sweeps")
        if ledger is not None:
            ledger.timed("assemble", finished - swept)
            spec_s = _spec_seconds(ledger) - spec_s_before
            ledger.bump("pool_overhead_s", (swept - started) - spec_s / self.nproc)
            ledger.bump("store_bytes", sum(
                path.stat().st_size for path in store.path.parent.glob(store.path.name + "*")))
            ledger.bump("specs", len(report.requested))
        self.discard(store)
        elapsed = finished - started
        requested = len(report.requested)
        return UnitResult([elapsed], elapsed, requested, requested, failed, problems)

    def finish(self) -> Quality:
        if self.figures is None:
            return Quality(1.0, 1.0, problems=["no sweep assembled its figures"])
        ratios, dot_cents = [], 0.0
        for figure in ("fig3", "fig5", "fig7", "fig8"):
            for _box, payload in sorted(self.figures[figure].items()):
                rows = {row["layout_name"]: row["toc_cents"]
                        for row in payload["data"]["evaluations"]}
                reference = rows["All H-SSD"]
                for name, toc in sorted(rows.items()):
                    if name.startswith("DOT"):
                        ratios.append(toc / reference)
                        dot_cents += toc
        return Quality(_geomean(ratios), dot_cents)


def _spec_seconds(ledger) -> float:
    if ledger is None:
        return 0.0
    return sum(seconds for key, seconds in ledger.seconds.items()
               if key.startswith("spec_exec."))


WORKLOADS = {workload.name: workload for workload in (Advise, Exact, Fleet, Sweep)}
