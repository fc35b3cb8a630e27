"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload advise --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics instead, from units that alternate
between untraced and traced so the tracing overhead is measured too.  The
last line of standard output is the result object; the lines before it give
the machine fingerprint and, for a traced run, every per-layer value with
its repeatability label.  ``--tiny`` shrinks the exact and fleet workloads
for the smoke test (``perfbench/smoke.py``).  The benchmark builds nothing: it imports the
package from ``src/`` and writes only under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups timed and discarded before the first unit, so that runs of only
#: two units still report a median of several set-ups.
SETUP_REPEATS = 5


# ---------------------------------------------------------------------------
# Machine fingerprint
# ---------------------------------------------------------------------------

def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _has_module(name: str) -> bool:
    import importlib.util

    return importlib.util.find_spec(name) is not None


def fingerprint(seed: int, nproc: int) -> dict:
    import numpy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": _has_module("numba"),
        "scipy": _has_module("scipy"),
        "git_rev": _git_revision(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Peak memory of the process tree
# ---------------------------------------------------------------------------

def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _descendants(pid: int):
    stack, seen = [pid], []
    while stack:
        parent = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    children = [int(child) for child in handle.read().split()]
            except OSError:
                continue
            seen.extend(children)
            stack.extend(children)
    return seen


class PeakMemory:
    """Largest sum of peak RSS (``VmHWM``) over this process and its live children.

    Polled from a thread, so a worker that lives shorter than one interval
    can be missed; pool workers of a search live for the whole search.
    """

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _sample(self) -> None:
        pid = os.getpid()
        total = _status_kb(pid, "VmHWM:") + sum(
            _status_kb(child, "VmHWM:") for child in _descendants(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _poll(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def megabytes(self) -> float:
        return self.peak_kb / 1024.0


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: with two values, p50 is the smaller one, so
    one operation slowed by the host does not move a run's median."""
    ordered = sorted(values)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def measure(workload, seconds: float, trace: bool):
    """Run whole units until the next one would end further past ``seconds``
    than this one ends before it.  Every unit gets its own timed set-up, so
    set-up is sampled across the run; ``SETUP_REPEATS`` more are timed first.
    Traced runs alternate untraced and traced units (at least one of each)."""
    from perfbench import layers

    def timed_setup():
        started = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - started)
        return state

    setups = []
    for _ in range(SETUP_REPEATS):
        workload.discard(timed_setup())

    ledger = layers.Ledger() if trace else None
    units, walls = [], {False: [], True: []}
    started = time.perf_counter()
    while True:
        state = timed_setup()
        traced = trace and len(units) % 2 == 1
        unit_started = time.perf_counter()
        if traced:
            with layers.Tracing(ledger):
                unit = workload.run_unit(state, ledger)
        else:
            unit = workload.run_unit(state, None)
        walls[traced].append(time.perf_counter() - unit_started)
        units.append(unit)
        elapsed = time.perf_counter() - started
        enough = len(units) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(units) / 2 >= seconds:
            break
    return setups, units, walls, ledger


def end_to_end(workload, setups, units, quality, peak_mb):
    latencies = [latency for unit in units for latency in unit.latencies]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "latency_p50_s": (percentile(latencies, 0.5), "s"),
        "latency_tail_s": (percentile(latencies, workload.tail), "s"),
        # The upper median: with two units, the faster one, as for latency.
        "throughput_per_s": (
            statistics.median_high(unit.items / unit.busy_s for unit in units), "1/s"),
        "toc_ratio": (quality.toc_ratio, "ratio"),
        "cost_cents": (quality.cost_cents, "cents"),
    }


def per_layer(ledger, walls):
    from perfbench import layers

    ledger.counts["tracing_overhead_s"] = (
        statistics.fmean(walls[True]) - statistics.fmean(walls[False]))
    return layers.layer_metrics(ledger, len(walls[True]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the exact and fleet workloads (smoke test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Keep temporary files, and git's search for a repository, inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    import tempfile

    tempfile.tempdir = str(workdir)
    nproc = len(os.sched_getaffinity(0))
    try:
        print("fingerprint " + json.dumps(fingerprint(args.seed, nproc), sort_keys=True))
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir, nproc)
        with PeakMemory() as memory:
            setups, units, walls, ledger = measure(workload, args.seconds, bool(args.trace))
            quality = workload.finish()
    finally:
        # The search's shared-memory tables start multiprocessing's resource
        # tracker; stop it and wait for it, so no process outlives the run.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    problems = [problem for unit in units for problem in unit.problems] + quality.problems
    failed = sum(unit.failed for unit in units) + quality.failed
    for problem in problems:
        print(f"problem: {problem}")
    if args.trace:
        metrics = per_layer(ledger, walls)
        labels = {metric.name: metric.repeat for metric in layers.CATALOG}
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value!r} {unit} [{labels[name]}]")
    else:
        metrics = end_to_end(workload, setups, units, quality, memory.megabytes)
        print(f"samples: {sum(len(unit.latencies) for unit in units)} operations "
              f"in {len(units)} units")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(unit.attempted for unit in units),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
