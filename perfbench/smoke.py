"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload of ``BENCHMARK.json`` at a tiny size, untraced once and
traced twice with the same seed, and fails (exit code 1) unless

* every run is correct with no failed operation;
* the metric names and units printed are exactly those ``BENCHMARK.json``
  declares (end-to-end when untraced, per-layer when traced), and the
  per-layer entries match the catalog in ``perfbench/layers.py``;
* every per-layer value labelled ``exact`` repeats between the two traced
  runs;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402


def _run(cwd: Path, workload: str, trace: int, seed: int = 7):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(completed, label: str, errors: list):
    if completed.returncode != 0:
        errors.append(f"{label}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
        return None
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}\n{completed.stdout[-2000:]}")
    return result


def _check_names(result, declared, label: str, errors: list) -> None:
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    expected = {entry["name"]: entry["unit"] for entry in declared}
    if printed != expected:
        units = sorted(n for n in printed if n in expected and printed[n] != expected[n])
        errors.append(f"{label}: printed metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(printed))}, "
                      f"extra {sorted(set(printed) - set(expected))}, units {units}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []

    catalog = {metric.name: (metric.unit, metric.better) for metric in layers.CATALOG}
    declared = {entry["name"]: (entry["unit"], entry["better"]) for entry in spec["per_layer"]}
    if catalog != declared:
        errors.append("BENCHMARK.json per_layer does not match perfbench/layers.py")
    exact = {metric.name for metric in layers.CATALOG if metric.repeat == "exact"}

    for workload in (entry["name"] for entry in spec["workloads"]):
        untraced = _result(_run(ROOT, workload, 0), f"{workload} untraced", errors)
        if untraced is not None:
            _check_names(untraced, spec["end_to_end"], f"{workload} untraced", errors)
        first = _result(_run(ROOT, workload, 1), f"{workload} traced", errors)
        second = _result(_run(ROOT, workload, 1), f"{workload} traced again", errors)
        if first is None or second is None:
            continue
        _check_names(first, spec["per_layer"], f"{workload} traced", errors)
        for name in sorted(exact):
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                errors.append(f"{workload}: {name} is labelled exact but read {a} then {b}")
        print(f"{workload}: ok", flush=True)

    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        completed = _run(bare, name, 0)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode == 0 or (lines and lines[-1].startswith("{")):
            errors.append("without the program the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for error in errors:
        print(f"FAIL {error}")
    print("smoke: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
