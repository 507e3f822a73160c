"""Compare two result files of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

Prints one row per workload and end-to-end metric: each side's median
with its quartiles, the change of the median, and the metric's bound from
``BENCHMARK.json``.  The verdict of a row is

* ``better``      when every run of CHANGE beats every run of BASE;
* ``unresolved``  otherwise, when either side's quartile spread
  ``(q3 - q1) / median`` exceeds the bound;
* ``REGRESSION``  when CHANGE's median is worse than BASE's by more than
  the bound;
* ``ok``          otherwise.

When both files measured the same seed, every deterministic per-layer
count (calls, units, grants, waves, completed tasks, Markov solves) must
also match exactly.  Exits 1 on a regression or a count mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import harness

COUNT_SUFFIXES = (".calls", "_calls", ".units", ".grants", ".waves")
COUNT_NAMES = ("sim.tasks_completed", "markov.solves")


def is_deterministic_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES


def verdict(base: dict, change: dict, bound: float, lower_is_better: bool
            ) -> Tuple[str, float]:
    """A row's verdict and the relative change of the median."""
    sign = 1.0 if lower_is_better else -1.0
    delta = (change["median"] - base["median"]) / base["median"]
    if lower_is_better:
        all_better = max(change["samples"]) < min(base["samples"])
    else:
        all_better = min(change["samples"]) > max(base["samples"])
    if all_better:
        return "better", delta
    spreads = [(side["q3"] - side["q1"]) / side["median"]
               for side in (base, change)]
    if max(spreads) > bound:
        return "unresolved", delta
    if sign * delta > bound:
        return "REGRESSION", delta
    return "ok", delta


def compare(base: dict, change: dict, benchmark: dict) -> Tuple[List[str], bool]:
    """Report lines and whether the change passes."""
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    lines = [f"{'workload':<12} {'metric':<12} {'base median [q1, q3]':>32} "
             f"{'change median [q1, q3]':>32} {'delta':>8} {'bound':>6}  "
             f"verdict"]
    passed = True
    for workload in base["workloads"]:
        if workload not in change["workloads"]:
            continue
        old = base["workloads"][workload]
        new = change["workloads"][workload]
        for name, stats in old["e2e"].items():
            if name not in metrics or name not in new["e2e"]:
                continue
            metric = metrics[name]
            result, delta = verdict(stats, new["e2e"][name], metric["bound"],
                                    metric["better"] == "lower")
            passed = passed and result != "REGRESSION"
            lines.append(
                f"{workload:<12} {name:<12} "
                f"{_cell(stats):>32} {_cell(new['e2e'][name]):>32} "
                f"{delta:>+8.2%} {metric['bound']:>6.0%}  {result}")
    if base.get("seed") != change.get("seed"):
        lines.append("deterministic counts not compared: the seeds differ")
        return lines, passed
    mismatches = 0
    for workload in base["workloads"]:
        old_layers = base["workloads"][workload].get("layers") or {}
        new_layers = (change["workloads"].get(workload) or {}).get(
            "layers") or {}
        for name in sorted(old_layers):
            if not is_deterministic_count(name) or name not in new_layers:
                continue
            if old_layers[name] != new_layers[name]:
                mismatches += 1
                lines.append(f"COUNT MISMATCH {workload} {name}: "
                             f"{old_layers[name]} != {new_layers[name]}")
    lines.append(f"deterministic counts: {mismatches} mismatch(es)")
    return lines, passed and mismatches == 0


def _cell(stats: dict) -> str:
    return f"{stats['median']:.4f} [{stats['q1']:.4f}, {stats['q3']:.4f}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base, change = (json.loads(path.read_text(encoding="utf-8"))
                    for path in (args.base, args.change))
    lines, passed = compare(base, change, harness.load_benchmark())
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
