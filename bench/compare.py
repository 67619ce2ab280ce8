"""``bench compare A.json B.json``: each metric judged by its own bound.

A and B are ``e2e.json`` files written by ``bench run``. For every
(metric, workload) row in both, B against baseline A is

* ``regressed`` when B's median is worse than A's by more than the
  metric's bound;
* ``unresolved`` when either side's run-to-run spread (distance
  between its quartiles over its median) is wider than the bound — the
  runs cannot tell — unless every run of B reads better than every
  run of A;
* ``ok`` otherwise.

``setup_s`` is never ``unresolved``: it is a median of set-ups inside
each run already, and the contract bounds only its median.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_rows(path: str) -> dict[tuple[str, str], dict]:
    rows = json.loads(Path(path).read_text(encoding="utf-8"))
    return {(row["workload"], row["metric"]): row for row in rows}


def spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / abs(row["median"])


def verdict(base: dict, new: dict) -> tuple[str, float]:
    """``(verdict, change)``; change > 0 means *new* is worse."""
    sign = 1.0 if base["better"] == "lower" else -1.0
    change = sign * (new["median"] - base["median"]) / abs(base["median"])
    bound = base["bound"]
    noisy = max(spread(base), spread(new)) > bound
    if noisy and base["metric"] != "setup_s":
        best_base = min(sign * value for value in base["values"])
        worst_new = max(sign * value for value in new["values"])
        if worst_new >= best_base:
            return "unresolved", change
    return ("regressed" if change > bound else "ok"), change


def compare_files(baseline: str, candidate: str) -> int:
    base_rows, new_rows = load_rows(baseline), load_rows(candidate)
    shared = [key for key in base_rows if key in new_rows]
    if not shared:
        print("bench compare: the files share no rows", file=sys.stderr)
        return 2
    bad = 0
    for key in shared:
        base, new = base_rows[key], new_rows[key]
        result, change = verdict(base, new)
        bad += result != "ok"
        print(
            f"{result:10s} {key[0]:16s} {key[1]:18s}"
            f" {base['median']:>11.5g} -> {new['median']:>11.5g}"
            f" {base['unit']:6s} worse by {change:+7.2%}"
            f" (bound {base['bound']:.1%}, spread"
            f" {spread(base):.1%} / {spread(new):.1%})"
        )
    for key in base_rows.keys() ^ new_rows.keys():
        print(f"{'missing':10s} {key[0]:16s} {key[1]:18s} in one file only")
    return 1 if bad else 0
