"""Compare two sets of results written by `run.py --out`.

For each end-to-end metric and workload it prints both sides' medians and
quartiles and a verdict, following the choosing-metrics rules:

- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
- better: the change wins at least nine tenths of the pairs (runs paired
  by seed, ties counting for neither) and the medians differ by more than
  the base's own quartile spread;
- unresolved: neither, and the base's spread is wider than the bound,
  unless every change run beats every base run;
- same: otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

import stats


def load(path) -> dict:
    """{workload: {metric: {seed: value}}} from the untraced runs."""
    out: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, metric in record["result"]["metrics"].items():
                out.setdefault(record["workload"], {}).setdefault(name, {})[record["seed"]] = metric["value"]
    return out


def verdict(base: dict, change: dict, higher_is_better: bool, bound: float) -> tuple[str, int, int]:
    sign = 1.0 if higher_is_better else -1.0
    seeds = sorted(set(base) & set(change))
    pairs = [(base[s], change[s]) for s in seeds] or list(zip(base.values(), change.values()))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    b_values, c_values = list(base.values()), list(change.values())
    q1, b_med, q3 = stats.quartiles(b_values)
    c_med = stats.median(c_values)
    scale = abs(b_med) or 1.0
    if sign * (b_med - c_med) > bound * scale:
        return "worse", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - b_med) > q3 - q1:
        return "better", wins, len(pairs)
    all_better = min(sign * c for c in c_values) > max(sign * b for b in b_values)
    if (q3 - q1) > bound * scale and not all_better:
        return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def main(benchmark_json: Path, base_path: str, change_path: str) -> int:
    spec = json.loads(Path(benchmark_json).read_text())
    base, change = load(base_path), load(change_path)
    header = f"{'workload':<11} {'metric':<12} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} {'delta':>8} {'wins':>7}  verdict"
    print(header)
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = base[workload].get(name), change[workload].get(name)
            if not b or not c:
                continue
            label, wins, n = verdict(b, c, metric["better"] == "higher", metric["bound"])
            bq, cq = stats.quartiles(list(b.values())), stats.quartiles(list(c.values()))
            delta = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
            print(
                f"{workload:<11} {name:<12} {_fmt(bq):>34} {_fmt(cq):>34} {delta:>+8.1%} {wins:>3}/{n:<3}  {label}"
            )
    return 0


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
