"""Compare two benchmark result sets, or show the spread of one.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Result sets are written by series.py.  With one set, each workload and
end-to-end metric gets its median, quartiles and spread (quartile
distance over median) against the metric's bound from BENCHMARK.json.
With two sets, runs pair up by (workload, seed), and each workload and
metric gets both sides' median and quartiles, the number of pairs the
change wins (ties count for neither) and one verdict:

    improved    the change wins at least 9/10 of the pairs and its median
                is better by more than the base's quartile distance
    unresolved  not improved, and the spread of either side is wider than
                the bound, unless every change run beats every base run
    worse       the change's median is worse than the base's by more
                than the bound
    no worse    otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WIN_SHARE = 0.9


def load(path: str) -> dict[tuple[str, str], dict[int, float]]:
    """{(workload, metric): {seed: value}} of the runs in a result file."""
    out: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                out[(rec["workload"], name)][rec["seed"]] = m["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    q1, mb, q3 = quartiles(base)
    gain = sign * (statistics.median(change) - mb)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved", wins
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(mb):
        return "worse", wins
    return "no worse", wins


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"]
    if len(sets) == 1:
        print(f"{'workload':9s} {'metric':12s} {'n':>3s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s}  status")
        for w in workloads:
            for m in metrics:
                values = list(sets[0].get((w, m["name"]), {}).values())
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                s = spread(values)
                status = "steady" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
                print(f"{w:9s} {m['name']:12s} {len(values):3d} {fmt(med):>10s} {fmt(q1):>10s} "
                      f"{fmt(q3):>10s} {s:7.2%} {m['bound']:6.0%}  {status}")
        return 0
    print(f"{'workload':9s} {'metric':12s} {'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'wins':>7s}  verdict")
    for w in workloads:
        for m in metrics:
            base, change = (s.get((w, m["name"]), {}) for s in sets)
            seeds = sorted(set(base) & set(change))
            if not seeds:
                continue
            b_vals, c_vals = list(base.values()), list(change.values())
            pairs = [(base[s], change[s]) for s in seeds]
            v, wins = verdict(b_vals, c_vals, pairs, m["better"], m["bound"])
            bq, cq = quartiles(b_vals), quartiles(c_vals)
            b_txt = f"{fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}]"
            c_txt = f"{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]"
            print(f"{w:9s} {m['name']:12s} {b_txt:>32s} {c_txt:>32s} {wins:3d}/{len(pairs):<3d}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
