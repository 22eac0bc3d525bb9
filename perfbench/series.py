"""Run the benchmark over several seeds and workloads and store result sets.

    python3 perfbench/series.py --out runs.jsonl [--runs 10] [--seed0 1]
        [--workloads sweep,field,selftest] [TREE ...]

Each TREE (default: the current directory) is the root of a kleinb source
tree; the benchmark code next to this file runs against every tree, with
the tree's root as working directory, so that all trees are measured by
identical benchmark code and settings: untraced runs of BENCHMARK.json's
run_seconds each.  Give ``--out`` once per tree.
With two trees the runs alternate which tree goes first, seed by seed,
and pair up by (workload, seed) in compare.py:

    python3 perfbench/series.py --out base.jsonl --out change.jsonl ../parent .
    python3 perfbench/compare.py base.jsonl change.jsonl

Each line of an output file is one run: workload, seed, the parsed result
line and the run metadata.  For traced runs use run.py directly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: A run that takes longer than this is treated as failed.
RUN_TIMEOUT_S = 600


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = next((json.loads(line[7:]) for line in lines if line.startswith("# meta ")), {})
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]), "meta": meta}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", default=["."])
    parser.add_argument("--out", action="append", required=True, help="result file, one per tree")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = parser.parse_args(argv)
    if len(args.out) != len(args.trees):
        parser.error("give --out once per tree")
    trees = [Path(t).resolve() for t in args.trees]
    files = [open(path, "a", encoding="utf-8") for path in args.out]
    try:
        for i in range(args.runs):
            seed = args.seed0 + i
            for workload in args.workloads.split(","):
                order = list(range(len(trees)))
                if i % 2:
                    order.reverse()
                for position, k in enumerate(order):
                    record = run_once(trees[k], workload, seed)
                    record["order"] = position
                    files[k].write(json.dumps(record) + "\n")
                    files[k].flush()
                    shown = {name: round(m["value"], 6) for name, m in record["result"]["metrics"].items()}
                    print(f"tree {k} {workload} seed {seed}: correct={record['result']['correct']} {shown}",
                          flush=True)
    finally:
        for fh in files:
            fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
