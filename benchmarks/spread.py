"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 benchmarks/spread.py --workload barrier-scan --seeds 1-10

Runs ``run.py`` once per seed, one run at a time and for ``run_seconds`` of
``BENCHMARK.json``, and prints for every end-to-end metric (and the raw
times behind them) its median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import spread

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)

    values = {}
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        report, result = run_once(args.workload, seed)
        print(f"seed {seed} ({time.perf_counter() - start:.1f} s): correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        for k in ("wall_s", "reference_s", "import_linpot_s", "setup_no_import_s"):
            values.setdefault(f"raw {k}", []).append(report[k]["median"])

    for k, vs in values.items():
        row = spread(vs)
        print(f"{k:25s} median {row['median']:.6g}  IQR/median "
              f"{(row['q3'] - row['q1']) / row['median']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
