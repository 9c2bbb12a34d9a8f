"""Record a baseline: run.py over several seeds per workload, plus traced runs.

Run from the repository root:

    python3 bench/record.py --seeds 1-10 --seconds 25 --repeat --out bench/baseline.json

For every workload it runs ``run.py --trace 0`` once per seed and stores each
end-to-end metric's median, quartiles and spread (interquartile distance over
the median), then runs ``run.py --trace 1`` twice on the first seed and
checks that the flow counts repeat exactly.  With ``--repeat`` it then runs
the untraced set again and stores each median's shift.  Runs go one after
another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cases import WORKLOADS  # noqa: E402


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(name, seeds, seconds, record):
    """One untraced run per seed; returns the runs and each metric's summary."""
    runs = []
    for seed in seeds:
        info, result = run(name, seed, seconds, 0)
        record.setdefault("env", info["env"])
        details = info["details"]
        runs.append({
            "seed": seed,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "measured": details["measured"],
            "speed_vs_reference": details["speed_vs_reference"],
            "tail_percentile": details["tail_percentile"],
            "failed_kinds": sorted({f["kind"] for f in details["failed_cases"]}),
            "failed_cases": [f["index"] for f in details["failed_cases"]],
        })
        print(name, seed, result["correct"], runs[-1]["metrics"], flush=True)
    summary = {k: summarize([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
    return {"end_to_end": summary, "runs": runs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--repeat", action="store_true", help="run the untraced set a second time")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")

    record = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        entry = record["workloads"][name] = run_set(name, seeds, args.seconds, record)
        traced = [run(name, seeds[0], args.seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for _, r in traced]
        info, result = traced[0]
        entry["traced"] = {
            "seed": seeds[0],
            "correct": result["correct"],
            "counts_repeat": counts[0] == counts[1],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            "overhead_frac_runs": [r["metrics"]["trace.overhead_frac"]["value"] for _, r in traced],
            "details": info["details"],
        }
        print(name, "counts repeat:", counts[0] == counts[1], flush=True)
    if args.repeat:
        # the same runs again: spreads, the shift of each median, and whether
        # every seed attempted and failed the same cases
        repeat = record["repeat_set"] = {}
        for name in names:
            first = record["workloads"][name]
            again = repeat[name] = run_set(name, seeds, args.seconds, {})
            medians = {k: v["median"] for k, v in first["end_to_end"].items()}
            again["median_shift"] = {k: v["median"] / medians[k] - 1.0 for k, v in again["end_to_end"].items()}
            again["counts_repeat"] = all(
                (a["attempted"], a["failed_cases"]) == (b["attempted"], b["failed_cases"])
                for a, b in zip(first["runs"], again["runs"])
            )
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
