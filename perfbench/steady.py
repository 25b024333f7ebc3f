#!/usr/bin/env python3
"""Steadiness proof for perfbench.

Runs the benchmark once per seed on each workload, then reports, for every
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median. It also checks what every run must show: all ops
verified, the same modelled time (sim_ms_per_op) on every run of a
workload, and at least ten ops beyond op_p90_ms.

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/results/proof.json
    python3 perfbench/steady.py --workloads serve-small --seeds 1-5

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


# Figures every run prints but keeps out of the JSON line, because their
# spread on a shared machine is too wide to gate on; their spread is still
# reported.
PRINTED_ONLY = ("setup_wall_s", "ops_per_s", "op_p50_ms", "op_p90_ms")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        fields = line.split()
        if fields and fields[0] == "run":
            info.update(kv.split("=", 1) for kv in fields[1:])
        elif len(fields) >= 3 and fields[0] == "sim_ms_per_op":
            info["sim_ms_per_op"] = fields[1]
        elif len(fields) >= 3 and fields[0] in PRINTED_ONLY:
            info[fields[0]] = float(fields[1])
    return result, info


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.load(open(args.bench))
    cmd = spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for wl in names:
        runs = []
        for seed in seeds:
            result, info = run_once(cmd, wl, seed, spec["run_seconds"], 0)
            runs.append((result, info))
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            med, sp = spread(values)
            rows[name] = {"median": med, "spread": sp, "bound": bound, "values": values}
            flag = "" if sp < bound / 3 or name == "setup_s" else "  <-- above bound/3"
            print(f"  {name:18s} median {med:12.5g}  spread {sp:7.4f}  bound {bound}{flag}")
        for name in PRINTED_ONLY:
            values = [info[name] for _, info in runs]
            med, sp = spread(values)
            rows[name] = {"median": med, "spread": sp, "bound": None, "values": values}
            print(f"  {name:18s} median {med:12.5g}  spread {sp:7.4f}  (printed only)")
        sims = {info.get("sim_ms_per_op") for _, info in runs}
        failed = sum(r["failed"] for r, _ in runs)
        correct = all(r["correct"] for r, _ in runs)
        beyond = min(int(info.get("ops_beyond_p90", 0)) for _, info in runs)
        steal = [float(info.get("steal_share", 0)) for _, info in runs]
        print(f"  correct={correct} failed={failed} sim_ms_per_op={sorted(sims)} "
              f"min_ops_beyond_p90={beyond} steal={min(steal):.3f}..{max(steal):.3f}")
        ok = ok and correct and failed == 0 and len(sims) == 1 and beyond >= 10
        report["workloads"][wl] = {"metrics": rows, "correct": correct, "failed": failed,
                                   "sim_ms_per_op": sorted(sims), "min_ops_beyond_p90": beyond,
                                   "steal_share": steal}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
