#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how much each
end-to-end metric spreads, next to the bound BENCHMARK.json gives it.

Run it from the root of a checkout:

    python3 perfbench/spread.py --runs 10 --first-seed 1
    python3 perfbench/spread.py --runs 5 --workload service-replay
    python3 perfbench/spread.py --repeat-seed 7

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) as a share of their
median. "ok" marks a spread below a third of the bound, "wide" one
within the bound, "OVER" one beyond it (setup_s is exempt from the
spread check but not from the comparison of medians). With --compare,
the medians are checked against an earlier summary: a median worse by
more than the bound is "WORSE".

--repeat-seed runs every workload twice with --trace 1 at one seed and
checks that every count of work done (netsim.*, probe.*,
topology.builds, measure.journal_bytes) repeats exactly.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = ["bash", "perfbench/bench.sh"]


def run(workload, seed, seconds, trace):
    t = time.time()
    p = subprocess.run(BENCH + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                                "--trace", str(trace)], capture_output=True, text=True)
    lines = p.stdout.strip().split("\n")
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    res, info = json.loads(lines[-1]), json.loads(lines[-2])
    print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} process {time.time() - t:.1f}s", flush=True)
    return res, info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--out", help="write the values and summary here as JSON")
    ap.add_argument("--compare", help="an earlier --out file to compare medians with")
    ap.add_argument("--repeat-seed", type=int, help="check that count metrics repeat at this seed")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    if args.repeat_seed is not None:
        # The counts of work done, and ratios of them; timings and
        # timing-dependent ratios (GC share, cache and affinity hits) are
        # left out.
        counts = [m["name"] for m in bench["per_layer"]
                  if m["name"].startswith(("netsim.", "probe.")) and m["unit"] != "ns"
                  or m["name"] in ("topology.builds", "measure.journal_bytes")]
        bad = 0
        for wl in workloads:
            a, b = (run(wl, args.repeat_seed, seconds, 1)[0]["metrics"] for _ in range(2))
            for k in counts:
                same = a[k]["value"] == b[k]["value"]
                bad += not same
                print(f"  {k:32s} {a[k]['value']!r:>22} {b[k]['value']!r:>22} {'same' if same else 'DIFFERS'}")
        sys.exit(1 if bad else 0)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.load(open(args.compare))["summary"] if args.compare else {}
    values, summary, failed = {}, {}, False
    for wl in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, info = run(wl, seed, seconds, 0)
            failed |= not res["correct"] or res["failed"] > 0
            for k, m in res["metrics"].items():
                values.setdefault(wl, {}).setdefault(k, []).append(m["value"])
    for wl in workloads:
        print(wl)
        for k in bounds:
            xs = values[wl][k]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bounds[k] / 3 else "wide" if spread <= bounds[k] else "OVER"
            if k == "setup_s":
                verdict = "exempt"
            line = f"  {k:12s} median {med:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:.3f} bound {bounds[k]:.2f} {verdict}"
            if wl in earlier:
                prev = earlier[wl][k]["median"]
                worse = (med - prev) / prev if better[k] == "lower" else (prev - med) / prev
                line += f"  vs earlier {prev:.4f}: {worse:+.3f} {'WORSE' if worse > bounds[k] else 'ok'}"
            print(line, flush=True)
            summary.setdefault(wl, {})[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        json.dump({"values": values, "summary": summary}, open(args.out, "w"), indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
