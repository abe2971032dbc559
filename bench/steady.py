"""Run each workload ten times and print every end-to-end metric's spread.

    python3 bench/steady.py --first-seed 100
    python3 bench/steady.py --compare .bench_out/steady-100.json .bench_out/steady-200.json

Each run is ``bench/run.py`` for ``run_seconds`` with its own seed; the
runs go round-robin over every workload in BENCHMARK.json, so that a slow
stretch of the machine falls on all of them.  For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the metric's bound from BENCHMARK.json, and writes the values to
``.bench_out/steady-<first seed>.json``.  ``--compare`` prints, for two such
files, how far each median moved in the worse direction, as a share of the
first median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def collect(workloads, first_seed, seconds):
    values = {w: {} for w in workloads}
    failed_share = {w: [] for w in workloads}
    for seed in range(first_seed, first_seed + RUNS):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {seed} failed:\n{proc.stderr}")
            res = json.loads(proc.stdout.splitlines()[-1])
            if not res["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect output\n{proc.stderr}")
            failed_share[w].append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()), flush=True)
    return {"values": values, "failed_share": failed_share}


def report(data, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':16} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w, metrics in data["values"].items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{w:16} {name:12} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / med:7.3f} {bounds[name]:6.2f}")
        shares = sorted(set(data["failed_share"][w]))
        print(f"{w:16} failed share over {len(data['failed_share'][w])} runs: {shares}")


def compare(a, b, bench):
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w, metrics in a["values"].items():
        for name, vals in metrics.items():
            m1 = statistics.median(vals)
            m2 = statistics.median(b["values"][w][name])
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            print(f"{w:16} {name:12} {m1:12.6g} {m2:12.6g} worse by {worse:+.3f} "
                  f"(bound {bounds[name]:.2f})")
        same = a["failed_share"][w][0] == b["failed_share"][w][0]
        print(f"{w:16} failed share equal: {same}")


def main():
    bench = _bench()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--compare", nargs=2, metavar="STEADY_JSON")
    args = ap.parse_args()
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path) as fh:
                loaded.append(json.load(fh))
        compare(*loaded, bench)
        return
    data = collect([w["name"] for w in bench["workloads"]], args.first_seed,
                   bench["run_seconds"])
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"steady-{args.first_seed}.json"), "w") as fh:
        json.dump(data, fh, indent=1)
    report(data, bench)


if __name__ == "__main__":
    main()
