"""One benchmark run of one ummtest workload.

    python3 bench/run.py --workload energy-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The run starts one timed process, which runs whole
rounds of the workload until they have taken ``--seconds`` seconds, and
about ``SETUP_SAMPLES`` short processes that each time their set-up.  The
short ones run one at a time while the timed process pauses between rounds,
spread evenly over the run, so that set-up time is sampled over the same
stretch of the machine as the rounds.  This process never imports
ummtest: it builds the inputs, checks every output against scipy
references, and prints one JSON line last on stdout with the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a run whose every other
round is traced (``--trace 1``).  Metric names and units come from
BENCHMARK.json.  A record of the run, with reference figures
for the machine, goes to ``.bench_out/``.
"""

import os

# one BLAS thread, set before numpy loads here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 21
CHILD = [sys.executable, os.path.join(HERE, "child.py")]


def _child(job, timeout):
    proc = subprocess.run(CHILD, input=json.dumps(job) + "\n", capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _timed_run(job, timeout, at_pause):
    """Result of the timed process; ``at_pause(seconds of rounds so far)`` runs
    at each of its pauses between rounds.  Its stderr passes through."""
    proc = subprocess.Popen(CHILD, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        last = ""
        for line in proc.stdout:
            if line.startswith("pause "):
                at_pause(float(line.split()[1]))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                last = line
        proc.stdin.close()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if code != 0:
        raise SystemExit(f"bench: timed process failed ({code})")
    return json.loads(last)


def _metric_units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main():
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ummtest", "__init__.py")):
        print(f"bench: no ummtest sources under {ROOT}/src", file=sys.stderr)
        return 2

    import checks  # scipy loads here, never in the timed process

    spec = workloads.build(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {
        "ops": spec["ops"], "warmup": spec["warmup"], "same_bytes": spec["same_bytes"],
        "seconds": args.seconds, "trace": bool(args.trace),
        "trace_path": os.path.join(OUT, f"spans-{tag}.jsonl"),
    }
    # set-up samples keep pace with the rounds: by the time the rounds have
    # taken a share s of the run, about s * SETUP_SAMPLES have been made
    setups = []

    def setup_samples(done_s):
        while len(setups) < SETUP_SAMPLES * min(done_s / args.seconds, 1.0):
            setups.append(_child(dict(job, mode="setup"), 120)["setup_s"])

    # a traced run reports no set-up time, so it makes no samples
    res = _timed_run(dict(job, mode="run"), args.seconds + 120, setup_samples)
    setups.append(res["setup_s"])
    if not args.trace:
        setup_samples(args.seconds)

    ops = spec["ops"]
    rounds = len(res["round_s"])
    by_round = [{} for _ in range(rounds)]
    for op, seen in zip(ops, res["outputs"]):
        for text, rs in seen:
            for r in rs:
                by_round[r][op["id"]] = text
    problems, failed = {}, 0
    for family in sorted({op["family"] for op in ops}):
        ids = [op["id"] for op in ops if op["family"] == family]
        # rounds whose outputs in this family are identical are checked once
        groups = {}
        for r, texts in enumerate(by_round):
            groups.setdefault(tuple(texts[i] for i in ids), []).append(r)
        for outs, rs in groups.items():
            extra = {"same_bytes": res.get("same_bytes")} if 0 in rs else {}
            for op_id, p in checks.check(spec, family, dict(zip(ids, outs)), extra).items():
                if p:
                    failed += len(rs)
                    problems.setdefault(op_id, p)
    unexpected = {i: p for i, p in problems.items() if i not in workloads.KNOWN_FAULTS}

    rows = sum(op["rows"] for op in ops)
    round_s = res["round_s"]
    if args.trace:
        plain = [t for t, on in zip(round_s, res["traced"]) if not on]
        traced = [t for t, on in zip(round_s, res["traced"]) if on]
        values = dict(res["layers"])
        values["trace.slowdown"] = statistics.fmean(traced) / statistics.fmean(plain)
        kind = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setups),
            "rows_per_s": rows * rounds / sum(round_s),
            "round_s_p50": statistics.median(round_s),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        kind = "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in _metric_units(kind).items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "rounds": rounds, "round_s": round_s,
        "setup_samples": setups, "ops_per_round": len(ops), "rows_per_round": rows,
        "problems": problems,
        "absent": res.get("absent", []),
        "reference": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": res["numpy"], "calib_s": res["calib_s"],
        },
    }
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for op_id, p in problems.items():
        known = "known fault" if op_id in workloads.KNOWN_FAULTS else "FAILED"
        print(f"bench: {known}: {op_id}: {p[0]}", file=sys.stderr)
    for name in res.get("absent", []):
        print(f"bench: traced name absent: {name}", file=sys.stderr)
    print(f"bench: {rounds} rounds; nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={res['numpy']} calib_s={res['calib_s']:.4f}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
