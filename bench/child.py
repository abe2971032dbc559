"""The timed process of one benchmark run.

Reads a job as one JSON line on stdin and prints its result as JSON on
stdout.  It
imports numpy and ummtest and nothing heavier: no scipy, which would add to
set-up time and resident memory.

Modes:
  setup   import ummtest, run the small warm-up operation once, report the time
  run     as setup, then whole rounds of the workload until the rounds have
          taken ``seconds``; with ``trace`` every other round runs traced.
          Without ``trace``, after each round but the last it prints
          ``pause <seconds of rounds so far>`` and waits for a line on stdin,
          so that the parent can time a set-up process while this one idles
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_ummtest():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import ummtest
    from ummtest import cli, specfun

    if not os.path.abspath(ummtest.__file__).startswith(src + os.sep):
        raise SystemExit(f"ummtest imported from {ummtest.__file__}, not from {src}")
    return cli, specfun


def run_op(op, r, cli, specfun):
    """Run one operation as in round ``r``; its output as text, or an error."""
    try:
        if op["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(workloads.round_argv(op, r))
            if rc != 0:
                return f"error: exit code {rc}: {err.getvalue().strip()}"
            return out.getvalue()
        return repr(float(getattr(specfun, op["fn"])(*op["args"])))
    except Exception:  # an operation that raises counts as failed, the run goes on
        return "error: " + traceback.format_exc(limit=3).strip().splitlines()[-1]


def calibrate():
    """Wall time of a fixed numpy loop, a reference figure for machine speed."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 200_000)
    t = time.perf_counter()
    for i in range(20):
        np.sort(np.sin(a * (i + 1)))
    return time.perf_counter() - t


def main():
    job = json.loads(sys.stdin.readline())
    cli, specfun = _import_ummtest()
    ops = job["ops"]
    run_op(job["warmup"], 0, cli, specfun)
    setup_s = time.perf_counter() - _T0
    if job["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    import numpy as np

    calib_s = calibrate()
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
    outputs = [{} for _ in ops]  # per op: output text -> rounds that gave it
    round_s, traced = [], []
    while True:
        r = len(round_s)
        on = tracer is not None and r % 2 == 1
        if on:
            tracer.install()
        t = time.perf_counter()
        texts = [run_op(op, r, cli, specfun) for op in ops]
        round_s.append(time.perf_counter() - t)
        if on:
            tracer.uninstall()
        traced.append(on)
        for seen, text in zip(outputs, texts):
            seen.setdefault(text, []).append(r)
        if sum(round_s) >= job["seconds"] and len(round_s) >= 2:
            break
        if not job["trace"]:
            print(f"pause {sum(round_s)}", flush=True)
            sys.stdin.readline()

    result = {
        "setup_s": setup_s,
        "calib_s": calib_s,
        "round_s": round_s,
        "traced": traced,
        "outputs": [list(seen.items()) for seen in outputs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }
    if job["same_bytes"]:
        op = next(op for op in ops if op["id"] == job["same_bytes"])
        argv = workloads.round_argv(op, 0)
        i = argv.index("--workers")
        one = {"kind": "cli", "argv": argv[:i] + argv[i + 2:]}
        result["same_bytes"] = run_op(one, 0, cli, specfun)
    if tracer is not None:
        trial_rows = sum(op["trials"] * op["points"] for op in ops)
        result["layers"] = tracing.layer_metrics(tracer, sum(traced), trial_rows)
        result["absent"] = tracer.absent
        tracer.write(job["trace_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
