"""Print a digest of every benchmark command-line output and demo, one line each.

For both workloads, seeds 1-3 and rounds 0-1, each ``cli`` operation of
``bench/workloads.build(workload, seed)`` runs through ``ummtest.cli.main``
in this process, as the benchmark's timed process runs it, and one line

    <workload>:<seed>:<round>:<op id> <exit code> <sha256 of stdout>

is printed.  The benchmark writes CSV only; so that the JSON writer is
covered too, each operation runs a second time with ``--format json`` and
prints a second line, its id ending in ``:json``.

Some layers reach a table only through a comparison with a level (a
p-value or a statistic against its threshold), so a last-bit change in
them almost never shows in the outputs.  During
each operation's CSV run, the raw result bytes of five such layers are
therefore hashed, call by call:

    specfun._chisq_tail_pdf_vec             tail and pdf arrays
    lan_models._binom_cdf_rows              binomial CDF rows, which feed
                                            the draws and the disk sections
    lan_models._binom_quantile              binomial draws
    lan_models._DiscreteDiskKernel._miss_given
                                            exact miss probabilities
    nlp_detect._QuadKernel.values           error indicators of a block

and an operation that called any of them prints one more line, its id
ending in ``:bits``, with the SHA-256 of its calls' digests in call order.
An operation that calls them from worker threads (``--workers`` above 1)
has no fixed call order; its digests are sorted first.  Each wrapped function
is restored after the run.  Then each script in
``demos/`` runs in a fresh interpreter, with this checkout's ``src/`` first
on the path, and prints

    demo:<file> <exit code> <sha256 of stdout>

A change that must keep the program's outputs byte-identical shows it by a
``diff`` of this script's output in two checkouts:

    python tools/output_hashes.py > new.txt   # in each checkout
    diff old.txt new.txt

An older checkout may hold an older copy of the script: copy this one into
its ``tools/`` first, as the CI workflow does for a pull request's base.

The script reads ``bench/``, ``demos/`` and ``src/`` of the checkout it sits
in and writes nothing there.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
ROUNDS = (0, 1)


@contextlib.contextmanager
def _layer_bits():
    """Wrap the layers of the module docstring while the block runs; yields
    a list that receives (off the main thread?, digest of the result) per
    call."""
    from ummtest import lan_models, nlp_detect, specfun

    layers = [(specfun, "_chisq_tail_pdf_vec"), (lan_models, "_binom_cdf_rows"),
              (lan_models, "_binom_quantile"), (lan_models._DiscreteDiskKernel, "_miss_given"),
              (nlp_detect._QuadKernel, "values")]
    calls = []

    def hashed(f):
        def wrapper(*args, **kwargs):
            r = f(*args, **kwargs)
            h = hashlib.sha256()
            for a in r if isinstance(r, tuple) else (r,):
                h.update(a.tobytes())
            calls.append((threading.current_thread() is not threading.main_thread(),
                          h.digest()))
            return r
        return wrapper

    saved = [(owner, name, vars(owner)[name]) for owner, name in layers]
    try:
        for owner, name, f in saved:
            setattr(owner, name, hashed(f))
        yield calls
    finally:
        for owner, name, f in saved:
            setattr(owner, name, f)


def _bits_digest(calls):
    digests = [d for _, d in calls]
    if any(threaded for threaded, _ in calls):
        digests.sort()
    return hashlib.sha256(b"".join(digests)).hexdigest()


def _run(cli, argv):
    """'<exit code> <sha256 of stdout>' of one ``cli.main`` run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return f"{rc} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads
    from ummtest import cli

    for w in workloads.WORKLOADS:
        for seed in SEEDS:
            ops = [op for op in workloads.build(w, seed)["ops"] if op["kind"] == "cli"]
            for r in ROUNDS:
                for op in ops:
                    tag = f"{w}:{seed}:{r}:{op['id']}"
                    argv = workloads.round_argv(op, r)
                    with _layer_bits() as calls:
                        print(f"{tag} {_run(cli, argv)}", flush=True)
                    if calls:
                        print(f"{tag}:bits {_bits_digest(calls)}", flush=True)
                    print(f"{tag}:json {_run(cli, argv + ['--format', 'json'])}", flush=True)

    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    demos = os.path.join(ROOT, "demos")
    for name in sorted(f for f in os.listdir(demos) if f.endswith(".py")):
        run = subprocess.run([sys.executable, os.path.join(demos, name)],
                             env=dict(os.environ, PYTHONPATH=path),
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        print(f"demo:{name} {run.returncode} {hashlib.sha256(run.stdout).hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
