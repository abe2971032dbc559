"""Print a digest of every benchmark command-line output and demo, one line each.

For both workloads, seeds 1-3 and rounds 0-1, each ``cli`` operation of
``bench/workloads.build(workload, seed)`` runs through ``ummtest.cli.main``
in this process, as the benchmark's timed process runs it, and one line

    <workload>:<seed>:<round>:<op id> <exit code> <sha256 of stdout>

is printed.  The benchmark writes CSV only; so that the JSON writer is
covered too, each operation runs a second time with ``--format json`` and
prints a second line, its id ending in ``:json``.  Then each script in
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
ROUNDS = (0, 1)


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads
    from ummtest import cli

    for w in workloads.WORKLOADS:
        for seed in SEEDS:
            ops = [op for op in workloads.build(w, seed)["ops"] if op["kind"] == "cli"]
            for r in ROUNDS:
                for op in ops:
                    for suffix, extra in (("", []), (":json", ["--format", "json"])):
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(io.StringIO()):
                            rc = cli.main(workloads.round_argv(op, r) + extra)
                        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                        print(f"{w}:{seed}:{r}:{op['id']}{suffix} {rc} {digest}", flush=True)

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
