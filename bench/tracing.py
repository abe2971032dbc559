"""Spans around the calls into each ummtest layer, for the traced run only.

The tracer replaces layer entry points with wrappers from outside the
program: module functions, names that other modules bound at import (such
as ``nlp_detect._chisq_tail_inv_vec``) and kernel methods.  Each call
records a span (name, start, end, parent, size) in memory; ``uninstall``
puts the originals back, so traced and untraced rounds can alternate in one
process.  A target that no longer exists is listed in ``absent`` and its
metrics read 0.

A span opened on a worker thread with nothing open on that thread takes as
parent the innermost span open on the main thread, which is the call that
fanned the work out.  A span's self time is its duration minus the time its
children cover, so ``run_kernel``'s self time holds its block loop and, at
two workers, its wait on the pool.
"""

import collections
import functools
import json
import threading
import time

import numpy as np

from ummtest import asymptotics, cli, lan_models, linalg, montecarlo, nlp_detect, specfun

SCALAR_SPECFUN = (
    "normal_tail", "normal_tail_inv", "chisq_tail", "chisq_tail_inv",
    "chisq_tail_inv_approx", "log_bessel_i", "log_vmf_const", "vmf_const_inv",
)


def _size_of(index):
    return lambda args, kwargs: int(np.size(args[index]))


def _targets():
    """(owner, attribute, span name, size function) for every traced entry point.

    Each one feeds a metric or sits directly under ``cli.main``,
    ``run_kernel`` or a kernel's ``values``, whose self times subtract it.
    """
    t = []
    for fn in SCALAR_SPECFUN:
        t.append((specfun, fn, "specfun.scalar." + fn, None))
    t.append((specfun, "_chisq_tail_pdf", "specfun._chisq_tail_pdf", None))
    for owner in (specfun, nlp_detect, lan_models):
        t.append((owner, "_chisq_tail_inv_vec", "specfun._chisq_tail_inv_vec", _size_of(1)))
    for owner in (specfun, nlp_detect):
        t.append((owner, "_chisq_tail_vec", "specfun._chisq_tail_vec", _size_of(1)))
    t.append((specfun, "_chisq_tail_pdf_vec", "specfun._chisq_tail_pdf_vec", _size_of(1)))
    t.append((montecarlo, "block_uniforms", "montecarlo.block_uniforms",
              lambda args, kwargs: int(args[2])))
    t.append((montecarlo, "gaussians", "montecarlo.gaussians", _size_of(0)))
    for fn in ("run_kernel", "estimate_error_probs", "roc_sweep"):
        t.append((montecarlo, fn, "montecarlo." + fn, None))
    for fn in ("lrt_curve", "glrt_curve", "umm_curve", "umm_pmd", "region_boundary"):
        t.append((nlp_detect, fn, "nlp_detect." + fn, None))
    for cls in ("_LrtKernel", "_QuadKernel", "_UmmTrainKernel", "_UmmPmdKernel"):
        t.append((getattr(nlp_detect, cls, None), "values", "nlp_detect.kernel", None))
    dm = getattr(lan_models, "DiscreteModel", None)
    t.append((dm, "draw_estimates", "lan_models.draw_estimates", None))
    t.append((dm, "counts_from_uniforms", "lan_models.draw_estimates", None))
    t.append((getattr(lan_models, "_DiscreteDiskKernel", None), "_miss_given",
              "lan_models.disk_sections", None))
    for cls in ("_AummIndicatorKernel", "_DiscreteDiskKernel"):
        t.append((getattr(lan_models, cls, None), "values", "lan_models.kernel", None))
    for fn in ("local_alternative", "training_rho", "discrete_aumm_pmd"):
        t.append((lan_models, fn, "lan_models." + fn, None))
    t.append((linalg, "sym_sqrt", "linalg.sym_sqrt", None))
    for fn in ("hardness_param", "asymptotic_curve", "allocation_hardness", "allocate"):
        t.append((asymptotics, fn, "asymptotics." + fn, None))
    t.append((cli, "main", "cli.main", None))
    return t


# counted, not timed: called thousands of times per operation
_COUNTED = ((lan_models, "_binom_cdf_row", "lan_models.binom_cdf_rows"),)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span or None, size]
        self.counts = collections.Counter()
        self.absent = []
        self._saved = []
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            rec = [name, 0.0, 0.0, parent, size(args, kwargs) if size else 0]
            self.spans.append(rec)
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for owner, attr, name, size in _targets():
            self._patch(owner, attr, lambda fn: self._span(name, fn, size))
        for owner, attr, name in _COUNTED:
            self._patch(owner, attr, lambda fn: self._counter(name, fn))

    def _patch(self, owner, attr, wrap):
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            where = getattr(owner, "__name__", "?") if owner is not None else "?"
            missing = f"{where}.{attr}"
            if missing not in self.absent:
                self.absent.append(missing)
            return
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent index, size."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for rec in self.spans:
                parent = index.get(id(rec[3])) if rec[3] is not None else None
                fh.write(json.dumps([rec[0], rec[1], rec[2], parent, rec[4]]) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def _outermost(rec, prefix):
    """True when no enclosing span's name starts with ``prefix``."""
    p = rec[3]
    while p is not None:
        if p[0].startswith(prefix):
            return False
        p = p[3]
    return True


def _inside(rec, name):
    p = rec[3]
    while p is not None:
        if p[0] == name:
            return True
        p = p[3]
    return False


def layer_metrics(tracer, rounds, trial_rows):
    """Per-layer figures per traced round.

    ``trial_rows`` is the Monte Carlo trials requested per round, summed
    over output rows; it is the base of ``montecarlo.draws_per_trial``.
    """
    spans = tracer.spans
    children = collections.defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[id(rec[3])].append((rec[1], rec[2]))

    def self_time(rec):
        return rec[2] - rec[1] - _covered(children[id(rec)], rec[1], rec[2])

    by_name = collections.defaultdict(list)
    for rec in spans:
        by_name[rec[0]].append(rec)

    def total(name):
        return sum(r[2] - r[1] for r in by_name[name] if _outermost(r, name))

    scalar = [r for r in spans if r[0].startswith("specfun.scalar.")]
    inv_vec = by_name["specfun._chisq_tail_inv_vec"]
    passes = sum(1 for r in by_name["specfun._chisq_tail_pdf_vec"]
                 if r[3] is not None and r[3][0] == "specfun._chisq_tail_inv_vec")
    gauss = by_name["montecarlo.gaussians"]
    variates = sum(r[4] for r in gauss)
    drawn = sum(r[4] for r in by_name["montecarlo.block_uniforms"])
    asym = [r for r in spans if r[0].startswith("asymptotics.")]
    per = 1.0 / rounds
    m = {
        "montecarlo.block_uniforms_s": total("montecarlo.block_uniforms") * per,
        "montecarlo.draws_per_trial": drawn / (trial_rows * rounds) if trial_rows else 0.0,
        "montecarlo.gaussians_s": total("montecarlo.gaussians") * per,
        "montecarlo.gaussians_ns_per_variate":
            1e9 * sum(r[2] - r[1] for r in gauss) / variates if variates else 0.0,
        "montecarlo.run_kernel_self_s":
            sum(self_time(r) for r in by_name["montecarlo.run_kernel"]) * per,
        "specfun.chisq_inv_vec_s": total("specfun._chisq_tail_inv_vec") * per,
        "specfun.chisq_inv_vec_elements": sum(r[4] for r in inv_vec) * per,
        "specfun.chisq_inv_vec_passes": passes / len(inv_vec) if inv_vec else 0.0,
        "specfun.chisq_tail_vec_s": total("specfun._chisq_tail_vec") * per,
        "specfun.scalar_s":
            sum(r[2] - r[1] for r in scalar if _outermost(r, "specfun.scalar.")) * per,
        "specfun.scalar_calls": len(scalar) * per,
        "specfun.chisq_tail_inv_pdf_evals":
            sum(1 for r in by_name["specfun._chisq_tail_pdf"]
                if _inside(r, "specfun.scalar.chisq_tail_inv")) * per,
        "nlp_detect.kernel_self_s":
            sum(self_time(r) for r in by_name["nlp_detect.kernel"]) * per,
        "nlp_detect.umm_pmd_s": total("nlp_detect.umm_pmd") * per,
        "lan_models.draw_estimates_s": total("lan_models.draw_estimates") * per,
        "lan_models.binom_cdf_rows": tracer.counts["lan_models.binom_cdf_rows"] * per,
        "lan_models.disk_sections_s": total("lan_models.disk_sections") * per,
        "linalg.sym_sqrt_calls": len(by_name["linalg.sym_sqrt"]) * per,
        "linalg.sym_sqrt_s": total("linalg.sym_sqrt") * per,
        "asymptotics.total_s":
            sum(r[2] - r[1] for r in asym if _outermost(r, "asymptotics.")) * per,
        "cli.self_s": sum(self_time(r) for r in by_name["cli.main"]) * per,
    }
    return m
