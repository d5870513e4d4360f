"""Span arithmetic for traced CLI runs: self times, trial spans, layer metrics.

A span is one wrapped call: ``(id, parent, thread, name, start, end, info)``.
``parent`` is the id of the innermost wrapped call open on the same thread
when the span started (None at the top of a thread's stack), so a span's
children always share its thread.  ``info`` is None or a dict (``threads``
for a pool phase, ``error`` for a call that raised).

Definitions used throughout:

* self time: a span's duration minus the time covered by its children on
  the same thread;
* trial span: from a trial's ``derive_stream`` call to the end of the last
  wrapped call that starts on the same thread before that thread's next
  trial (or before the pool phase ends);
* pool busy fraction: summed trial spans over (pool-phase wall time x pool
  threads).
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "id parent thread name start end info")

TRIAL_MARKER = "ensembles.derive_stream"
POOL = "montecarlo.pool"
EXPERIMENT = "montecarlo.experiment"

#: layer spans reported as ``<name>.self_s``
SELF_TIME_LAYERS = (
    "ensembles.sample",
    "ensembles.minor_truncate",
    "spectral.eig_sym_full",
    "spectral.eig_sym_minor",
    "spectral.overlap_grid",
    "spectral.check_interlacing",
    "freeprob.solve",
    "freeprob.boundary_values",
    "freeprob.scan_support_edge",
    "overlaps_theory.overlap_kernel",
    "probes.drift_probe",
    "reports.serialize",
    "cli",
)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def self_times(spans) -> dict:
    """Summed self time per span name."""
    by_id = {s.id: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            covered[s.parent] += s.end - s.start
    out = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    return dict(out)


def trial_spans(spans) -> list:
    """``(pool span, [(start, end), ...])`` for every pool phase, trials in start order."""
    out = []
    for pool in (s for s in spans if s.name == POOL):
        inside = [s for s in spans if pool.start <= s.start <= pool.end and s.id != pool.id]
        by_thread = defaultdict(list)
        for s in inside:
            by_thread[s.thread].append(s)
        trials = []
        for thread_spans in by_thread.values():
            thread_spans.sort(key=lambda s: s.start)
            starts = [s.start for s in thread_spans if s.name == TRIAL_MARKER]
            for k, begin in enumerate(starts):
                stop = starts[k + 1] if k + 1 < len(starts) else math.inf
                end = max(s.end for s in thread_spans if begin <= s.start < stop)
                trials.append((begin, end))
        out.append((pool, sorted(trials)))
    return out


def pool_busy_frac(pools) -> float:
    """Summed trial spans over summed (pool wall time x pool threads); 0 without pools."""
    busy = sum(end - begin for _, trials in pools for begin, end in trials)
    capacity = sum((pool.end - pool.start) * pool.info["threads"] for pool, _ in pools)
    return busy / capacity if capacity > 0 else 0.0


def layer_metrics(spans, atomic_calls: int) -> dict:
    """Span-derived per-layer metrics of one traced CLI run."""
    selfs = self_times(spans)
    counts = defaultdict(int)
    for s in spans:
        counts[s.name] += 1
    metrics = {f"{name}.self_s": selfs.get(name, 0.0) for name in SELF_TIME_LAYERS}
    metrics["spectral.eig_sym.calls"] = (counts["spectral.eig_sym_full"]
                                         + counts["spectral.eig_sym_minor"])
    metrics["freeprob.solve.calls"] = counts["freeprob.solve"]
    metrics["freeprob.stieltjes_atomic.calls"] = atomic_calls

    kernel = [s for s in spans if s.name == "overlaps_theory.overlap_kernel"]
    accepted = sum(1 for s in kernel if not (s.info or {}).get("error"))
    metrics["overlaps_theory.overlap_kernel.accept_ratio"] = (
        accepted / len(kernel) if kernel else 0.0)

    pools = trial_spans(spans)
    durations = [end - begin for _, trials_ in pools for begin, end in trials_]
    metrics["montecarlo.trial_s.p50"] = percentile(durations, 50) if durations else 0.0
    metrics["montecarlo.trial_s.p90"] = percentile(durations, 90) if durations else 0.0
    metrics["montecarlo.pool.busy_frac"] = pool_busy_frac(pools)
    experiments = [s for s in spans if s.name == EXPERIMENT]
    pre = post = 0.0
    if experiments and pools:
        pre = pools[0][0].start - experiments[0].start
        post = experiments[-1].end - pools[-1][0].end
    metrics["montecarlo.pre_trials_s"] = pre
    metrics["montecarlo.post_trials_s"] = post
    return metrics
