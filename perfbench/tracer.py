"""In-memory span tracer that wraps minor_overlaps from outside the package.

The package modules call each other through module-level names (for example
``montecarlo`` calls the ``eig_sym`` it imported from ``spectral``), so
replacing those names on the calling module puts a span around every call
without touching ``src/``.  A name that a later version of the package no
longer has is skipped, and its layer then reads zero.

Spans stay in memory (a list of :class:`spans.Span`) and are written out by
the caller when the CLI run ends.  ``stieltjes_atomic`` runs hundreds of
thousands of times per general-spectrum run, so it is counted, not spanned.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

from spans import Span

EIG_FULL = "spectral.eig_sym_full"
EIG_MINOR = "spectral.eig_sym_minor"


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        # next() on an itertools.count is atomic under the interpreter lock
        self._atomic = itertools.count()
        self._local = threading.local()
        # id -> array returned by minor_truncate, held until eig_sym receives it
        self._minors = {}

    def atomic_calls(self) -> int:
        """Number of stieltjes_atomic calls so far; read once, after the run."""
        return next(self._atomic)

    def span(self, name, fn, info=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments; ``info``
        optionally maps the arguments to the span's info dict.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            meta = info(*args, **kwargs) if info else None
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                meta = {**(meta or {}), "error": type(exc).__name__}
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, threading.get_ident(), label,
                                       start, end, meta))

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count_atomic(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(self._atomic)
            return fn(*args, **kwargs)

        return counted

    def record_sampled_size(self, fn):
        @functools.wraps(fn)
        def sample(*args, **kwargs):
            x = fn(*args, **kwargs)
            self._local.sampled_dim = x.shape[0]
            return x

        return sample

    def register_minor(self, fn):
        @functools.wraps(fn)
        def truncate(*args, **kwargs):
            x = fn(*args, **kwargs)
            self._minors[id(x)] = x
            return x

        return truncate

    def eig_name(self, x, *args, **kwargs) -> str:
        """Minor when ``x`` is what minor_truncate returned or is smaller than the sample."""
        registered = self._minors.pop(id(x), None) is x
        smaller = len(x) < getattr(self._local, "sampled_dim", 0)
        return EIG_MINOR if registered or smaller else EIG_FULL

    def install(self, modules: dict) -> None:
        """Replace the module-level names the package calls through with traced ones."""
        mc, ot, fp, pr, rp = (modules[k] for k in
                              ("montecarlo", "overlaps_theory", "freeprob", "probes", "reports"))

        def pool_info(*args, **kwargs):
            # _run_trials(trials, threads, worker); threads=0 means one per core
            threads = kwargs.get("threads", args[1] if len(args) > 1 else 0)
            return {"threads": threads or os.cpu_count() or 1}

        wraps = {
            mc: {
                "derive_stream": "ensembles.derive_stream",
                "sample_goe": "ensembles.sample",
                "minor_truncate": "ensembles.minor_truncate",
                "eig_sym": self.eig_name,
                "overlap_grid": "spectral.overlap_grid",
                "check_interlacing": "spectral.check_interlacing",
                "_bin_means": "montecarlo.bin_means",
                "_run_trials": "montecarlo.pool",
                "run_bulk_experiment": "montecarlo.experiment",
                "solve_stieltjes": "freeprob.solve",
                "solve_minor_stieltjes": "freeprob.solve",
                "boundary_values": "freeprob.boundary_values",
                "scan_support_edge": "freeprob.scan_support_edge",
                "overlap_kernel": "overlaps_theory.overlap_kernel",
            },
            ot: {
                "minor_truncate": "ensembles.minor_truncate",
                "eig_sym": self.eig_name,
                "overlap_grid": "spectral.overlap_grid",
                "boundary_values": "freeprob.boundary_values",
            },
            pr: {
                "sample_goe": "ensembles.sample",
                "eig_sym": self.eig_name,
                "drift_probe": "probes.drift_probe",
            },
            rp: {attr: "reports.serialize" for attr in dir(rp)
                 if attr.endswith(("_csv", "_json")) and callable(getattr(rp, attr))},
        }
        for module, names in wraps.items():
            for attr, name in names.items():
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if attr == "sample_goe":
                    fn = self.record_sampled_size(fn)
                elif attr == "minor_truncate":
                    fn = self.register_minor(fn)
                info = pool_info if attr == "_run_trials" else None
                setattr(module, attr, self.span(name, fn, info))
        if hasattr(fp, "stieltjes_atomic"):
            fp.stieltjes_atomic = self.count_atomic(fp.stieltjes_atomic)
