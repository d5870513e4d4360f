"""Run one minor-overlaps CLI invocation in this fresh interpreter and record it.

    python3 perfbench/child.py RECORD.json TRACE -- <cli arguments>

``TRACE`` is 0 or 1.  With no CLI arguments the process stops at CLI entry,
which measures set-up alone.  The record holds the monotonic clock at CLI
entry (the parent subtracts its spawn time to get set-up time), the wall and
CPU time of ``cli.main`` after imports, peak RSS, the exit code, the trial
count and aborts of the report the CLI serialized, the thread and library
environment, and, when traced, the spans.  Thread settings are only read,
never set, so a run sees the same BLAS and pool defaults a user does.
numpy is imported only after the package, so a package that configures BLAS
before numpy loads still can.
"""

import ctypes
import functools
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_info():
    """(threads, config string) of numpy's bundled OpenBLAS, read through ctypes."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas64_*.so"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return get_threads(), get_config().decode()


def environment(pool_threads):
    import numpy as np
    import scipy

    blas_threads, blas_config = blas_info()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pool_threads": pool_threads,
        "blas_threads": blas_threads,
        "blas_config": blas_config,
        "openblas_version": blas.get("version"),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": sys.version.split()[0],
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def capture_reports(modules, sink):
    """Keep the report of each experiment the CLI runs (one call per CLI run)."""
    for module, attr in ((modules["montecarlo"], "run_bulk_experiment"),
                         (modules["probes"], "drift_probe")):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def keep(*args, _fn=fn, **kwargs):
            report = _fn(*args, **kwargs)
            sink.append(report)
            return report

        setattr(module, attr, keep)


def report_counts(report):
    """(trials attempted, trials aborted) of a bulk report or drift-probe report."""
    if isinstance(report.config, dict):
        return report.config["trials"], 0
    return report.config.trials, report.extras["aborted_trials"]


def main(argv):
    record_path, trace = Path(argv[0]), argv[1] == "1"
    cli_args = argv[3:]
    sys.path.insert(0, str(SRC))
    from minor_overlaps import cli, freeprob, montecarlo, overlaps_theory, probes, reports

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"minor_overlaps imported from {cli.__file__}, not {SRC}")
    modules = {"montecarlo": montecarlo, "overlaps_theory": overlaps_theory,
               "freeprob": freeprob, "probes": probes, "reports": reports}
    reports_seen = []
    capture_reports(modules, reports_seen)
    entry = cli.main
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(modules)
        entry = tracer.span("cli", cli.main)

    t_entry = time.monotonic()
    record = {"t_entry": t_entry}
    if cli_args:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        code = entry(cli_args)
        wall = time.perf_counter() - w0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        record.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss * 1024 / 1e6,
            reports=[report_counts(r) for r in reports_seen],
            # _run_trials starts one pool thread per core when --threads is 0
            env=environment(pool_threads=os.cpu_count()),
        )
        if tracer is not None:
            record["spans"] = tracer.spans
            record["atomic_calls"] = tracer.atomic_calls()
    record_path.write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
