"""CSV/JSON serialization with stable schemas and round-trip float formatting.

Floats are written with ``repr`` (shortest round-trip decimal).  CSV headers
are bit-exact contracts:

* bulk curves:        ``lambda,mu,t,q,theory_W,theory_W_rho,mc_mean,mc_ci_low,mc_ci_high,n_samples``
* minor-binned curves (spike-bulk, Bernoulli bulk) use the same columns with
  ``mu`` leading
* trajectories:       ``t,lambda1,mu1,edge_full,edge_minor``

JSON reports carry exactly the top-level keys ``config``, ``estimates``,
``theory``, ``coverage``, ``wall_time_s``, ``tool_version``; every field but
``wall_time_s`` is deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .spectral import minor_size

TOOL_VERSION = "0.1.0"

BULK_CURVE_HEADER = "lambda,mu,t,q,theory_W,theory_W_rho,mc_mean,mc_ci_low,mc_ci_high,n_samples"
MINOR_CURVE_HEADER = "mu,lambda,t,q,theory_W,theory_W_rho,mc_mean,mc_ci_low,mc_ci_high,n_samples"
TRAJECTORY_HEADER = "t,lambda1,mu1,edge_full,edge_minor"
SPIKE_TOP_HEADER = "t,lambda,mu,q,theory_f,mc_mean,mc_ci_low,mc_ci_high,n_samples"
BERNOULLI_SPIKE_HEADER = "N,n,p,q,mc_deficit,mc_ci_low,mc_ci_high,theory_deficit,n_samples"
PROBE_HEADER = "row,kind,mc_mean,mc_ci_low,mc_ci_high,theory,n_samples"
VALUE_HEADER = "value"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return ""          # undefined theory (spectral gap / edge zone)
    return repr(x)


def _lines(header, rows):
    return "\n".join([header] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


def value_csv(value: float) -> str:
    return _lines(VALUE_HEADER, [(value,)])


def simple_csv(header: str, rows) -> str:
    """One-off tabular output with the shared float formatting."""
    return _lines(header, rows)


def theory_curve_csv(centers, other_coord, t, q, theory_w, theory_w_rho,
                     leading: str = "lambda") -> str:
    """Theory-only curve in the shared curve schema (MC columns left empty)."""
    header = BULK_CURVE_HEADER if leading == "lambda" else MINOR_CURVE_HEADER
    rows = [(c, other_coord, t, q, w, wr, None, None, None, 0)
            for c, w, wr in zip(centers, theory_w, theory_w_rho)]
    return _lines(header, rows)


def _curve_rows(report, other_coord, t, q):
    rho_bin = report.extras["rho_bin"]
    rows = []
    bin_idx = 0
    for est, th in zip(report.estimates, report.theory):
        if est.kind != "bin":
            continue
        rows.append((est.center, other_coord, t, q, th, th * rho_bin[bin_idx],
                     est.mean, est.ci_low, est.ci_high, est.n_samples))
        bin_idx += 1
    return rows


def bulk_report_csv(report) -> str:
    cfg = report.config
    return _lines(BULK_CURVE_HEADER,
                  _curve_rows(report, report.extras["mu_hat"], cfg.t, cfg.q))


def spike_bulk_report_csv(report) -> str:
    cfg = report.config
    return _lines(MINOR_CURVE_HEADER,
                  _curve_rows(report, report.extras["spike"], cfg.t, cfg.q))


def bernoulli_bulk_report_csv(report) -> str:
    cfg = report.config
    return _lines(MINOR_CURVE_HEADER,
                  _curve_rows(report, 0.0, report.extras["t_eff"], cfg.q))


def spike_top_report_csv(report) -> str:
    cfg = report.config
    est = report.estimates[0]
    row = (cfg.t, report.extras["spike"], report.extras["minor_spike"], cfg.q,
           report.theory[0], est.mean, est.ci_low, est.ci_high, est.n_samples)
    return _lines(SPIKE_TOP_HEADER, [row])


def bernoulli_spike_report_csv(report) -> str:
    cfg = report.config
    rows = []
    for est, th in zip(report.estimates, report.theory):
        n_dim = int(est.center)
        rows.append((n_dim, minor_size(cfg.q, n_dim), cfg.p, cfg.q,
                     est.mean, est.ci_low, est.ci_high, th, est.n_samples))
    return _lines(BERNOULLI_SPIKE_HEADER, rows)


def trajectory_csv(series) -> str:
    rows = zip(series.t, series.lambda1, series.mu1, series.edge_full, series.edge_minor)
    return _lines(TRAJECTORY_HEADER, rows)


def probe_report_csv(report) -> str:
    rows = [(int(est.center), est.kind, est.mean, est.ci_low, est.ci_high, th, est.n_samples)
            for est, th in zip(report.estimates, report.theory)]
    return _lines(PROBE_HEADER, rows)


def _config_obj(config):
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        obj = dataclasses.asdict(config)
        # worker count is execution machinery, not experiment identity
        obj.pop("threads", None)
        a_spec = obj.get("a_spec")
        if isinstance(a_spec, dict) and a_spec.get("matrix") is not None:
            m = np.asarray(a_spec["matrix"])
            a_spec["matrix"] = {
                "shape": list(m.shape),
                "sha256": hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest(),
            }
        return _jsonable(obj)
    return _jsonable(config)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def report_json(report) -> str:
    obj = {
        "config": _config_obj(report.config),
        "estimates": [
            {"kind": e.kind, "center": e.center, "mean": e.mean,
             "ci_low": e.ci_low, "ci_high": e.ci_high, "n_samples": e.n_samples}
            for e in report.estimates
        ],
        "theory": [None if (isinstance(v, float) and np.isnan(v)) else v
                   for v in report.theory],
        "coverage": report.coverage,
        "wall_time_s": report.wall_time_s,
        "tool_version": TOOL_VERSION,
    }
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
