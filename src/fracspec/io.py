"""File formats: graphs, signals, operators, learned parameters, reports.

All writers format floats with 17 significant digits (round-trip exact for
float64) and serialize infinities as the string "inf", so reports are
byte-stable across runs and comparable across implementations.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict

import numpy as np

from .errors import ConfigError
from .graphs import MATERIALIZE_CAP, Graph
from .wiener import FilterParams

__all__ = [
    "write_edge_list_csv",
    "read_edge_list_csv",
    "write_points_csv",
    "read_points_csv",
    "write_signal",
    "read_signal",
    "write_operator_csv",
    "write_params_json",
    "read_params_json",
    "write_trace_csv",
    "write_benchmark_report",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# -- graphs -----------------------------------------------------------------


def write_edge_list_csv(g: Graph, path: str) -> None:
    """Undirected edge list with header ``src,dst,weight`` (0-based, upper
    triangle only: one row per undirected edge)."""
    a = g.adjacency
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "weight"])
        for i, j in zip(*np.nonzero(np.triu(a, k=1))):
            w.writerow([int(i), int(j), _fmt(a[i, j])])


def read_edge_list_csv(path: str) -> Graph:
    edges = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [c.strip() for c in header[:3]] != ["src", "dst", "weight"]:
            raise ConfigError(f"{path}: expected header 'src,dst,weight', got {header}")
        for row in r:
            if not row:
                continue
            if len(row) != 3 or min(int(row[0]), int(row[1])) < 0:
                raise ConfigError(f"{path}:{r.line_num}: expected src,dst,weight with ids >= 0, got {row}")
            edges.append((int(row[0]), int(row[1]), float(row[2])))
    ids = {v for i, j, _ in edges for v in (i, j)}
    n = 1 + max(ids, default=0)
    if len(ids) > MATERIALIZE_CAP:
        raise ConfigError(f"{path}: {len(ids)} nodes exceed the cap of {MATERIALIZE_CAP} nodes")
    if ids and len(ids) != n:
        raise ConfigError(f"{path}: every vertex id from 0 to {n - 1} must appear in some row")
    a = np.zeros((n, n))
    for i, j, wgt in edges:
        a[i, j] = wgt
        a[j, i] = wgt
    return Graph(a, label=os.path.basename(path))


def write_points_csv(points: np.ndarray, path: str) -> None:
    """Coordinates with header ``id,x1,...,xd``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [f"x{d + 1}" for d in range(pts.shape[1])])
        for i, row in enumerate(pts):
            w.writerow([i] + [_fmt(v) for v in row])


def read_points_csv(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if not header or header[0].strip() != "id":
            raise ConfigError(f"{path}: expected header 'id,x1,...', got {header}")
        rows = sorted((int(row[0]), [float(v) for v in row[1:]]) for row in r if row)
    if [i for i, _ in rows] != list(range(len(rows))):
        raise ConfigError(f"{path}: point ids must be 0..{len(rows) - 1}, each once")
    return np.asarray([coords for _, coords in rows], dtype=np.float64)


# -- signals ----------------------------------------------------------------


def _matrix_to_csv(m: np.ndarray, path: str) -> None:
    """The bytes of ``csv.writer`` rows of ``_fmt`` fields, one ``%`` format
    of ``%.17g`` fields per row: the same digits, and "inf" for infinities."""
    line = ",".join(["%.17g"] * m.shape[-1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(line % tuple(row.tolist()) for row in m)


def _matrix_from_csv(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.asarray([[float(v) for v in row] for row in csv.reader(fh) if row])


def write_signal(data: np.ndarray, path: str, meta: dict | None = None) -> None:
    """Signal matrix as CSV; complex data goes to paired ``...__real.csv`` /
    ``...__imag.csv`` files. A JSON sidecar ``<path>.json`` carries shape and
    plan metadata."""
    data = np.asarray(data)
    base, ext = os.path.splitext(path)
    complex_valued = bool(np.iscomplexobj(data) and np.any(data.imag != 0))
    if complex_valued:
        _matrix_to_csv(data.real, f"{base}__real{ext}")
        _matrix_to_csv(data.imag, f"{base}__imag{ext}")
    else:
        _matrix_to_csv(data.real, path)
    sidecar = {"n1": int(data.shape[0]), "n2": int(data.shape[1]), "complex": complex_valued}
    sidecar.update(meta or {})
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_signal(path: str) -> tuple[np.ndarray, dict]:
    base, ext = os.path.splitext(path)
    meta = {}
    if os.path.exists(path + ".json"):
        with open(path + ".json") as fh:
            meta = json.load(fh)
    if meta.get("complex") or (not os.path.exists(path) and os.path.exists(f"{base}__real{ext}")):
        data = _matrix_from_csv(f"{base}__real{ext}") + 1j * _matrix_from_csv(f"{base}__imag{ext}")
    else:
        data = _matrix_from_csv(path)
    return data, meta


# -- operators ----------------------------------------------------------------


def write_operator_csv(matrix: np.ndarray, path: str) -> None:
    """Complex matrix as interleaved real/imag entries, row-major: each matrix
    row becomes ``re, im, re, im, ...``, the row of its float64 view."""
    _matrix_to_csv(np.ascontiguousarray(matrix, dtype=np.complex128).view(np.float64), path)


# -- learned parameters and traces -------------------------------------------


def write_params_json(params: FilterParams, path: str) -> None:
    payload = {
        "alpha": params.alpha,
        "beta": params.beta,
        "lambda": params.lam,
        "h_shape": list(params.h.shape),
        "h": [float(v) for v in params.h.ravel(order="C")],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_params_json(path: str) -> FilterParams:
    with open(path) as fh:
        payload = json.load(fh)
    h = np.asarray(payload["h"], dtype=np.float64).reshape(payload["h_shape"], order="C")
    return FilterParams(alpha=payload["alpha"], beta=payload["beta"],
                        h=h, lam=payload["lambda"])


def write_trace_csv(trace, path: str) -> None:
    """Per-epoch training trace: ``epoch,loss,alpha,beta``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss", "alpha", "beta"])
        for step in trace:
            w.writerow([step.epoch, _fmt(step.loss), _fmt(step.alpha), _fmt(step.beta)])


# -- benchmark reports --------------------------------------------------------

REPORT_COLUMNS = ["family", "sigma", "seed", "mse", "psnr", "ssim",
                  "alpha", "beta", "lambda", "epochs", "status"]


def _row_record(row) -> dict:
    """A ``MetricRow`` by ``REPORT_COLUMNS``; the column ``lambda`` is its ``lam``."""
    return {col: getattr(row, "lam" if col == "lambda" else col) for col in REPORT_COLUMNS}


def write_benchmark_report(report, out_dir: str, estimates: dict | None = None) -> None:
    """Write ``report.csv`` and ``summary.json`` (deterministic bytes for a
    fixed configuration) plus ``timings.csv`` (wall-clock sidecar, excluded
    from the determinism contract). ``estimates`` maps row ids to real
    estimate matrices persisted under ``estimates/``."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REPORT_COLUMNS)
        for row in report.rows:
            w.writerow([_fmt(v) for v in _row_record(row).values()])

    def jsonable(v):
        if isinstance(v, float) and math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v

    summary = {
        "config": {
            "spatial": asdict(report.config.spatial),
            "temporal": asdict(report.config.temporal),
            "sigma_list": list(report.config.sigma_list),
            "lambda_grid": list(report.config.lambda_grid),
            "families": list(report.config.families),
            "train": asdict(report.config.train),
            "seeds": list(report.config.seeds),
            "bandwidth": report.config.bandwidth,
        },
        "rows": [{k: jsonable(v) for k, v in _row_record(r).items()} for r in report.rows],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(os.path.join(out_dir, "timings.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "sigma", "seed", "wall_time"])
        for row in report.rows:
            w.writerow([row.family, _fmt(row.sigma), row.seed, _fmt(row.wall_time)])

    if estimates:
        est_dir = os.path.join(out_dir, "estimates")
        os.makedirs(est_dir, exist_ok=True)
        for row_id, est in sorted(estimates.items()):
            _matrix_to_csv(np.asarray(est), os.path.join(est_dir, f"{row_id}.csv"))
