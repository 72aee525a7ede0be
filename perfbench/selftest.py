"""Shows that every correctness check of the benchmark trips under a
targeted fault.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For each workload it runs one real operation on seed 1 and checks its output,
which must pass. It then applies each fault of that workload in turn, either
to a copy of the output or to the program's public function that the check
calls, and requires the same check to raise ``CheckFailed``. It prints one
line per fault and exits 1 if a check passed a faulted output.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS before numpy is imported)

import dataclasses  # noqa: E402
import shutil  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

import numpy as np  # noqa: E402

SCALE = 1.0 + 1e-6


def _save(path, matrix):
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")


def _copy_dir(src, tag):
    dst = f"{src}-{tag}"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


@contextmanager
def patched(fs, name, make):
    """Replace ``fs.<name>`` (the lookup the checks use) while inside."""
    original = getattr(fs, name)
    setattr(fs, name, make(original))
    try:
        yield
    finally:
        setattr(fs, name, original)


# -- desk_sweep: inp has the report directory, out is the MetricReport -------

def _desk_row(report, family):
    return next(r for r in report.rows if r.family == family)


def _desk_est_path(out_dir, row):
    return os.path.join(out_dir, "estimates", f"{row.row_id}.csv")


def desk_scaled(fs, w, inp, report):
    out = _copy_dir(inp["out"], "scaled")
    path = _desk_est_path(out, _desk_row(report, "gcgfrft"))
    _save(path, np.loadtxt(path, delimiter=",", ndmin=2) * SCALE)
    return dict(inp, out=out), report, None


def desk_noisy_as_estimate(fs, w, inp, report):
    out = _copy_dir(inp["out"], "noisy")
    row, noisy = _desk_row(report, "gcgfrft"), _desk_row(report, "noisy")
    shutil.copyfile(_desk_est_path(out, noisy), _desk_est_path(out, row))
    rows = [dataclasses.replace(r, mse=noisy.mse) if r is row else r for r in report.rows]
    return dict(inp, out=out), dataclasses.replace(report, rows=rows), None


def desk_endpoint_better(fs, w, inp, report):
    out = _copy_dir(inp["out"], "grid")
    row = _desk_row(report, "gcgfrft")
    table = tuple((lam, 0.5 * row.mse if lam == 1.0 else m) for lam, m in row.lambda_mse)
    rows = [dataclasses.replace(r, lambda_mse=table) if r is row else r for r in report.rows]
    return dict(inp, out=out), dataclasses.replace(report, rows=rows), None


# -- spatial_heavy and order_sweep: estimates in memory ---------------------

def _signal(fs, a):
    return fs.TimeVertexSignal.from_array(np.asarray(a))


def heavy_scaled(fs, w, inp, out):
    params, est, score = out
    return inp, (params, _signal(fs, est.as_real() * SCALE), score), None


def heavy_noisy_as_estimate(fs, w, inp, out):
    params = out[0]
    return inp, (params, inp["y"], fs.metrics(inp["x"], inp["y"])), None


def heavy_closed_form_off(fs, w, inp, out):
    # a closed-form filter 50% too strong is no longer the optimum
    return inp, out, patched(fs, "closed_form_h", lambda f: lambda *a, **k: 1.5 * f(*a, **k))


def order_scaled(fs, w, inp, out):
    est, score = out
    return inp, (_signal(fs, est.as_real() * SCALE), score), None


def order_noisy_as_estimate(fs, w, inp, out):
    return inp, (inp["y"], fs.metrics(inp["x"], inp["y"])), None


def _forward_fault(family, change, orders=None):
    def make(forward):
        def faulty(plan, x):
            out = forward(plan, x)
            if plan.family != family or orders not in (None, plan.orders):
                return out
            return type(out)(change(out.data), real_flag=out.real_flag)
        return faulty
    return make


def order_parseval(fs, w, inp, out):
    # a forward off by a relative 1e-9 breaks Parseval and the round trip
    return inp, out, patched(fs, "forward", _forward_fault(inp["family"], lambda d: d * (1 + 1e-9)))


def order_roundtrip(fs, w, inp, out):
    def make(inverse):
        def faulty(plan, xhat):
            back = inverse(plan, xhat)
            return type(back)(back.data + 1e-9 * np.abs(back.data).max(), real_flag=back.real_flag)
        return faulty
    return inp, out, patched(fs, "inverse", make)


def order_conjugated_dft(fs, w, inp, out):
    return inp, out, patched(fs, "forward", _forward_fault("jfrft", np.conj, (0.0, 1.0)))


def order_swapped_modes(fs, w, inp, out):
    # two sine modes swapped, only at the orders (0, 1) of the closed-form check
    swap = lambda d: d[:, [1, 0, *range(2, d.shape[1])]]  # noqa: E731
    return inp, out, patched(fs, "forward", _forward_fault("gbfrft2d", swap, (0.0, 1.0)))


# -- temporal_cli: inp has the output directory, out is the exit code --------

def cli_exit_code(fs, w, inp, code):
    return inp, 2, None


def cli_estimate_scaled(fs, w, inp, code):
    out = _copy_dir(inp["out"], "scaled")
    path = os.path.join(out, "estimate.csv")
    _save(path, np.loadtxt(path, delimiter=",", ndmin=2) * SCALE)
    return dict(inp, out=out), code, None


def cli_grid_loss_scaled(fs, w, inp, code):
    out = _copy_dir(inp["out"], "grid")
    path = os.path.join(out, "grid.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    head, rows = lines[0], [ln.split(",") for ln in lines[1:]]
    for r in rows:
        if r[1]:
            r[1] = repr(float(r[1]) * SCALE)
    with open(path, "w") as fh:
        fh.write("\n".join([head] + [",".join(r) for r in rows]) + "\n")
    return dict(inp, out=out), code, None


FAULTS = {
    "desk_sweep": (0, [desk_scaled, desk_noisy_as_estimate, desk_endpoint_better]),
    "spatial_heavy": (2, [heavy_scaled, heavy_noisy_as_estimate, heavy_closed_form_off]),
    "temporal_cli": (0, [cli_exit_code, cli_estimate_scaled, cli_grid_loss_scaled]),
    "order_sweep": (0, [order_scaled, order_noisy_as_estimate, order_parseval,
                        order_roundtrip, order_conjugated_dft, order_swapped_modes]),
}


def main() -> int:
    fs = run.import_program()
    from checks import CheckFailed
    from workloads import WORKLOADS

    os.makedirs(run.OUT, exist_ok=True)
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    missed = 0
    try:
        for name, (i, faults) in FAULTS.items():
            w = WORKLOADS[name](fs, 1, os.path.join(workdir, name), False)
            os.makedirs(w.workdir)
            w.setup(0)
            inp = w.inputs(i)
            out = w.op(inp)
            for fault in faults:
                f_inp, f_out, patch = fault(fs, w, inp, out)
                try:
                    with patch or nullcontext():
                        w.check(f_inp, f_out)
                except CheckFailed as err:
                    print(f"{name}: {fault.__name__}: trips ({err})")
                else:
                    print(f"{name}: {fault.__name__}: NOT DETECTED")
                    missed += 1
            w.check(inp, out)  # the unfaulted output passes
            print(f"{name}: unfaulted output passes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: " + (f"{missed} fault(s) not detected" if missed else "every fault detected"))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
