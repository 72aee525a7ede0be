"""The four benchmark workloads.

Each workload is closed-loop and single-process (``temporal_cli`` waits on
one ``fracspec`` child process at a time). A run runs rounds of operations
one after another, repeating its set-up before each of the first rounds;
every operation gets fresh inputs derived from the run seed. ``setup`` and
``op`` are timed. ``inputs`` prepares an operation's data and ``check``
verifies its output; neither is timed.

The spatial graphs use a fixed k-NN seed (7, as in the acceptance sweep), so
every run works on the same graphs; the signals and the noise come from the
run seed.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np

import checks

ORDER_SWEEP_ORDERS = (0.25, 0.5, 0.75)
ORDER_SWEEP_FAMILIES = ("gbfrft2d", "jfrft", "gcgfrft")


def op_seed(run_seed: int, i: int) -> int:
    """Seed of operation ``i``'s inputs: distinct per operation and per run."""
    return int(np.random.SeedSequence((run_seed, i)).generate_state(1)[0])


class Workload:
    #: operations of one round; a run stops only on a round boundary
    round_ops = 1
    #: the first operations of every run, whatever its length: they are
    #: scored for psnr_gain_db, and they are all that a traced run runs, so
    #: that its counts repeat exactly
    prefix_ops = 1
    #: set-up runs this often before each of the first ``setup_rounds``
    #: rounds, so that its repetitions spread over the run, and its median
    #: is reported. ``setup(i)`` prepares the inputs of operation ``i``, the
    #: first of the round that follows it.
    setup_per_round = 1
    setup_rounds = 3
    #: peak memory is that of the child processes doing the work
    rss_children = False
    #: a run has enough operations for op_ms_p98 to be a tail (ten or more
    #: operations beyond it)
    tail = False

    def __init__(self, fs, seed: int, workdir: str, traced: bool):
        self.fs = fs
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.child_traces: list = []
        #: events worth knowing that are not failures, for the run record
        self.notes: Counter = Counter()

    def setup(self, i: int) -> None:
        raise NotImplementedError

    def inputs(self, i: int) -> dict:
        raise NotImplementedError

    def op(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, out) -> float:
        """Verify one operation's output; return its PSNR gain in dB."""
        raise NotImplementedError


class DeskSweep(Workload):
    """``run_benchmark`` on one (sigma, seed) cell of the acceptance c08 sweep:
    knn_random(30, k=4, seed=7) x path(10), the 11-point lambda grid, family
    gcgfrft plus the two baselines, default TrainConfig (GD, 200 epochs).
    Each cell trains 11 times on 30x10 matrices, so Python overhead in plan
    building and validation and the 10x10 coupling Schur per new temporal
    order dominate."""

    name = "desk_sweep"
    prefix_ops = 6
    # set-up takes milliseconds here: many repetitions over the run make it hold
    setup_per_round = 5
    setup_rounds = 6
    sigmas = (0.6, 0.9, 1.2)

    def _specs(self):
        fs = self.fs
        return (fs.GraphSpec(kind="knn_random", n=30, k=4, seed=7),
                fs.GraphSpec(kind="path", n=10))

    def setup(self, i):
        fs = self.fs
        spatial, temporal = self._specs()
        ctx = fs.TransformContext(spatial.build(), temporal.build())
        ctx.plan("gcgfrft", (0.5, 0.5), lam=0.5)
        self.ctx = ctx

    def inputs(self, i):
        return {"sigma": self.sigmas[i % len(self.sigmas)], "seed": op_seed(self.seed, i),
                "out": os.path.join(self.workdir, f"op{i}")}

    def op(self, inp):
        fs = self.fs
        spatial, temporal = self._specs()
        cfg = fs.BenchmarkConfig(spatial=spatial, temporal=temporal,
                                 sigma_list=(inp["sigma"],), seeds=(inp["seed"],),
                                 families=("gcgfrft",), output_dir=inp["out"],
                                 persist_estimates=True)
        return fs.run_benchmark(cfg)

    def check(self, inp, report):
        x = self.fs.synth_signal(self.ctx.spatial, 10, bandwidth=0.3, seed=inp["seed"]).as_real()
        rows = {r.family: r for r in report.rows}
        if sorted(rows) != ["closed_form_gft", "gcgfrft", "noisy"]:
            raise checks.CheckFailed(f"unexpected report rows {sorted(rows)}")
        est = {}
        for family, row in rows.items():
            if row.status != "ok":
                raise checks.CheckFailed(f"{family}: status {row.status}")
            path = os.path.join(inp["out"], "estimates", f"{row.row_id}.csv")
            est[family] = np.loadtxt(path, delimiter=",", ndmin=2)
            checks.check_mse(est[family], x, row.mse, family)
        checks.check_beats_noisy(est["gcgfrft"], est["noisy"], x, "gcgfrft")
        lambda_mse = rows["gcgfrft"].lambda_mse
        checks.check_grid_endpoints(rows["gcgfrft"].mse, lambda_mse)
        self.notes["grid points skipped at the branch cut"] += (
            len(report.config.lambda_grid) - len(lambda_mse))
        shutil.rmtree(inp["out"])
        return checks.psnr(est["gcgfrft"], x) - checks.psnr(est["noisy"], x)


class SpatialHeavy(Workload):
    """Adam training, denoise and scoring at knn_random(512, k=4, seed=7) x
    path(16), sigma 0.9, one family per operation (gbfrft2d, jfrft, gcgfrft at
    lambda 0.5). The coupling is 16x16 and nearly free; every epoch multiplies
    by dense 512x512 factors."""

    name = "spatial_heavy"
    round_ops = 3
    prefix_ops = 6
    families = ("gbfrft2d", "jfrft", "gcgfrft")
    sigma = 0.9
    lam = 0.5

    def _pair(self, i):
        fs = self.fs
        s = op_seed(self.seed, i)
        x = fs.synth_signal(self.ctx.spatial, 16, bandwidth=0.3, seed=s)
        return x, fs.add_awgn(x, self.sigma, seed=s + 1)

    def setup(self, i):
        fs = self.fs
        g1 = fs.GraphSpec(kind="knn_random", n=512, k=4, seed=7).build()
        self.ctx = fs.TransformContext(g1, fs.path_graph(16))
        self.ctx.plan("gcgfrft", (0.5, 0.5), lam=self.lam)
        self.ready = {i: self._pair(i)}

    def inputs(self, i):
        x, y = self.ready.pop(i) if i in self.ready else self._pair(i)
        return {"family": self.families[i % len(self.families)], "x": x, "y": y, "i": i}

    def op(self, inp):
        fs = self.fs
        family, x, y = inp["family"], inp["x"], inp["y"]
        lam = self.lam if family == "gcgfrft" else None
        params, _ = fs.train(y, x, lam, fs.TrainConfig.adam(), self.ctx, family=family)
        est = fs.denoise(y, params, self.ctx, family=family)
        return params, est, fs.metrics(x, est)

    def check(self, inp, out):
        fs = self.fs
        params, est, score = out
        family, x, y = inp["family"], inp["x"].as_real(), inp["y"]
        checks.check_mse(est.as_real(), x, score.mse, family)
        checks.check_beats_noisy(est.as_real(), y.as_real(), x, family)
        if inp["i"] < self.prefix_ops:
            # two applies and a solve: the first operations of every run carry it
            def risk(h):
                p = fs.FilterParams(alpha=params.alpha, beta=params.beta, h=h, lam=params.lam)
                return checks.mse(fs.denoise_complex(y, p, self.ctx, family=family).data, x)

            h_cf = fs.closed_form_h(y, inp["x"], params, self.ctx, family=family)
            checks.check_convexity(risk(h_cf), risk(params.h))
        return checks.psnr(est.as_real(), x) - checks.psnr(y.as_real(), x)


class TemporalCli(Workload):
    """``fracspec denoise`` as a child process on 64x128 signals
    (knn_random(64, k=4, seed=7) x path(128)) written beforehand by
    ``fracspec gen``: gcgfrft, a 3-point lambda grid, Adam for a few epochs.
    Every new temporal order costs a 128x128 coupling build and Schur; the
    command also retrains at the best lambda, so one run trains 4 times."""

    name = "temporal_cli"
    prefix_ops = 2
    rss_children = True
    spatial = {"kind": "knn_random", "n": 64, "k": 4, "seed": 7}
    n2 = 128
    epochs = 5

    def _cmd(self, args, trace_name):
        # the traced run goes through a shim that wraps the same entry points
        # in the child process before calling the CLI
        if self.traced:
            trace = os.path.join(self.workdir, f"{trace_name}.trace.json")
            self.child_traces.append(trace)
            head = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_shim.py"), trace]
        else:
            head = [sys.executable, "-m", "fracspec.cli"]
        proc = subprocess.run(head + args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return proc.returncode

    def _gen(self, i):
        out = os.path.join(self.workdir, f"in{i}")
        code = self._cmd(["gen", "--config", self.gen_cfg, "--seed", str(op_seed(self.seed, i)),
                          "--out", out], f"gen{i}")
        if code != 0:
            raise RuntimeError(f"fracspec gen exited with {code}")
        return out

    def setup(self, i):
        fs = self.fs
        # the in-process context re-applies the learned parameters in check()
        g1 = fs.GraphSpec.from_dict(self.spatial).build()
        self.ctx = fs.TransformContext(g1, fs.path_graph(self.n2))
        self.ctx.plan("gcgfrft", (0.5, 0.5), lam=0.5)
        self.gen_cfg = os.path.join(self.workdir, "gen.json")
        self.denoise_cfg = os.path.join(self.workdir, "denoise.json")
        with open(self.gen_cfg, "w") as fh:
            json.dump({"spatial": self.spatial, "n2": self.n2, "bandwidth": 0.3, "sigma": 0.9}, fh)
        with open(self.denoise_cfg, "w") as fh:
            json.dump({"spatial": self.spatial, "temporal": {"kind": "path", "n": self.n2},
                       "family": "gcgfrft", "lambda_grid": [0.0, 0.5, 1.0],
                       "train": {"optimizer": "adam", "lr_orders": 0.02, "lr_filter": 0.02,
                                 "epochs": self.epochs}}, fh)
        # a child process writes the inputs: process start and import count
        self._gen(i)

    def inputs(self, i):
        src = os.path.join(self.workdir, f"in{i}")
        if not os.path.isdir(src):
            self._gen(i)
        return {"in": src, "out": os.path.join(self.workdir, f"out{i}"), "i": i}

    def op(self, inp):
        return self._cmd(["denoise", "--config", self.denoise_cfg,
                          "--noisy", os.path.join(inp["in"], "noisy.csv"),
                          "--clean", os.path.join(inp["in"], "clean.csv"),
                          "--out", inp["out"]], f"denoise{inp['i']}")

    def check(self, inp, code):
        fs = self.fs
        checks.check_exit_code(code)
        x = np.loadtxt(os.path.join(inp["in"], "clean.csv"), delimiter=",", ndmin=2)
        y = np.loadtxt(os.path.join(inp["in"], "noisy.csv"), delimiter=",", ndmin=2)
        est = np.loadtxt(os.path.join(inp["out"], "estimate.csv"), delimiter=",", ndmin=2)
        with open(os.path.join(inp["out"], "params.json")) as fh:
            p = json.load(fh)
        with open(os.path.join(inp["out"], "grid.csv"), newline="") as fh:
            grid = {float(r["lambda"]): r for r in csv.DictReader(fh)}
        params = fs.FilterParams(alpha=p["alpha"], beta=p["beta"], lam=p["lambda"],
                                 h=np.asarray(p["h"]).reshape(p["h_shape"]))
        ysig = fs.TimeVertexSignal.from_array(y)
        checks.check_same(est, fs.denoise(ysig, params, self.ctx).as_real(),
                          "estimate.csv against params.json re-applied")
        # the grid loss is the risk of the complex estimate at the best lambda
        est_complex = fs.denoise_complex(ysig, params, self.ctx).data
        checks.check_mse(est_complex, x, float(grid[p["lambda"]]["loss"]), "grid.csv loss")
        checks.check_beats_noisy(est, y, x, "estimate.csv")
        shutil.rmtree(inp["in"])
        shutil.rmtree(inp["out"])
        return checks.psnr(est, x) - checks.psnr(y, x)


class OrderSweep(Workload):
    """The oracle Wiener filter of the transform comparison at
    knn_random(128, k=4, seed=7) x path(256), sigma 0.9: for each fresh
    (clean, noisy) pair, ``closed_form_h`` then ``denoise`` for each family
    over a fixed 3x3 order grid (gcgfrft at lambda 0.5). Nothing trains, and
    set-up decomposes the coupling at every temporal order of the grid, so
    every coupling request in an operation is a cache hit."""

    name = "order_sweep"
    orders = ORDER_SWEEP_ORDERS
    grid = tuple((f, a, b) for f in ORDER_SWEEP_FAMILIES
                 for a in ORDER_SWEEP_ORDERS for b in ORDER_SWEEP_ORDERS)
    round_ops = len(grid)
    prefix_ops = 4 * len(grid)
    tail = True
    sigma = 0.9
    lam = 0.5

    def _pair(self, r):
        fs = self.fs
        s = op_seed(self.seed, r)
        x = fs.synth_signal(self.ctx.spatial, 256, bandwidth=0.3, seed=s)
        return x, fs.add_awgn(x, self.sigma, seed=s + 1)

    def setup(self, i):
        fs = self.fs
        g1 = fs.GraphSpec(kind="knn_random", n=128, k=4, seed=7).build()
        self.ctx = fs.TransformContext(g1, fs.path_graph(256))
        for b in self.orders:
            self.ctx.coupling(b)
        r = i // self.round_ops
        self.ready = {r: self._pair(r)}

    def inputs(self, i):
        r, k = divmod(i, self.round_ops)
        if k == 0:
            self.pair = self.ready.pop(r) if r in self.ready else self._pair(r)
        family, a, b = self.grid[i % self.round_ops]
        return {"family": family, "orders": (a, b), "x": self.pair[0], "y": self.pair[1], "i": i,
                "lam": self.lam if family == "gcgfrft" else None}

    def op(self, inp):
        fs = self.fs
        family, (a, b), x, y = inp["family"], inp["orders"], inp["x"], inp["y"]
        params = fs.FilterParams(alpha=a, beta=b, h=np.ones(x.shape), lam=inp["lam"] or 0.0)
        params.h = fs.closed_form_h(y, x, params, self.ctx, family=family)
        est = fs.denoise(y, params, self.ctx, family=family)
        return est, fs.metrics(x, est)

    def check(self, inp, out):
        fs = self.fs
        est, score = out
        family, x, y = inp["family"], inp["x"].as_real(), inp["y"]
        checks.check_mse(est.as_real(), x, score.mse, family)
        checks.check_beats_noisy(est.as_real(), y.as_real(), x, family)
        if inp["i"] < self.prefix_ops:
            # every plan of the grid, on the first four pairs
            plan = self.ctx.plan(family, inp["orders"], lam=inp["lam"])
            yhat = fs.forward(plan, y)
            checks.check_unitary(y.data, yhat.data, fs.inverse(plan, yhat).data,
                                 f"{family} at {inp['orders']}")
        if inp["i"] == 0:
            checks.check_jfrft_is_dft(y.data, fs.forward(self.ctx.plan("jfrft", (0.0, 1.0)), y).data)
            checks.check_gbfrft_is_sine_transform(
                y.data, fs.forward(self.ctx.plan("gbfrft2d", (0.0, 1.0)), y).data)
        return checks.psnr(est.as_real(), x) - checks.psnr(y.as_real(), x)


WORKLOADS = {w.name: w for w in (DeskSweep, SpatialHeavy, TemporalCli, OrderSweep)}
