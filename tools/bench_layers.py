"""Layer timings of the unitary eigendecompositions, the factored applies and
training epochs at the fixed benchmark sizes, of a cold import of the CLI and
of one graph of the desk-scale benchmark sweep.

Times, in wall-clock milliseconds:

- ``phase_decompose`` on a stack of coupling operators and a cache-miss
  ``TransformContext.coupling`` (the ``W`` stack, its decomposition and the
  geodesic factors), at the spatial x temporal sizes 30x10 (the desk sweep,
  with 1 and 11 temporal orders), 256x16 and 512x16 (spatial-heavy), 64x128
  (temporal-heavy, with 1 and 3 orders) and 128x256. Only the temporal size
  enters the coupling; the spatial size names the workload. A request of
  several orders also gets a ``hit`` row: a ``gcgfrft`` plan of those orders
  served entirely from the coupling cache, which stacks the cached rows.
- the one-off eigenphase decomposition of a graph-Fourier basis
  (``SpectralBasis.fourier_phase_decomposition``) of the k-NN graphs of 512,
  128 and 30 random points (the spatial graphs of ``spatial_heavy``,
  ``order_sweep`` and ``desk_sweep``) and of path(256) and path(10); for
  knn512 also the real ``eigh`` of the symmetric part ``(V + V^T) / 2``
  alone, which is numpy's and the same on both sides of a comparison.
- the graph bases of a 64x128 context (k-NN graph of 64 random points and
  path(128)): both adjacency eigendecompositions and both eigenphase
  decompositions, the set-up of every ``temporal_cli`` child process.
- ``python -c "import fracspec.cli"`` in a child process: what every CLI
  command pays before it starts.
- ``forward`` and ``inverse`` of a ``gbfrft2d`` plan (real factors on both
  sides) and a ``gcgfrft`` plan (complex geodesic factors on the columns) at
  30x10, 256x16 and 512x16; one Adam epoch of ``train`` (gcgfrft, lambda
  0.5) at 256x16 and 512x16, and at 512x16 also of gbfrft2d and jfrft; one
  epoch of the 11-lane GD grid of ``lambda_grid_search`` at 30x10, and of
  its 3-lane Adam grid (gcgfrft, lambda 0, 0.5 and 1) at 64x128 (the
  ``temporal_cli`` training). An epoch row times ``EPOCHS`` epochs from a
  fresh context (cold coupling cache, warm graph bases) and divides by
  ``EPOCHS``.
- at 128x256 (the ``order_sweep`` size: knn_random(128, k=4, seed=7) x
  path(256)), ``forward`` of a real signal, ``inverse`` of its spectrum and
  its real projection ``apply_inverse(real=True)`` (the path of ``denoise``)
  for ``gbfrft2d``, ``jfrft`` and ``gcgfrft`` (lambda 0.5) at orders
  (0.5, 0.5); a ``gcgfrft`` plan there and its dense column matrix, at a
  coupling value other than the one last asked for at that temporal order
  (the matrix is built) and again at the same one (it is shared); and one
  ``closed_form_h`` then ``denoise`` of each of the three families there:
  one ``order_sweep`` operation at one grid point. The calls take two noisy
  draws in turn, so, as in ``order_sweep``, each ``closed_form_h`` meets an
  observation that the context's observation entry does not hold, and the
  ``denoise`` after it meets the one it does.
- ``run_benchmark`` on one graph of the desk-scale acceptance sweep:
  knn_random(30, k=4, seed=7) x path(10), gcgfrft only, 3 noise levels x 5
  seeds x 11 coupling values, 200 GD epochs. It runs once per round in a
  fresh child process, which reports its time (every round's in
  ``runs_ms``) and its peak resident set size (``peak_rss_mib``, the largest
  over the rounds), imports included. The peak is the child's ``VmHWM``
  (Linux): ``getrusage`` would report the worker's larger peak, which a
  forked child inherits.

BLAS is pinned to one thread before numpy loads, every worker process pins
itself to one CPU (its import children inherit the pin), and the record
names the machine.

    python tools/bench_layers.py [--baseline SRC] > record.json

One long-lived worker process per checkout times the rows, and this process
asks the two for each row in turn, alternating which goes first, so that a
row's two sides are timed seconds apart: a shared host's speed drifts over
seconds, and workers timed one after the other, about 15 s each, could not
resolve a change under about 40%. Each of the 5 rounds times every row once
on each side; a worker times a row a fixed number of calls (``reps`` in the
record). A row reports the best time over all rounds and the median of the
rounds' medians. With ``--baseline`` (the ``src`` directory of another
checkout, e.g. the parent commit) every row also holds the baseline's
times, the speedups of both statistics, and ``faster_in``: in how many
rounds the checkout's median beat the baseline's of the same round ("k of
n"). On a shared host the best time of a side can hinge on one quiet
moment, so read the speedups together with ``faster_in``.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: (spatial n1, temporal n2, numbers of temporal orders per request)
SIZES = ((30, 10, (1, 11)), (256, 16, (1,)), (512, 16, (1,)), (64, 128, (1, 3)), (128, 256, (1,)))
#: (row name, graph kind, n, repetitions) of the basis decompositions
BASES = (("knn512", "knn", 512, 3), ("knn128", "knn", 128, 20), ("knn30", "knn", 30, 200),
         ("path256", "path", 256, 10), ("path10", "path", 10, 200))
#: repetitions of the 64x128 context's basis set-up
CONTEXT_REPS = 20
IMPORT_REPS = 10
ROUNDS = 5
REPS = 200
#: (spatial n1, temporal n2, repetitions of an epoch row) of the applies and epochs
TRAIN_SIZES = ((30, 10, 10), (256, 16, 10), (512, 16, 5))
#: families besides gcgfrft whose Adam epoch is timed at 512x16
SPATIAL_HEAVY_FAMILIES = ("gbfrft2d", "jfrft")
#: (spatial n1, temporal n2, repetitions) of the 3-lane Adam grid epoch
TEMPORAL_GRID = (64, 128, 3)
#: epochs per timed training call
EPOCHS = 10
#: (spatial n1, temporal n2, repetitions) of the real-signal applies and the
#: closed-form Wiener filter
REAL_SIZE = (128, 256, 20)
#: the desk-sweep child: its run_benchmark time and peak RSS, as JSON
SWEEP = """
import json, time
import fracspec as fs
cfg = fs.BenchmarkConfig(families=("gcgfrft",))
t0 = time.perf_counter()
fs.run_benchmark(cfg)
ms = (time.perf_counter() - t0) * 1e3
with open("/proc/self/status") as fh:
    peak_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"ms": ms, "rss_mib": peak_kib / 1024}))
"""
#: how ``combine`` merges one statistic over the rounds
MERGE = {"best_ms": min, "median_ms": statistics.median, "peak_rss_mib": max,
         "runs_ms": lambda runs: [ms for run in runs for ms in run]}


def machine() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def layer_rows():
    """Time every size in this process, yielding one row at a time;
    ``fracspec`` is the one on sys.path."""
    import numpy as np

    import fracspec as fs

    def timed(fn, n, per=1):
        samples = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e3 / per)
        return {"best_ms": min(samples), "median_ms": statistics.median(samples)}

    for name, kind, n, reps in BASES:
        g = fs.knn_graph(fs.random_planar_points(n, seed=7), 4) if kind == "knn" else fs.path_graph(n)
        basis = fs.eigendecompose(g)
        layers = {"fourier_phase_decomposition": timed(
            lambda: fs.SpectralBasis(v=basis.v, lam=basis.lam).fourier_phase_decomposition, reps)}
        if n == 512:
            layers["symmetric_eigh"] = timed(lambda: np.linalg.eigh((basis.v + basis.v.T) * 0.5), reps)
        yield {"row": f"basis {name}", "reps": reps, "layers": layers}
    g1 = fs.GraphSpec.from_dict({"kind": "knn_random", "n": 64, "k": 4, "seed": 7}).build()
    g2 = fs.path_graph(128)
    yield {"row": "bases knn64 x path128", "reps": CONTEXT_REPS, "layers": {
        "context_bases": timed(lambda: fs.TransformContext(g1, g2).plan("gbfrft2d", (0.5, 0.5)),
                               CONTEXT_REPS)}}
    cold = [sys.executable, "-c", "import fracspec.cli"]
    yield {"row": "import fracspec.cli", "reps": IMPORT_REPS, "layers": {
        "cold_import": timed(lambda: subprocess.run(cold, check=True), IMPORT_REPS)}}
    for n1, n2, batches in SIZES:
        ctx = fs.TransformContext(fs.knn_graph(fs.random_planar_points(n1, seed=7), 4),
                                  fs.path_graph(n2))
        ctx.plan("gbfrft2d", (0.5, 0.5))  # the graph-Fourier bases are one-off set-up
        for b in batches:
            betas = np.linspace(0.45, 0.55, b) if b > 1 else np.array([0.5])
            w = fs.coupling_operator(fs.graph_frft(ctx.temporal, betas), fs.dfrft_matrix(n2, betas))
            # n2 >= 128 takes tens of milliseconds per call: fewer repetitions
            n = REPS if n2 < 128 else REPS // 20
            yield {"row": f"coupling {n1}x{n2} x{b}", "reps": n, "layers": {
                "phase_decompose": timed(lambda: fs.phase_decompose(w), n),
                "coupling_miss": timed(lambda: fs.TransformContext(
                    ctx.spatial, ctx.temporal).coupling(betas), n)}}
            if b > 1:
                # every order cached: the plan stacks the entries' rows; a
                # batch has one column operator, so lam stays inside (0, 1)
                warm = fs.TransformContext(ctx.spatial, ctx.temporal)
                warm.coupling(betas)
                orders, lam = (np.full(b, 0.5), betas), np.linspace(0.1, 0.9, b)
                yield {"row": f"coupling {n1}x{n2} x{b} hit", "reps": REPS, "layers": {
                    "plan_hit": timed(lambda: warm.plan("gcgfrft", orders, lam=lam), REPS)}}
    for n1, n2, reps in TRAIN_SIZES:
        ctx = fs.TransformContext(fs.knn_graph(fs.random_planar_points(n1, seed=7), 4),
                                  fs.path_graph(n2))
        x = fs.synth_signal(ctx.spatial, n2, bandwidth=0.3, seed=1)
        y = fs.add_awgn(x, 0.9, seed=2)
        layers = {}
        for family, lam in (("gbfrft2d", None), ("gcgfrft", 0.5)):
            plan = ctx.plan(family, (0.5, 0.5), lam=lam)
            yhat = fs.forward(plan, y)
            layers[f"forward_{family}"] = timed(lambda: fs.forward(plan, y), REPS)
            layers[f"inverse_{family}"] = timed(lambda: fs.inverse(plan, yhat), REPS)
        yield {"row": f"apply {n1}x{n2}", "reps": REPS, "layers": layers}

        def epochs(family="gcgfrft"):
            # a fresh context: the coupling cache starts cold, the bases are kept
            fresh = fs.TransformContext(ctx.spatial, ctx.temporal)
            if n1 == 30:
                grid = [round(0.1 * i, 1) for i in range(11)]
                fs.lambda_grid_search(y, x, grid, fs.TrainConfig(epochs=EPOCHS), fresh)
            else:
                lam = 0.5 if family == "gcgfrft" else None
                fs.train(y, x, lam, fs.TrainConfig.adam(epochs=EPOCHS), fresh, family=family)

        name = "gd_epoch_11_lanes" if n1 == 30 else "adam_epoch"
        layers = {name: timed(epochs, reps, EPOCHS)}
        if n1 == 512:
            for family in SPATIAL_HEAVY_FAMILIES:
                layers[f"adam_epoch_{family}"] = timed(lambda: epochs(family), reps, EPOCHS)
        yield {"row": f"train {n1}x{n2}", "reps": reps, "layers": layers}
    n1, n2, reps = TEMPORAL_GRID
    ctx = fs.TransformContext(fs.GraphSpec(kind="knn_random", n=n1, k=4, seed=7).build(),
                              fs.path_graph(n2))
    x = fs.synth_signal(ctx.spatial, n2, bandwidth=0.3, seed=1)
    y = fs.add_awgn(x, 0.9, seed=2)

    def grid_epochs():
        fresh = fs.TransformContext(ctx.spatial, ctx.temporal)
        fs.lambda_grid_search(y, x, [0.0, 0.5, 1.0], fs.TrainConfig.adam(epochs=EPOCHS), fresh)

    yield {"row": f"train {n1}x{n2}", "reps": reps, "layers": {
        "adam_epoch_3_lanes": timed(grid_epochs, reps, EPOCHS)}}
    n1, n2, reps = REAL_SIZE
    ctx = fs.TransformContext(fs.GraphSpec(kind="knn_random", n=n1, k=4, seed=7).build(),
                              fs.path_graph(n2))
    x = fs.synth_signal(ctx.spatial, n2, bandwidth=0.3, seed=1)
    y = fs.add_awgn(x, 0.9, seed=2)
    layers = {}
    for family, lam in (("gbfrft2d", None), ("jfrft", None), ("gcgfrft", 0.5)):
        plan = ctx.plan(family, (0.5, 0.5), lam=lam)
        yhat = fs.forward(plan, y)
        layers[f"forward_real_{family}"] = timed(lambda: fs.forward(plan, y), reps)
        layers[f"inverse_{family}"] = timed(lambda: fs.inverse(plan, yhat), reps)
        layers[f"inverse_real_{family}"] = timed(
            lambda: plan.apply_inverse(yhat.data, real=True), reps)
    # the coupling values alternate, so each plan asks for a new matrix
    lams = itertools.cycle((0.25, 0.75))
    layers["plan_new_lam_gcgfrft"] = timed(
        lambda: ctx.plan("gcgfrft", (0.5, 0.5), lam=next(lams)).col_op.matrix, reps)
    ctx.plan("gcgfrft", (0.5, 0.5), lam=0.5).col_op.matrix
    layers["plan_same_lam_gcgfrft"] = timed(
        lambda: ctx.plan("gcgfrft", (0.5, 0.5), lam=0.5).col_op.matrix, reps)
    yield {"row": f"apply {n1}x{n2} real", "reps": reps, "layers": layers}
    params = fs.FilterParams(alpha=0.5, beta=0.5, h=np.ones(x.shape), lam=0.5)
    # two noisy draws in turn, so that each fit meets a new observation
    draws = itertools.cycle((y, fs.add_awgn(x, 0.9, seed=3)))

    def wiener(family):
        obs = next(draws)
        params.h = fs.closed_form_h(obs, x, params, ctx, family=family)
        fs.denoise(obs, params, ctx, family=family)

    yield {"row": f"wiener {n1}x{n2}", "reps": reps, "layers": {
        f"closed_form_h_denoise_{family}": timed(lambda: wiener(family), reps)
        for family in ("gbfrft2d", "jfrft", "gcgfrft")}}
    run = json.loads(subprocess.run([sys.executable, "-c", SWEEP], check=True, capture_output=True,
                                    text=True).stdout)
    yield {"row": "run_benchmark knn30 k=4 x path10 gcgfrft", "reps": 1, "layers": {
        "desk_sweep_graph": {"best_ms": run["ms"], "median_ms": run["ms"], "runs_ms": [run["ms"]],
                             "peak_rss_mib": run["rss_mib"]}}}


def serve() -> None:
    """The worker: one row of ``layer_rows`` per line read from stdin, as a
    line of JSON, and ``null`` once a round's rows are done; the next line
    starts the next round."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rows = layer_rows()
    for _ in sys.stdin:
        row = next(rows, None)
        if row is None:
            rows = layer_rows()
        sys.stdout.write(json.dumps(row) + "\n")
        sys.stdout.flush()


class Worker:
    """A long-lived worker process that imports ``fracspec`` from ``src``."""

    def __init__(self, src: str):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker"],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def next_row(self):
        """The worker's next row, or None at the end of a round."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def combine(rounds: list) -> list:
    """Best over all rounds, median of the rounds' medians and the largest
    peak RSS, per row."""
    rows = []
    for per_round in zip(*rounds):
        layers = {layer: {stat: MERGE[stat](r["layers"][layer][stat] for r in per_round)
                          for stat in stats}
                  for layer, stats in per_round[0]["layers"].items()}
        rows.append({"row": per_round[0]["row"], "reps": per_round[0]["reps"], "layers": layers})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="src directory of the checkout to compare against")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        serve()
        return 0

    sides = {"after": SRC} if not args.baseline else {"before": args.baseline, "after": SRC}
    workers = {side: Worker(src) for side, src in sides.items()}
    results = {side: [] for side in sides}
    try:
        for r in range(ROUNDS):
            for side in sides:
                results[side].append([])
            # each row alternately on each side first, seconds apart
            for i in itertools.count():
                for side in (list(sides) if (r + i) % 2 == 0 else list(sides)[::-1]):
                    row = workers[side].next_row()
                    if row is not None:
                        results[side][r].append(row)
                if row is None:
                    break
    finally:
        for w in workers.values():
            w.close()
    combined = {side: combine(res) for side, res in results.items()}
    rows = []
    for i, after in enumerate(combined["after"]):
        row = {"row": after["row"], "reps": after["reps"], "after": after["layers"]}
        if args.baseline:
            before = combined["before"][i]["layers"]
            row["before"] = before
            for stat in ("best", "median"):
                row[f"speedup_{stat}"] = {layer: round(before[layer][f"{stat}_ms"] / t[f"{stat}_ms"], 2)
                                          for layer, t in after["layers"].items()}
            # a round's row ran on both sides back to back: compare them pairwise
            wins = {layer: sum(a[i]["layers"][layer]["median_ms"] < b[i]["layers"][layer]["median_ms"]
                               for a, b in zip(results["after"], results["before"]))
                    for layer in after["layers"]}
            row["faster_in"] = {layer: f"{k} of {ROUNDS}" for layer, k in wins.items()}
        rows.append(row)
    record = {"machine": machine(), "rounds": ROUNDS, "rows": rows}
    sys.stdout.write(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
