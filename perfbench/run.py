"""fracspec benchmark: one workload, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 25 --trace 0

Workloads: desk_sweep, spatial_heavy, temporal_cli, order_sweep (see
perfbench/README.md). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it records the run conditions. A fuller record of the run goes to
``perfbench/out/``.

BLAS is pinned to one thread before numpy is imported: with OpenBLAS at its
default thread count the dense applies run slower and much less steadily on
a small host. The run pins itself to one CPU, times a short host probe before
and after every timed sample, and reports timings scaled to a reference host
speed (see README.md, Run conditions); the unscaled timings are in the run
record.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["desk_sweep", "spatial_heavy", "temporal_cli", "order_sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def import_program():
    """Import fracspec from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fracspec", "__init__.py")):
        raise SystemExit(f"error: no fracspec sources under {SRC}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    import fracspec

    if os.path.dirname(os.path.abspath(fracspec.__file__)) != os.path.join(SRC, "fracspec"):
        raise SystemExit(f"error: imported fracspec from {fracspec.__file__}, not {SRC}")
    return fracspec


def clear_caches(fs) -> None:
    """Drop the program's process-wide memo caches (``functools.lru_cache``,
    e.g. the DFRFT eigenstructure), so each set-up repetition pays its full
    cost."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "fracspec" or name.startswith("fracspec.")):
            continue
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def main(argv=None) -> int:
    args = parse_args(argv)
    fs = import_program()
    import numpy as np

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(fs, np, args, workdir, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: timings are scaled to a host on which the host probe takes this long
PROBE_REF_MS = 1.0


def pin_one_cpu():
    """Run this process and its children on one CPU, so that the host probes
    time the CPU the work runs on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_factors(samples):
    """Host factor of each (seconds, probe before, probe after) sample: the
    mean of the probes around it over ``PROBE_REF_MS``. Above 1 the host ran
    slower than the reference speed while the sample was timed."""
    return [(before + after) / (2.0 * PROBE_REF_MS) for _, before, after in samples]


def sample_ms(samples, scaled):
    """Sample durations in ms, sorted; if ``scaled``, at the reference host
    speed."""
    factors = host_factors(samples) if scaled else [1.0] * len(samples)
    return sorted(t * 1e3 / f for (t, _, _), f in zip(samples, factors))


def summary(setups, ops, tail, scaled=True):
    """The timing metrics. ``op_ms_p98`` is the nearest-rank 98th percentile
    where a run has a tail (``tail``); elsewhere a run has too few operations
    for one and the median stands in for it."""
    setup_ms, op_ms = sample_ms(setups, scaled), sample_ms(ops, scaled)
    p50 = statistics.median(op_ms)
    return {
        "setup_s": statistics.median(setup_ms) / 1e3,
        "throughput_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_ms_p50": p50,
        "op_ms_p98": op_ms[math.ceil(0.98 * len(op_ms)) - 1] if tail else p50,
    }


def measure(fs, np, args, workdir, tag) -> int:
    import conditions
    from checks import CheckFailed
    from tracer import Tracer, layer_metrics, merge
    from workloads import WORKLOADS

    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    span = tracer.span if traced else (lambda name: nullcontext())
    paused = tracer.paused if traced else nullcontext
    probe = conditions.host_probe_ms

    machine = conditions.machine(np)
    machine["pinned_cpu"] = pin_one_cpu()
    probe_start = conditions.reference_probe_ms()
    if traced:
        tracer.install()
    w = WORKLOADS[args.workload](fs, args.seed, workdir, traced)
    setups, ops, gains, failures, check_errors = [], [], [], [], []
    i = 0
    try:
        timed, rnd = 0.0, 0
        while True:
            for _ in range(w.setup_per_round if rnd < w.setup_rounds else 0):
                clear_caches(fs)
                before = probe()
                t0 = time.perf_counter()
                with span("bench.setup"):
                    w.setup(i)
                setups.append((time.perf_counter() - t0, before, probe()))
            # probes bracket every operation and nothing else: a round's
            # inputs are made before it and its outputs checked after it
            batch = [(j, w.inputs(j)) for j in range(i, i + w.round_ops)]
            probes, done = [probe()], []
            for j, inp in batch:
                t0 = time.perf_counter()
                try:
                    with span("bench.op"):
                        out = w.op(inp)
                except fs.FracspecError as err:
                    failures.append(f"op {j}: {type(err).__name__}: {err}")
                else:
                    done.append((j, inp, out, time.perf_counter() - t0, len(probes) - 1))
                probes.append(probe())
            for j, inp, out, dt, k in done:
                ops.append((dt, probes[k], probes[k + 1]))
                timed += dt
                with paused():
                    try:
                        gain = w.check(inp, out)
                    except CheckFailed as err:
                        check_errors.append(f"op {j}: {err}")
                    else:
                        if j < w.prefix_ops:
                            gains.append(gain)
            i += w.round_ops
            rnd += 1
            if i >= w.prefix_ops and (traced or timed >= args.seconds):
                break
    finally:
        if traced:
            tracer.uninstall()
    probe_end = conditions.reference_probe_ms()

    for msg in failures + check_errors:
        print(msg, file=sys.stderr)
    who = resource.RUSAGE_CHILDREN if w.rss_children else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0
    factors = host_factors(setups + ops)

    if traced:
        agg, counts = tracer.aggregate(), Counter(tracer.counts)
        for path in w.child_traces:
            with open(path) as fh:
                child = json.load(fh)
            merge(agg, counts, child["aggregate"], child["counts"])
        metrics = layer_metrics(agg, counts)
        tracer.write(os.path.join(OUT, f"trace-{tag}.json.gz"),
                     extra={"merged_aggregate": agg, "merged_counts": dict(counts)})
    elif ops:
        units = {"setup_s": "s", "throughput_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p98": "ms"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in summary(setups, ops, w.tail).items()}
        metrics["psnr_gain_db"] = {"value": statistics.fmean(gains), "unit": "dB"}
        metrics["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    else:
        metrics = {}

    run_conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine,
        "reference_probe_ms": {"start": probe_start, "end": probe_end},
        "host_factor": {"median": statistics.median(factors), "min": min(factors),
                        "max": max(factors)},
        "unscaled": summary(setups, ops, w.tail, scaled=False) if ops else None,
        "setup": [list(s) for s in setups], "ops": [list(o) for o in ops],
        "prefix_gains_db": gains, "peak_rss_mib": peak_rss_mib,
        "failures": failures, "check_errors": check_errors, "notes": dict(w.notes),
    }
    result = {"correct": not check_errors, "attempted": i, "failed": len(failures),
              "metrics": metrics}
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump({"conditions": run_conditions, "result": result}, fh, indent=1)
    print("conditions " + json.dumps({k: run_conditions[k] for k in
                                      ("machine", "reference_probe_ms", "host_factor", "unscaled")}))
    print(json.dumps(result))
    return 0 if ops else 1


if __name__ == "__main__":
    sys.exit(main())
