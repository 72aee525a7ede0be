"""Command-line interface.

Subcommands: gen (synthesize a seeded signal), transform (apply a plan),
denoise (train and estimate on one instance), benchmark (full sweep),
verify (property suite), dump-operator (export an operator matrix).

Exit codes: 0 success, 1 invariant failure, 2 configuration error,
3 coupling-margin (principal logarithm) violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING

import numpy as np

from . import io as fio
from .coupling import geodesic_temporal_basis
from .errors import ConfigError, FracspecError, MarginViolationError, read_config, with_default
from .harness import (BENCHMARK, GRAPH_SPEC, BenchmarkConfig, GraphSpec, add_awgn, run_benchmark,
                      synth_signal)
from .operators import dfrft_matrix, eigendecompose, graph_frft
from .transforms import CONSTRAINTS, FAMILIES, TimeVertexSignal, TransformContext, forward, inverse
from .wiener import lambda_grid_search, denoise, train
from .properties import verify_properties

__all__ = ["main"]


#: a required graph spec
_SPEC = (GraphSpec, MISSING, GRAPH_SPEC)
#: the keys that transform and denoise share; only a family with a free lam reads "lambda"
_RUN = {"spatial": _SPEC, "temporal": _SPEC, "family": (str, "gcgfrft", FAMILIES),
        "lambda": (float, None, "[0, 1]", None, "coupling parameter must be a number in [0, 1]")}
#: the config table of each ``dump-operator`` kind
_DUMP = {"dfrft": {"n": with_default(GRAPH_SPEC["n"], MISSING), "order": (float, 1.0)},
         "gft": {"graph": _SPEC}, "graph_frft": {"graph": _SPEC, "order": (float, 1.0)},
         "geodesic_temporal": {"temporal": _SPEC, "order": (float, 0.5),
                               "lambda": with_default(_RUN["lambda"], 0.5)}}
#: the config table of each command (see ``errors.read_config``)
TABLES = {
    "gen": {"spatial": BENCHMARK["spatial"], "n2": with_default(GRAPH_SPEC["n"], 10),
            "bandwidth": BENCHMARK["bandwidth"], "sigma": (float, 0.0, "[0, inf)"),
            "seed": GRAPH_SPEC["seed"]},
    "transform": {**_RUN, "orders": ((float, [float]), (0.5, 0.5))},
    "denoise": {**_RUN, "lambda_grid": BENCHMARK["lambda_grid"], "train": BENCHMARK["train"]},
    "benchmark": BENCHMARK,
    **{f"dump-operator {kind}": table for kind, table in _DUMP.items()},
}


def _load_config(path: str | None) -> dict:
    """The JSON object in the file ``path``; none is an empty one."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _context_and_signals(cfg: dict, *paths) -> tuple:
    """The context of the config's graphs and the signals in the files
    ``paths``. The signals are read, and their shapes checked against the
    graphs, before the context decomposes anything."""
    if cfg["lambda"] is not None and CONSTRAINTS[cfg["family"]].lam is not None:
        raise ConfigError(f"'lambda' applies to the gcgfrft family only, not to {cfg['family']!r}")
    sigs = [TimeVertexSignal.from_array(fio.read_signal(path)[0]) for path in paths]
    g1, g2 = cfg["spatial"].build(), cfg["temporal"].build()
    if any(sig.shape != sigs[0].shape for sig in sigs):
        raise ValueError(f"shape mismatch: {sigs[0].shape} vs {sigs[-1].shape}")
    if sigs[0].shape != (g1.n, g2.n):
        raise ValueError(f"signal shape {sigs[0].shape} does not match plan {(g1.n, g2.n)}")
    return TransformContext(g1, g2), *sigs


def _cmd_gen(args) -> int:
    raw = _load_config(args.config)
    cfg = read_config(TABLES["gen"], raw)
    bandwidth, sigma = float(cfg["bandwidth"]), float(cfg["sigma"])
    seed = args.seed if args.seed is not None else cfg["seed"]
    out = args.out or "."
    os.makedirs(out, exist_ok=True)

    g1 = cfg["spatial"].build()
    x = synth_signal(g1, cfg["n2"], bandwidth=bandwidth, seed=seed)
    meta = {"bandwidth": bandwidth, "seed": seed, "spatial": raw.get("spatial"), "sigma": sigma}
    fio.write_signal(x.as_real(), os.path.join(out, "clean.csv"), meta=meta)
    if sigma > 0:
        y = add_awgn(x, sigma, seed=seed + 1)
        fio.write_signal(y.as_real(), os.path.join(out, "noisy.csv"), meta=meta)
    print(f"wrote {out}/clean.csv" + (f" and {out}/noisy.csv" if sigma > 0 else ""))
    return 0


def _cmd_transform(args) -> int:
    cfg = read_config(TABLES["transform"], _load_config(args.config))
    ctx, sig = _context_and_signals(cfg, args.signal)
    family, orders, lam = cfg["family"], cfg["orders"], cfg["lambda"]
    plan = ctx.plan(family, orders, lam=lam)
    result = inverse(plan, sig) if args.inverse else forward(plan, sig)
    out = args.out or "transformed.csv"
    fio.write_signal(result.data, out,
                     meta={"family": family, "orders": np.atleast_1d(orders).tolist(),
                           "lambda": lam, "direction": "inverse" if args.inverse else "forward"})
    print(f"wrote {out}")
    return 0


def _cmd_denoise(args) -> int:
    raw = _load_config(args.config)
    cfg = read_config(TABLES["denoise"], raw)
    family, lam, train_cfg = cfg["family"], cfg["lambda"], cfg["train"]
    search = CONSTRAINTS[family].lam is None and lam is None
    if "lambda_grid" in raw and not search:
        raise ConfigError("'lambda_grid' applies to the gcgfrft family without a 'lambda' only")
    ctx, y, x = _context_and_signals(cfg, args.noisy, args.clean)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)

    if search:
        _, params, table = lambda_grid_search(y, x, cfg["lambda_grid"], train_cfg, ctx)
        with open(os.path.join(out, "grid.csv"), "w") as fh:
            fh.write("lambda,loss,alpha,beta,status\n")
            for row in table:
                if row.params is None:
                    fh.write(f"{row.lam:g},,,,{row.error}\n")
                else:
                    fh.write(f"{row.lam:g},{row.loss:.17g},"
                             f"{row.params.alpha:.17g},{row.params.beta:.17g},ok\n")
        trace = next(row.trace for row in table if row.params is params)
    else:
        params, trace = train(y, x, lam, train_cfg, ctx, family=family)

    est = denoise(y, params, ctx, family=family)
    fio.write_signal(est.data, os.path.join(out, "estimate.csv"),
                     meta={"family": family, "lambda": params.lam})
    fio.write_params_json(params, os.path.join(out, "params.json"))
    fio.write_trace_csv(trace, os.path.join(out, "trace.csv"))
    print(f"wrote {out}/estimate.csv, {out}/params.json, {out}/trace.csv")
    return 0


def _cmd_benchmark(args) -> int:
    cfg = read_config(BENCHMARK, _load_config(args.config), "benchmark config")
    bench = BenchmarkConfig(**{**cfg, "output_dir": args.out or cfg["output_dir"] or "benchmark_out"})
    report = run_benchmark(bench)
    bad = [r for r in report.rows if r.status != "ok"]
    print(f"wrote {bench.output_dir}/report.csv ({len(report.rows)} rows, {len(bad)} failed)")
    return 0


def _cmd_verify(args) -> int:
    report = verify_properties(fault_injection=args.fault)
    text = report.format()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if report.all_passed else 1


def _cmd_dump_operator(args) -> int:
    cfg = _load_config(args.config)
    kind = cfg.pop("kind", "dfrft")
    if not isinstance(kind, str) or kind not in _DUMP:
        raise ConfigError(f"unknown operator kind {kind!r}; expected one of {', '.join(_DUMP)}")
    cfg = read_config(_DUMP[kind], cfg)
    if kind == "dfrft":
        matrix = dfrft_matrix(cfg["n"], cfg["order"]).matrix
    elif kind in ("gft", "graph_frft"):
        basis = eigendecompose(cfg["graph"].build())
        matrix = graph_frft(basis, cfg.get("order", 1.0)).matrix
    else:
        basis = eigendecompose(cfg["temporal"].build())
        coupling = TransformContext(basis, basis).coupling(cfg["order"])
        matrix = geodesic_temporal_basis(graph_frft(basis, cfg["order"]), coupling,
                                         cfg["lambda"]).matrix
    out = args.out or "operator.csv"
    fio.write_operator_csv(matrix, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspec",
        description="Fractional spectral transforms on product graphs and learnable spectral denoising.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output file or directory")

    p = sub.add_parser("gen", help="synthesize a seeded band-limited signal")
    common(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("transform", help="apply a transform plan to a signal file")
    common(p)
    p.add_argument("--signal", required=True, help="input signal CSV")
    p.add_argument("--inverse", action="store_true", help="apply the inverse transform")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("denoise", help="train the spectral filter on one instance")
    common(p)
    p.add_argument("--noisy", required=True, help="noisy observation CSV")
    p.add_argument("--clean", required=True, help="clean reference CSV")
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("benchmark", help="run the full comparison sweep")
    common(p)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--out", help="output file")
    p.add_argument("--fault", action="store_true",
                   help="inject a 1e-3 operator perturbation (the suite must fail)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dump-operator", help="export an operator as interleaved re/im CSV")
    common(p)
    p.set_defaults(func=_cmd_dump_operator)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except MarginViolationError as err:
        print(f"coupling margin violated: {err}", file=sys.stderr)
        return 3
    except (FracspecError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
