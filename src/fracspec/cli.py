"""Command-line interface.

Subcommands: gen (synthesize a seeded signal), transform (apply a plan),
denoise (train and estimate on one instance), benchmark (full sweep),
verify (property suite), dump-operator (export an operator matrix).

Exit codes: 0 success, 1 invariant failure, 2 configuration error,
3 coupling-margin (principal logarithm) violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import os
import sys

import numpy as np

from . import io as fio
from .errors import ConfigError, FracspecError, MarginViolationError
from .graphs import MATERIALIZE_CAP
from .harness import BenchmarkConfig, GraphSpec, add_awgn, run_benchmark, synth_signal
from .operators import dfrft_matrix, eigendecompose, graph_frft
from .transforms import TimeVertexSignal, TransformContext, forward, inverse
from .wiener import DEFAULT_LAMBDA_GRID, TrainConfig, lambda_grid_search, denoise, train
from .properties import verify_properties

__all__ = ["main"]


#: top-level keys of a ``gen`` config
_GEN_KEYS = ("spatial", "n2", "bandwidth", "sigma", "seed")
#: top-level keys of a ``transform`` config
_TRANSFORM_KEYS = ("spatial", "temporal", "family", "orders", "lambda")
#: top-level keys of a ``denoise`` config; the orders are learned, not given
_DENOISE_KEYS = ("spatial", "temporal", "family", "lambda", "lambda_grid", "train")
#: top-level keys of a ``dump-operator`` config besides ``kind``, per operator kind
_DUMP_KEYS = {"dfrft": ("n", "order"), "gft": ("graph",), "graph_frft": ("graph", "order"),
              "geodesic_temporal": ("temporal", "order", "lambda")}


def _load_config(path: str | None, allowed=None) -> dict:
    """Read a JSON config object. With ``allowed``, any other top-level key
    is a configuration error rather than a silently ignored setting."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if allowed is not None:
        _refuse_unknown(cfg, allowed, path)
    return cfg


def _refuse_unknown(cfg: dict, allowed, path: str | None) -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))} in {path}; "
                          f"expected some of {', '.join(allowed)}")


def _number(cfg: dict, key: str, default) -> float:
    """``cfg[key]``, or ``default`` when it is absent, as a finite JSON number."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
    return float(value)


def _integer(cfg: dict, key: str, default, cap: int | None = None) -> int:
    """``cfg[key]``, or ``default`` when it is absent, as a JSON integer; a
    size above ``cap`` is refused before anything of that size is allocated."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    if cap is not None and value > cap:
        raise ConfigError(f"{key!r} of {value} exceeds the cap of {cap} for a dense operator")
    return value


def _context_from_config(cfg: dict) -> TransformContext:
    try:
        spatial = GraphSpec.from_dict(cfg["spatial"]).build()
        temporal = GraphSpec.from_dict(cfg["temporal"]).build()
    except KeyError as err:
        raise ConfigError(f"config is missing the {err} graph spec") from err
    return TransformContext(spatial, temporal)


def _coupling_value(cfg: dict, family: str):
    """The config's ``lambda``; only the gcgfrft family reads one."""
    lam = cfg.get("lambda")
    if lam is not None and family != "gcgfrft":
        raise ConfigError(f"'lambda' applies to the gcgfrft family only, not to {family!r}")
    return lam


def _cmd_gen(args) -> int:
    cfg = _load_config(args.config, allowed=_GEN_KEYS)
    spatial = GraphSpec.from_dict(cfg["spatial"]) if "spatial" in cfg else BenchmarkConfig.spatial
    n2 = _integer(cfg, "n2", 10, cap=MATERIALIZE_CAP)
    bandwidth = _number(cfg, "bandwidth", 0.3)
    sigma = _number(cfg, "sigma", 0.0)
    seed = args.seed if args.seed is not None else _integer(cfg, "seed", 0)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)

    g1 = spatial.build()
    x = synth_signal(g1, n2, bandwidth=bandwidth, seed=seed)
    meta = {"bandwidth": bandwidth, "seed": seed, "spatial": cfg.get("spatial"), "sigma": sigma}
    fio.write_signal(x.as_real(), os.path.join(out, "clean.csv"), meta=meta)
    if sigma > 0:
        y = add_awgn(x, sigma, seed=seed + 1)
        fio.write_signal(y.as_real(), os.path.join(out, "noisy.csv"), meta=meta)
    print(f"wrote {out}/clean.csv" + (f" and {out}/noisy.csv" if sigma > 0 else ""))
    return 0


def _cmd_transform(args) -> int:
    cfg = _load_config(args.config, allowed=_TRANSFORM_KEYS)
    ctx = _context_from_config(cfg)
    family = cfg.get("family", "gcgfrft")
    orders = cfg.get("orders", [0.5, 0.5])
    lam = _coupling_value(cfg, family)
    plan = ctx.plan(family, orders, lam=lam)
    data, _ = fio.read_signal(args.signal)
    sig = TimeVertexSignal.from_array(data)
    result = inverse(plan, sig) if args.inverse else forward(plan, sig)
    out = args.out or "transformed.csv"
    fio.write_signal(result.data, out,
                     meta={"family": family, "orders": np.atleast_1d(orders).tolist(),
                           "lambda": lam, "direction": "inverse" if args.inverse else "forward"})
    print(f"wrote {out}")
    return 0


def _cmd_denoise(args) -> int:
    cfg = _load_config(args.config, allowed=_DENOISE_KEYS)
    ctx = _context_from_config(cfg)
    family = cfg.get("family", "gcgfrft")
    lam = _coupling_value(cfg, family)
    if cfg.get("lambda_grid") is not None and (family != "gcgfrft" or lam is not None):
        raise ConfigError("'lambda_grid' applies to the gcgfrft family without a 'lambda' only")
    train_cfg = TrainConfig.from_dict(cfg.get("train", {}))
    y = TimeVertexSignal.from_array(fio.read_signal(args.noisy)[0])
    x = TimeVertexSignal.from_array(fio.read_signal(args.clean)[0])
    out = args.out or "."
    os.makedirs(out, exist_ok=True)

    if family == "gcgfrft" and lam is None:
        grid = cfg.get("lambda_grid", DEFAULT_LAMBDA_GRID)
        _, params, table = lambda_grid_search(y, x, grid, train_cfg, ctx)
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
    cfg = _load_config(args.config,
                       allowed=tuple(f.name for f in dataclasses.fields(BenchmarkConfig)))
    kwargs = {}
    if "spatial" in cfg:
        kwargs["spatial"] = GraphSpec.from_dict(cfg["spatial"])
    if "temporal" in cfg:
        kwargs["temporal"] = GraphSpec.from_dict(cfg["temporal"])
    for key in ("sigma_list", "lambda_grid", "families", "seeds"):
        if key in cfg:
            try:
                kwargs[key] = tuple(cfg[key])
            except TypeError as err:
                raise ConfigError(f"{key!r} must be a list: {err}") from err
    if "train" in cfg:
        kwargs["train"] = TrainConfig.from_dict(cfg["train"])
    for key in ("bandwidth", "persist_estimates"):
        if key in cfg:
            kwargs[key] = cfg[key]
    output_dir = cfg.get("output_dir", "benchmark_out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"'output_dir' must be a nonempty path, got {output_dir!r}")
    kwargs["output_dir"] = args.out or output_dir
    try:
        bench = BenchmarkConfig(**kwargs)
    except TypeError as err:
        raise ConfigError(str(err)) from err
    report = run_benchmark(bench)
    bad = [r for r in report.rows if r.status != "ok"]
    print(f"wrote {kwargs['output_dir']}/report.csv ({len(report.rows)} rows, "
          f"{len(bad)} failed)")
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
    kind = cfg.get("kind", "dfrft")
    if not isinstance(kind, str) or kind not in _DUMP_KEYS:
        raise ConfigError(f"unknown operator kind {kind!r}; "
                          f"expected one of {', '.join(_DUMP_KEYS)}")
    _refuse_unknown(cfg, ("kind", *_DUMP_KEYS[kind]), args.config)
    if kind == "dfrft":
        n = _integer(cfg, "n", None, cap=MATERIALIZE_CAP)
        matrix = dfrft_matrix(n, _number(cfg, "order", 1.0)).matrix
    elif kind in ("gft", "graph_frft"):
        basis = eigendecompose(GraphSpec.from_dict(cfg["graph"]).build())
        order = 1.0 if kind == "gft" else _number(cfg, "order", 1.0)
        matrix = graph_frft(basis, order).matrix
    else:
        ctx = _context_from_config({"spatial": cfg["temporal"], "temporal": cfg["temporal"]})
        plan = ctx.plan("gcgfrft", (0.0, _number(cfg, "order", 0.5)),
                        lam=_number(cfg, "lambda", 0.5))
        matrix = plan.col_op.matrix
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
