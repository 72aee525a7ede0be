import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracspec import (
    FilterParams,
    GraphSpec,
    TimeVertexSignal,
    TrainConfig,
    TrainStep,
    TransformContext,
    add_awgn,
    dfrft_matrix,
    eigendecompose,
    graph_frft,
    knn_graph,
    path_graph,
    random_planar_points,
    synth_signal,
    train,
)
from fracspec import io as fio
from fracspec.cli import TABLES, main
from fracspec.errors import interval
from fracspec.graphs import MATERIALIZE_CAP
from fracspec.harness import GRAPH_SPEC
from fracspec.wiener import TRAIN

#: the kinds of ``dump-operator``
OPERATOR_KINDS = [name.split()[1] for name in TABLES if name.startswith("dump-operator")]


class TestGraphFiles:
    def test_edge_list_round_trip(self, tmp_path):
        g = knn_graph(random_planar_points(9, seed=2), 3)
        path = str(tmp_path / "g.csv")
        fio.write_edge_list_csv(g, path)
        with open(path) as fh:
            assert fh.readline().strip() == "src,dst,weight"
        back = fio.read_edge_list_csv(path)
        assert np.array_equal(back.adjacency, g.adjacency)

    def test_points_round_trip(self, tmp_path):
        pts = random_planar_points(7, seed=5)
        path = str(tmp_path / "pts.csv")
        fio.write_points_csv(pts, path)
        assert np.array_equal(fio.read_points_csv(path), pts)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,1\n")
        from fracspec import ConfigError
        with pytest.raises(ConfigError):
            fio.read_edge_list_csv(str(path))


def run_cli(tmp, command, cfg):
    """``fracspec <command>`` under ``cfg``, writing to ``tmp/out``;
    ``transform`` and ``denoise`` read a 3 x 4 signal (noisy and clean
    alike). Returns the exit code and standard error."""
    cfg_path, sig = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "sig.csv")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    fio.write_signal(np.ones((3, 4)), sig)
    inputs = {"transform": ["--signal", sig],
              "denoise": ["--noisy", sig, "--clean", sig]}.get(command, [])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg_path, *inputs, "--out", os.path.join(tmp, "out")])
    return code, err.getvalue()


def run_transform(tmp, spatial, **cfg):
    """``fracspec transform`` over ``spatial`` and a 4-node temporal path."""
    return run_cli(tmp, "transform", {"spatial": spatial, "temporal": {"kind": "path", "n": 4},
                                      "family": "gbfrft2d", **cfg})


class TestMalformedGraphFiles:
    @pytest.mark.parametrize("kind,text", [
        ("edge_list", "src,dst,weight\n0,1,1.0\n1,2,1.0\n-1,0,1.0\n"),
        ("edge_list", "src,dst,weight\n0,1,1.0\n1,2\n"),
        ("edge_list", "src,dst,weight\n0,10000000,1.0\n"),
        ("knn", "id,x1\n0,0.0\n0,1.0\n2,2.0\n"),
    ], ids=["negative_id", "two_fields", "unnamed_vertex_ids", "repeated_point_id"])
    def test_malformed_ids_exit_2(self, tmp_path, kind, text):
        path = tmp_path / "graph.csv"
        path.write_text(text)
        code, err = run_transform(str(tmp_path), {"kind": kind, "file": str(path), "k": 1})
        assert code == 2 and err.startswith("configuration error")

    def test_well_formed_files_still_read(self, tmp_path):
        edges, points = tmp_path / "g.csv", tmp_path / "p.csv"
        edges.write_text("src,dst,weight\n0,1,1.0\n\n1,2,1.0\n")
        points.write_text("id,x1\n2,2.0\n0,0.0\n1,1.0\n")
        assert np.array_equal(fio.read_edge_list_csv(str(edges)).adjacency,
                              path_graph(3).adjacency)
        assert np.array_equal(fio.read_points_csv(str(points)), [[0.0], [1.0], [2.0]])


class TestNodeCap:
    """A graph read from a file or from inline points has the node cap of a
    spec's ``n``, checked before its adjacency or its pairwise distances
    are allocated."""

    @pytest.mark.parametrize("kind", ["edge_list", "knn_file", "knn_points"])
    def test_one_node_over_the_cap_exits_2(self, tmp_path, kind):
        n = MATERIALIZE_CAP + 1
        points = np.column_stack([np.arange(n, dtype=np.float64), np.zeros(n)])
        path = tmp_path / "graph.csv"
        if kind == "edge_list":
            path.write_text("src,dst,weight\n" + "".join(f"{i},{i + 1},1\n" for i in range(n - 1)))
            spec = {"kind": "edge_list", "file": str(path)}
        elif kind == "knn_file":
            fio.write_points_csv(points, str(path))
            spec = {"kind": "knn", "file": str(path), "k": 1}
        else:
            spec = {"kind": "knn", "points": points.tolist(), "k": 1}
        code, err = run_transform(str(tmp_path), spec)
        assert code == 2 and f"{n} " in err and f"exceed the cap of {MATERIALIZE_CAP} nodes" in err


class TestSignalReadFirst:
    """``transform`` and ``denoise`` read their signals and check their shape
    against the graphs before the context decomposes anything."""

    @pytest.mark.parametrize("command", ["transform", "denoise"])
    def test_mismatched_signal_exits_2_before_the_context(self, tmp_path, monkeypatch, command):
        def no_context(*args, **kwargs):
            raise AssertionError("the context was built before the signal was checked")

        monkeypatch.setattr("fracspec.cli.TransformContext", no_context)
        code, err = run_cli(str(tmp_path), command, {"spatial": {"kind": "path", "n": 5},
                                                     "temporal": {"kind": "path", "n": 4},
                                                     "family": "gbfrft2d"})
        assert code == 2 and "error: signal shape (3, 4) does not match plan (5, 4)" in err


# CSV fields: numbers, ids near the valid range, and malformed tokens
FIELDS = st.one_of(st.integers(-2, 4).map(str), st.floats(-10, 10).map(repr),
                   st.sampled_from(["", "x", "nan", "inf", "1e400", " 1", "1.5", "-0"]))


def csv_text(header, row):
    """CSV text whose header and rows are often well formed (``row`` draws
    the values of one), and whose other rows have arbitrary fields. No two
    rows share a first field, so that a set of point ids is often complete."""
    row = row.map(lambda values: [str(v) for v in values])
    rows = st.lists(st.one_of(row, st.lists(FIELDS, max_size=4)), max_size=6,
                    unique_by=lambda r: tuple(r[:1])).map(lambda rs: [",".join(r) for r in rs])
    head = st.one_of(st.just(header), st.sampled_from(["", "id", "a,b,c"]))
    return st.builds(lambda h, r: "\n".join([h, *r]) + "\n", head, rows)


class TestReaderFuzz:
    """Generated edge-list and points files through ``fracspec transform``:
    every input ends in exit code 0 or 2, never in an exception."""

    @settings(max_examples=50, deadline=None)
    @given(text=csv_text("src,dst,weight",
                         st.tuples(st.integers(-1, 2), st.integers(-1, 2), st.floats(0, 2))))
    def test_edge_list(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.csv")
            with open(path, "w") as fh:
                fh.write(text)
            assert run_transform(tmp, {"kind": "edge_list", "file": path})[0] in (0, 2)

    @settings(max_examples=50, deadline=None)
    @given(text=csv_text("id,x1,x2", st.tuples(st.integers(0, 2), st.floats(0, 2), st.floats(0, 2))))
    def test_points(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.csv")
            with open(path, "w") as fh:
                fh.write(text)
            assert run_transform(tmp, {"kind": "knn", "file": path, "k": 1})[0] in (0, 2)


# JSON values that no config entry accepts: a null, and an object with a key
# that no nested table reads
NEVER = st.one_of(st.none(), st.just({"a": 1}))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
TEXT = st.sampled_from(["", "x", "0.5"])
#: how far above its lower bound a good integer goes where it is not 4:
#: graphs of at most 6 nodes and at most 2 epochs keep every valid run quick
SPAN = {"epochs": 1}
#: every key that some table reads
ALL_KEYS = sorted({key for table in (*TABLES.values(), GRAPH_SPEC, TRAIN) for key in table})
# well-formed 3 x 4 graphs, which a generated spec replaces now and then
GRAPHS = {"spatial": {"kind": "knn_random", "n": 3, "k": 1}, "temporal": {"kind": "path", "n": 4}}
#: the base of a run config: the graphs and a train config, never the
#: default 200 epochs
RUN_BASE = {**GRAPHS, "train": {"epochs": 1}}


def bounds(rng):
    """``errors.interval`` of a range; an unbounded number gets a small
    interval."""
    return (-2.0, 2.0, False, False) if rng is None else interval(rng)


def slots(entry):
    """``(kind, range, cap)`` of a table entry."""
    kind, _, rng, cap, _ = (*entry, None, None, None)[:5]
    return kind, rng, cap


def good(entry, key):
    """Values the entry accepts, small enough to run in milliseconds."""
    kind, rng, cap = slots(entry)
    if isinstance(kind, tuple):
        return st.one_of(good((kind[0], None, rng), key), good((kind[1], None, rng), key))
    if isinstance(kind, (list, set)) and isinstance(next(iter(kind)), list):
        # rows of one length
        item = good((next(iter(next(iter(kind)))), None, rng), key)
        return st.integers(1, 3).flatmap(lambda width: st.lists(
            st.lists(item, min_size=width, max_size=width), min_size=1, max_size=3))
    if isinstance(kind, (list, set)):
        return st.lists(good((next(iter(kind)), None, rng), key), min_size=1, max_size=3,
                        unique=isinstance(kind, set))
    if dataclasses.is_dataclass(kind):
        return config(rng, refuse=False).map(lambda case: case[0])
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.sampled_from(list(rng)) if rng else st.just("x")
    lo, hi, lo_open, hi_open = bounds(rng)
    if kind is int:
        lo = int(lo) + lo_open
        return st.integers(lo, min(hi, lo + SPAN.get(key, 4)))
    return st.floats(lo, min(hi, lo + 2.0), exclude_min=lo_open, exclude_max=hi_open and hi <= lo + 2)


def bad(entry, key):
    """Values the entry refuses."""
    kind, rng, cap = slots(entry)
    if dataclasses.is_dataclass(kind):
        return st.one_of(NEVER, st.booleans(), TEXT, st.just([]),
                         config(rng, refuse=True).map(lambda case: case[0]))
    if isinstance(kind, (tuple, list, set)):
        item = (kind[0] if isinstance(kind, tuple) else next(iter(kind)), None, rng, cap)
        wrong = [NEVER, st.booleans(), st.just([]), st.lists(bad(item, key), min_size=1, max_size=2),
                 bad(item, key) if isinstance(kind, tuple) else st.sampled_from(["x", 1])]
        if isinstance(kind, set):
            wrong.append(good(item, key).map(lambda v: [v, v]))
        if isinstance(item[0], list):
            wrong.append(st.just([[0.5], [0.5, 1.0]]))
        return st.one_of(wrong)
    wrong = [NEVER]
    if kind is not bool:
        wrong.append(st.booleans())
    if kind is str:
        wrong += [st.just(""), st.integers(0, 1)] + ([st.just("x")] if rng else [])
    else:
        wrong.append(TEXT)
    if kind is bool:
        wrong.append(st.integers(0, 1))
    if kind in (int, float):
        wrong += [NON_FINITE, st.just(2.0 if kind is int else 10**400)]
        lo, hi, _, _ = bounds(rng)
        wrong += [st.just(int(lo) - 1)] * (rng is not None and lo > -math.inf)
        wrong += [st.just(hi + 1)] * (rng is not None and hi < math.inf)
    if cap is not None:
        wrong.append(st.integers(cap[0] + 1, 10**12))
    return st.one_of(wrong)


@st.composite
def config(draw, table, refuse=None, base=None):
    """A config of ``table`` and whether the table refuses it. A required
    key, ``epochs`` and a key of ``base`` are always present, the latter
    mostly with its value there; any other key now and then. With
    ``refuse`` None, now and then one value is bad or a key that the table
    does not read is added; True makes that so, False never."""
    base = base or {}
    keys = [key for key, entry in table.items()
            if entry[1] is dataclasses.MISSING or key == "epochs" or key in base or draw(st.booleans())]
    if refuse is None:
        refuse = draw(st.integers(0, 3)) == 0
    target = draw(st.sampled_from([*keys, None])) if refuse else ()
    cfg = {}
    for key in keys:
        if key == target:
            cfg[key] = draw(bad(table[key], key))
        elif key in base and draw(st.integers(0, 3)) > 0:
            cfg[key] = base[key]
        else:
            cfg[key] = draw(good(table[key], key))
    if target is None:
        cfg[draw(st.sampled_from([key for key in ALL_KEYS if key not in table] or ["x"]))] = 0
    return cfg, refuse


@st.composite
def dump_config(draw):
    """A ``dump-operator`` config: a known kind, none (dfrft) or a malformed
    one, and a generated config of that kind's table."""
    kind = draw(st.one_of(st.sampled_from([*OPERATOR_KINDS, None]),
                          st.sampled_from(["x", ["dfrft"], 1])))
    known = kind is None or kind in OPERATOR_KINDS
    cfg, refused = draw(config(TABLES[f"dump-operator {kind or 'dfrft'}"] if known else {}))
    if kind is not None:
        # a "kind" key drawn as a key the table does not read replaces it
        cfg = {"kind": kind, **cfg}
    return cfg, refused or not known


def one_line_error(code, err):
    """Standard error is empty on success and one line with no traceback
    otherwise."""
    return err == "" if code == 0 else err.count("\n") == 1 and "Traceback" not in err


NAN = float("nan")
BENCH = {**GRAPHS, "families": ["gbfrft2d"], "lambda_grid": [0.0], "seeds": [0],
         "sigma_list": [0.5], "train": {"epochs": 1}}
#: configs that the table refuses and that the CLI once ran or let raise,
#: tried before any generated config
PINNED = {
    "transform": [{**GRAPHS, "family": "gbfrft2d", "orders": [True, 0.5]},
                  {**GRAPHS, "family": "gcgfrft", "lambda": True},
                  {**GRAPHS, "family": "gbfrft2d", "orders": [NAN, 0.5]}],
    "denoise": [{**GRAPHS, "train": {"epochs": 2.0}},
                {**GRAPHS, "train": {"epochs": 1, "lr_filter": NAN}},
                {**GRAPHS, "lambda_grid": [True], "train": {"epochs": 1}},
                {**GRAPHS, "lambda_grid": "0", "train": {"epochs": 1}}],
    "benchmark": [{**BENCH, "families": ["gbfrft2d", "gbfrft2d"]}, {**BENCH, "sigma_list": []},
                  {**BENCH, "train": {"epochs": 2.0}}, {**BENCH, "seeds": [0, 0]},
                  {**BENCH, "spatial": {"kind": "knn", "points": [[0.5], [0.5, 1.0]], "k": 1}}],
}


def fuzz(command, strategy, codes=(0, 2, 3), margin=lambda cfg: True):
    """A hypothesis test of ``command`` under generated configs, the pinned
    ones first: every config ends in one of ``codes`` with a one-line error,
    one that its table refuses ends in a configuration error, and exit 3 only
    for a config that ``margin`` accepts."""
    def check(case):
        cfg, refused = case
        with tempfile.TemporaryDirectory() as tmp:
            code, err = run_cli(tmp, command, cfg)
        assert code in codes and one_line_error(code, err)
        if refused:
            assert code == 2 and err.startswith("configuration error")
        if code == 3:
            # the documented code of a geodesic coupling with an eigenphase
            # at the branch cut (a 2-node temporal path)
            assert margin(cfg) and err.startswith("coupling margin violated")

    for cfg in PINNED.get(command, ()):
        check = example(case=(cfg, True))(check)
    return settings(max_examples=50, deadline=None)(given(case=strategy)(check))


class TestConfigFuzz:
    """Generated configs through the CLI, drawn from the config tables."""

    @pytest.mark.parametrize("command", ["transform", "denoise", "benchmark"])
    def test_run_config(self, command):
        fuzz(command, config(TABLES[command], base=RUN_BASE))()

    def test_gen_config(self):
        fuzz("gen", config(TABLES["gen"]), codes=(0, 2))()

    def test_dump_operator_config(self):
        fuzz("dump-operator", dump_config(), margin=lambda cfg: cfg["kind"] == "geodesic_temporal")()


#: every config table by the heading of its README section
DOC_TABLES = {**TABLES, "graph spec": GRAPH_SPEC, "train": TRAIN}
KIND_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string",
              GraphSpec: "graph spec", TrainConfig: "train config"}


def type_words(kind, plural=False):
    s = "s" if plural else ""
    if isinstance(kind, tuple):
        return f"{type_words(kind[0])} or {type_words(kind[1])}"
    if isinstance(kind, (list, set)):
        distinct = "distinct " if isinstance(kind, set) else ""
        return f"list{s} of {distinct}{type_words(next(iter(kind)), True)}"
    return KIND_NAMES[kind] + s


def readme_row(key, entry):
    """The README table row of a config table entry."""
    kind, default, rng, cap, _ = (*entry, None, None, None)[:5]
    if default is dataclasses.MISSING:
        default = "required"
    elif default is None:
        default = "none"
    else:
        if isinstance(default, (GraphSpec, TrainConfig)):
            default = {k: v for k, v in dataclasses.asdict(default).items() if v is not None}
        default = f"`{json.dumps(default)}`"
    words = [] if rng is None or dataclasses.is_dataclass(kind) else [
        rng if isinstance(rng, str) else "one of " + ", ".join(f"`{v}`" for v in rng)]
    words += [f"at most {cap[0]} {cap[1]}"] if cap else []
    return f"| `{key}` | {type_words(kind)} | {default} | {', '.join(words) or '-'} |"


class TestConfigDocs:
    @pytest.mark.parametrize("name", DOC_TABLES)
    def test_readme_lists_every_key(self, name):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme) as fh:
            section = fh.read().split(f"\n#### {name}\n", 1)[-1].split("\n#", 1)[0]
        for key, entry in DOC_TABLES[name].items():
            assert readme_row(key, entry) in section, f"README lacks the {name} key {key!r}"


#: a finite number, in the form the signal writer uses
CELL = st.floats(-10, 10).map(repr)


@st.composite
def malformed_signal_csv(draw):
    """Text of a signal file that no 3 x 4 run accepts: a ragged row, a
    non-finite or non-numeric cell, no rows at all, or another shape."""
    defect = draw(st.sampled_from(["ragged", "non_finite", "text", "empty", "shape"]))
    if defect == "empty":
        return draw(st.sampled_from(["", "\n", "\n\n"]))
    n1, n2 = 3, 4
    if defect == "shape":
        n1, n2 = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda s: s != (3, 4)))
    rows = [[draw(CELL) for _ in range(n2)] for _ in range(n1)]
    i, j = draw(st.integers(0, n1 - 1)), draw(st.integers(0, n2 - 1))
    if defect == "ragged":
        if draw(st.booleans()):
            del rows[i][j]
        else:
            rows[i].append(draw(CELL))
    elif defect == "non_finite":
        rows[i][j] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400"]))
    elif defect == "text":
        rows[i][j] = draw(st.sampled_from(["", " ", "x", "one", "1.5.2", "0x1", "--1"]))
    return "\n".join(",".join(row) for row in rows) + "\n"


class TestSignalFileFuzz:
    """Generated malformed signal files through ``fracspec denoise`` (as the
    noisy or the clean signal) and ``fracspec transform``: each exits 2 with
    a one-line error, never a traceback."""

    @settings(max_examples=50, deadline=None)
    @given(text=malformed_signal_csv(), flag=st.sampled_from(["--signal", "--noisy", "--clean"]))
    def test_malformed_signal_exits_2(self, text, flag):
        with tempfile.TemporaryDirectory() as tmp:
            good, bad = os.path.join(tmp, "good.csv"), os.path.join(tmp, "bad.csv")
            fio.write_signal(np.ones((3, 4)), good)
            with open(bad, "w") as fh:
                fh.write(text)
            cfg_path = os.path.join(tmp, "cfg.json")
            train_cfg = {} if flag == "--signal" else {"train": {"epochs": 1}}
            with open(cfg_path, "w") as fh:
                json.dump({**GRAPHS, "family": "gbfrft2d", **train_cfg}, fh)
            inputs = {"--signal": good} if flag == "--signal" else {"--noisy": good, "--clean": good}
            inputs[flag] = bad
            argv = ["transform" if flag == "--signal" else "denoise", "--config", cfg_path,
                    *(arg for pair in inputs.items() for arg in pair), "--out", os.path.join(tmp, "out")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 2 and err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()


class TestSignalFiles:
    def test_real_round_trip(self, tmp_path, rng):
        data = rng.standard_normal((4, 3))
        path = str(tmp_path / "sig.csv")
        fio.write_signal(data, path, meta={"family": "jfrft"})
        back, meta = fio.read_signal(path)
        assert np.array_equal(back, data)
        assert meta["family"] == "jfrft" and meta["n1"] == 4 and meta["n2"] == 3

    def test_complex_round_trip(self, tmp_path, rng):
        data = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        path = str(tmp_path / "sig.csv")
        fio.write_signal(data, path)
        back, meta = fio.read_signal(path)
        assert meta["complex"] is True
        assert np.array_equal(back, data)


    def test_matrix_bytes_are_the_csv_writer_bytes(self, tmp_path, rng):
        # one %-format per row gives the bytes of csv.writer rows of _fmt fields
        m = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-300, 300, size=(5, 7))
        m[0, :5] = -0.0, 1e-300, 5e-324, 1.7976931348623157e308, np.inf
        m[1, :3] = -np.inf, 0.1, 123456789012345678.0
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        for row in m:
            writer.writerow([fio._fmt(v) for v in row])
        path = tmp_path / "m.csv"
        fio._matrix_to_csv(m, str(path))
        assert path.read_bytes() == want.getvalue().encode()


class TestOperatorFiles:
    def test_interleaved_round_trip(self, tmp_path):
        op = dfrft_matrix(5, 0.37)
        path = str(tmp_path / "op.csv")
        fio.write_operator_csv(op.matrix, path)
        back = np.loadtxt(path, delimiter=",").view(np.complex128)
        assert np.array_equal(back, op.matrix)
        with open(path) as fh:
            first = fh.readline().split(",")
        assert len(first) == 10  # 5 complex entries -> 10 interleaved values


class TestParamsAndTraces:
    def test_params_round_trip(self, tmp_path, rng):
        params = FilterParams(alpha=0.31, beta=-0.7, h=rng.uniform(size=(3, 4)), lam=0.6)
        path = str(tmp_path / "params.json")
        fio.write_params_json(params, path)
        back = fio.read_params_json(path)
        assert back.alpha == params.alpha and back.beta == params.beta
        assert back.lam == params.lam
        assert np.array_equal(back.h, params.h)
        payload = json.loads(open(path).read())
        assert payload["h"] == [float(v) for v in params.h.ravel(order="C")]

    def test_trace_csv(self, tmp_path):
        trace = [TrainStep(0, 1.5, 0.5, 0.5), TrainStep(1, 1.2, 0.49, 0.51)]
        path = str(tmp_path / "trace.csv")
        fio.write_trace_csv(trace, path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "epoch,loss,alpha,beta"
        assert len(lines) == 3


class TestCli:
    def test_gen_and_transform_and_denoise(self, tmp_path):
        cfg = {
            "spatial": {"kind": "knn_random", "n": 10, "k": 3, "seed": 7},
            "n2": 5,
            "bandwidth": 0.4,
            "sigma": 0.8,
            "seed": 1,
        }
        cfg_path = str(tmp_path / "gen.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out = str(tmp_path / "data")
        assert main(["gen", "--config", cfg_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "clean.csv"))
        assert os.path.exists(os.path.join(out, "noisy.csv"))

        plan_cfg = {
            "spatial": {"kind": "knn_random", "n": 10, "k": 3, "seed": 7},
            "temporal": {"kind": "path", "n": 5},
            "family": "gcgfrft",
            "orders": [0.5, 0.5],
            "lambda": 0.4,
        }
        plan_path = str(tmp_path / "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan_cfg, fh)
        spec_out = str(tmp_path / "spec.csv")
        assert main(["transform", "--config", plan_path,
                     "--signal", os.path.join(out, "clean.csv"), "--out", spec_out]) == 0
        # forward then inverse reproduces the input
        back_out = str(tmp_path / "back.csv")
        assert main(["transform", "--config", plan_path, "--signal", spec_out,
                     "--inverse", "--out", back_out]) == 0
        clean, _ = fio.read_signal(os.path.join(out, "clean.csv"))
        back, _ = fio.read_signal(back_out)
        assert np.abs(back - clean).max() <= 1e-9

        run_cfg = dict(plan_cfg)
        del run_cfg["lambda"], run_cfg["orders"]
        run_cfg["lambda_grid"] = [0.0, 1.0]
        run_cfg["train"] = {"epochs": 10}
        run_path = str(tmp_path / "run.json")
        with open(run_path, "w") as fh:
            json.dump(run_cfg, fh)
        den_out = str(tmp_path / "denoise")
        assert main(["denoise", "--config", run_path,
                     "--noisy", os.path.join(out, "noisy.csv"),
                     "--clean", os.path.join(out, "clean.csv"),
                     "--out", den_out]) == 0
        for name in ("estimate.csv", "params.json", "trace.csv", "grid.csv"):
            assert os.path.exists(os.path.join(den_out, name))

    def test_benchmark_subcommand(self, tmp_path):
        cfg = {
            "spatial": {"kind": "knn_random", "n": 10, "k": 3, "seed": 7},
            "temporal": {"kind": "path", "n": 5},
            "sigma_list": [0.8],
            "lambda_grid": [0.0, 1.0],
            "families": ["gbfrft2d"],
            "train": {"epochs": 5},
            "seeds": [0],
        }
        cfg_path = str(tmp_path / "bench.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out = str(tmp_path / "bench")
        assert main(["benchmark", "--config", cfg_path, "--out", out]) == 0
        for name in ("report.csv", "summary.json", "timings.csv"):
            assert os.path.exists(os.path.join(out, name))
        header = open(os.path.join(out, "report.csv")).readline().strip()
        assert header == "family,sigma,seed,mse,psnr,ssim,alpha,beta,lambda,epochs,status"
        assert "wall_time" not in header

    @pytest.mark.parametrize("command", ["transform", "benchmark"])
    def test_bad_nested_graph_spec_names_its_key(self, tmp_path, command):
        cfg = {"spatial": {"kind": "path", "n": 3}, "temporal": {"kind": "path", "n": 1}}
        if command == "benchmark":
            cfg["train"] = {"epochs": 1}
        code, err = run_cli(str(tmp_path), command, cfg)
        assert code == 2 and err.startswith("configuration error") and "temporal" in err

    @pytest.mark.parametrize("command", ["denoise", "benchmark"])
    @pytest.mark.parametrize("train_cfg", [{"grad_mode": "fd"}, {"bogus": 1}],
                             ids=["grad_mode", "bogus"])
    def test_unknown_train_key_exits_2(self, tmp_path, capsys, command, train_cfg):
        cfg = {
            "spatial": {"kind": "knn_random", "n": 6, "k": 2, "seed": 7},
            "temporal": {"kind": "path", "n": 4},
            "train": train_cfg,
        }
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        sig = str(tmp_path / "sig.csv")
        fio.write_signal(np.ones((6, 4)), sig)
        args = [command, "--config", cfg_path, "--out", str(tmp_path / "out")]
        if command == "denoise":
            args += ["--noisy", sig, "--clean", sig]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err

    @pytest.mark.parametrize("command,key", [("benchmark", "sigmas"), ("benchmark", "threads"),
                                             ("gen", "sigmaa")])
    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys, command, key):
        # a misspelt or stale key must not be dropped in favour of a default
        cfg = {"spatial": {"kind": "knn_random", "n": 6, "k": 2, "seed": 7}, key: 4}
        if command == "benchmark":
            cfg.update({"temporal": {"kind": "path", "n": 4}, "families": ["gbfrft2d"],
                        "lambda_grid": [0.0], "seeds": [0], "train": {"epochs": 2}})
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and repr(key) in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("key,value", [
        ("seeds", 5), ("bandwidth", "x"),
        # a repeated entry gave two report rows with one row_id
        ("families", ["gbfrft2d", "gbfrft2d"]), ("seeds", [0, 0]), ("sigma_list", [0.5, 0.5]),
        ("lambda_grid", [0.0, 0.0]), ("sigma_list", [])])
    def test_wrongly_typed_benchmark_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = {"spatial": {"kind": "knn_random", "n": 6, "k": 2, "seed": 7},
               "temporal": {"kind": "path", "n": 4}, "families": ["gbfrft2d"],
               "lambda_grid": [0.0], "seeds": [0], "train": {"epochs": 2}, key: value}
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["benchmark", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err

    @pytest.mark.parametrize("setting", [{"output_dir": 5}, {"output_dir": None},
                                         {"output_dir": ""}, {"train": {"epochs": True}},
                                         {"train": {"lr_orders": True}}],
                             ids=["dir_number", "dir_null", "dir_empty", "epochs_true",
                                  "rate_true"])
    def test_ill_typed_benchmark_setting_exits_2(self, tmp_path, monkeypatch, capsys, setting):
        # no --out: the config's own output_dir is the one read
        monkeypatch.chdir(tmp_path)
        cfg = {"spatial": {"kind": "knn_random", "n": 6, "k": 2, "seed": 7},
               "temporal": {"kind": "path", "n": 4}, "families": ["gbfrft2d"],
               "lambda_grid": [0.0], "seeds": [0], "sigma_list": [0.5], "train": {"epochs": 2},
               **setting}
        with open("cfg.json", "w") as fh:
            json.dump(cfg, fh)
        assert main(["benchmark", "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command", ["transform", "denoise"])
    @pytest.mark.parametrize("key", ["orderz", "lambda_gird"])
    def test_unknown_run_key_exits_2(self, tmp_path, capsys, command, key):
        cfg = {"spatial": {"kind": "knn_random", "n": 6, "k": 2, "seed": 7},
               "temporal": {"kind": "path", "n": 4}, key: [0.5]}
        if command == "denoise":
            cfg["train"] = {"epochs": 2}
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        sig = str(tmp_path / "sig.csv")
        fio.write_signal(np.ones((6, 4)), sig)
        inputs = ["--signal", sig] if command == "transform" else ["--noisy", sig, "--clean", sig]
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path, "--out", str(out), *inputs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and repr(key) in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command,cfg", [
        ("transform", {"orders": {"a": 1}}),
        ("transform", {"orders": None}),
        ("denoise", {"lambda_grid": 5}),
        ("denoise", {"lambda_grid": [{}]}),
        ("transform", {"spatial": {"kind": "knn_random", "n": 3, "k": None}}),
        ("transform", {"spatial": {"kind": "knn_random", "n": 3}}),
        ("transform", {"orders": [True, 0.5], "family": "gbfrft2d"}),
        ("transform", {"lambda": True}),
        ("denoise", {"lambda_grid": [True]}),
        ("denoise", {"lambda_grid": "0"}),
    ], ids=["orders_object", "orders_null", "grid_number", "grid_of_objects", "k_null", "k_missing",
            "orders_bool", "lambda_bool", "grid_of_bools", "grid_string"])
    def test_wrongly_typed_run_value_exits_2(self, tmp_path, command, cfg):
        cfg = {"spatial": {"kind": "path", "n": 3}, "temporal": {"kind": "path", "n": 4}, **cfg}
        if command == "denoise":
            cfg["train"] = {"epochs": 1}
        code, err = run_cli(str(tmp_path), command, cfg)
        assert code == 2 and err.startswith("configuration error")

    def test_non_finite_orders_exit_2(self, tmp_path):
        cfg = {"spatial": {"kind": "path", "n": 3}, "temporal": {"kind": "path", "n": 4},
               "family": "gbfrft2d", "orders": [float("nan"), 0.5]}
        code, err = run_cli(str(tmp_path), "transform", cfg)
        assert code == 2 and err.startswith("configuration error") and "'orders'" in err

    @pytest.mark.parametrize("command", ["denoise", "benchmark"])
    @pytest.mark.parametrize("train_cfg", [{"epochs": 2.0}, {"epochs": float("inf")},
                                           {"lr_filter": float("nan")},
                                           {"lr_orders": float("inf")}],
                             ids=["epochs_float", "epochs_inf", "rate_nan", "rate_inf"])
    def test_bad_train_value_exits_2(self, tmp_path, command, train_cfg):
        # json reads 1e400 as inf, as it reads the Infinity that json.dump writes
        cfg = {"spatial": {"kind": "path", "n": 3}, "temporal": {"kind": "path", "n": 4},
               "train": {"epochs": 2, **train_cfg}}
        if command == "benchmark":
            cfg.update({"families": ["gbfrft2d"], "lambda_grid": [0.0], "seeds": [0],
                        "sigma_list": [0.5]})
        code, err = run_cli(str(tmp_path), command, cfg)
        assert code == 2 and err.startswith("configuration error") and one_line_error(code, err)
        assert re.search(f"train'? {next(iter(train_cfg))}", err)
        assert not (tmp_path / "out").exists()

    def test_epochs_above_the_cap_exit_2(self, tmp_path):
        # denoise records a trace, which would take 24 TiB for an 11-lane grid;
        # benchmark records none and would train for 10^11 epochs
        cfg = {"spatial": {"kind": "path", "n": 3}, "temporal": {"kind": "path", "n": 4},
               "train": {"epochs": 10**11}}
        code, err = run_cli(str(tmp_path), "denoise", cfg)
        assert code == 2 and "'train' epochs of 100000000000 exceeds the cap of 100000" in err

    def test_python_constructors_apply_the_tables(self):
        from fracspec import BenchmarkConfig, ConfigError
        with pytest.raises(ConfigError, match="epochs must be an integer"):
            TrainConfig(epochs=2.0)
        with pytest.raises(ConfigError, match="repeated"):
            BenchmarkConfig(seeds=(0, 0))
        with pytest.raises(ConfigError, match="exceeds the cap of 4096 nodes"):
            GraphSpec(kind="path", n=10**7)

    @pytest.mark.parametrize("argv", [["benchmark", "--seed", "3"],
                                      ["verify", "--config", "nothing.json", "--seed", "9"]],
                             ids=["benchmark_seed", "verify_config"])
    def test_ignored_flag_exits_2(self, tmp_path, argv, capsys):
        # a flag the command would not read must not be accepted silently
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_integer_orders_in_sidecar(self, tmp_path):
        code, _ = run_transform(str(tmp_path), {"kind": "path", "n": 3}, orders=[1, 0])
        assert code == 0
        assert json.loads((tmp_path / "out.json").read_text())["orders"] == [1, 0]

    def test_non_numeric_lambda_exits_2(self, tmp_path):
        code, err = run_transform(str(tmp_path), {"kind": "path", "n": 3},
                                  family="gcgfrft", **{"lambda": "x"})
        assert code == 2 and "coupling parameter must be a number" in err

    @pytest.mark.parametrize("kind", ["path", "knn_random"])
    def test_oversized_graph_spec_exits_2(self, tmp_path, kind):
        # a dense adjacency of 10^7 nodes would ask numpy for 728 TiB
        code, err = run_transform(str(tmp_path), {"kind": kind, "n": 10_000_000, "k": 4, "seed": 1})
        assert code == 2 and "exceeds the cap of 4096 nodes" in err

    def test_null_graph_seed_exits_2(self, tmp_path, capsys):
        # a null seed would draw fresh OS entropy on every run
        cfg_path = str(tmp_path / "gen.json")
        with open(cfg_path, "w") as fh:
            json.dump({"spatial": {"kind": "knn_random", "n": 6, "k": 2, "seed": None}}, fh)
        assert main(["gen", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "seed must be an integer, got None" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["transform", "denoise"])
    def test_lambda_for_a_family_that_ignores_it_exits_2(self, tmp_path, command):
        cfg = {"spatial": {"kind": "path", "n": 3}, "temporal": {"kind": "path", "n": 4},
               "family": "jfrft", "lambda": 0.7}
        if command == "denoise":
            cfg["train"] = {"epochs": 1}
        code, err = run_cli(str(tmp_path), command, cfg)
        assert code == 2 and "'lambda' applies to the gcgfrft family only" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("transform", "lambda_grid", [0.2, 0.4]),
        ("transform", "train", {"epochs": 1}),
        ("denoise", "orders", [0.3, 0.9]),
    ], ids=["transform_lambda_grid", "transform_train", "denoise_orders"])
    def test_key_the_command_ignores_exits_2(self, tmp_path, command, key, value):
        # transform applies the given orders and trains nothing; denoise
        # learns the orders from 0.5
        cfg = {"spatial": {"kind": "path", "n": 3}, "temporal": {"kind": "path", "n": 4},
               "family": "gbfrft2d", key: value}
        code, err = run_cli(str(tmp_path), command, cfg)
        assert code == 2 and err.startswith("configuration error") and repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("run", [{"family": "jfrft"}, {"family": "gcgfrft", "lambda": 0.3}],
                             ids=["family_jfrft", "with_lambda"])
    def test_lambda_grid_that_no_search_reads_exits_2(self, tmp_path, run):
        # only a gcgfrft denoise without a fixed lambda runs the grid search
        cfg = {"spatial": {"kind": "path", "n": 3}, "temporal": {"kind": "path", "n": 4},
               "lambda_grid": [0.2, 0.4], "train": {"epochs": 1}, **run}
        code, err = run_cli(str(tmp_path), "denoise", cfg)
        assert code == 2 and "'lambda_grid' applies to the gcgfrft family without a 'lambda'" in err
        assert not (tmp_path / "out").exists()

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump([{"sigma_list": [0.5]}], fh)
        assert main(["benchmark", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("configuration error")

    def test_denoise_trace_is_the_best_grid_points(self, tmp_path):
        spatial = {"kind": "knn_random", "n": 10, "k": 3, "seed": 7}
        ctx = TransformContext(GraphSpec.from_dict(spatial).build(), path_graph(5))
        x = synth_signal(ctx.spatial, 5, bandwidth=0.4, seed=1)
        clean, noisy = str(tmp_path / "clean.csv"), str(tmp_path / "noisy.csv")
        fio.write_signal(x.as_real(), clean)
        fio.write_signal(add_awgn(x, 0.8, seed=2).as_real(), noisy)
        cfg = {"spatial": spatial, "temporal": {"kind": "path", "n": 5},
               "lambda_grid": [0.0, 0.5, 1.0], "train": {"epochs": 10}}
        cfg_path = str(tmp_path / "run.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "out"
        assert main(["denoise", "--config", cfg_path, "--noisy", noisy, "--clean", clean,
                     "--out", str(out)]) == 0

        best_lam = json.loads((out / "params.json").read_text())["lambda"]
        y_in = TimeVertexSignal.from_array(fio.read_signal(noisy)[0])
        x_in = TimeVertexSignal.from_array(fio.read_signal(clean)[0])
        _, trace = train(y_in, x_in, best_lam, TrainConfig(epochs=10), ctx)
        want = str(tmp_path / "want.csv")
        fio.write_trace_csv(trace, want)
        assert (out / "trace.csv").read_bytes() == open(want, "rb").read()

    def test_verify_subcommand_exit_codes(self, capsys):
        assert main(["verify"]) == 0
        assert "checks passed" in capsys.readouterr().out
        assert main(["verify", "--fault"]) == 1

    def test_dump_operator(self, tmp_path):
        cfg_path = str(tmp_path / "op.json")
        with open(cfg_path, "w") as fh:
            json.dump({"kind": "dfrft", "n": 6, "order": 0.5}, fh)
        out = str(tmp_path / "op.csv")
        assert main(["dump-operator", "--config", cfg_path, "--out", out]) == 0
        back = np.loadtxt(out, delimiter=",").view(np.complex128)
        assert np.array_equal(back, dfrft_matrix(6, 0.5).matrix)

    @pytest.mark.parametrize("kind", ["gft", "graph_frft", "geodesic_temporal"])
    def test_dump_operator_of_a_graph(self, tmp_path, kind):
        # each kind writes the library operator bit for bit
        spec = {"kind": "knn_random", "n": 9, "k": 3, "seed": 7}
        basis = eigendecompose(GraphSpec.from_dict(spec).build())
        if kind == "geodesic_temporal":
            cfg = {"kind": kind, "temporal": spec, "order": 0.6, "lambda": 0.3}
            want = TransformContext(basis, basis).plan("gcgfrft", (0.0, 0.6), lam=0.3).col_op.matrix
        else:
            order = 1.0 if kind == "gft" else 0.37
            cfg = {"kind": kind, "graph": spec, **({"order": order} if kind == "graph_frft" else {})}
            want = graph_frft(basis, order).matrix
        cfg_path, out = str(tmp_path / "op.json"), str(tmp_path / "op.csv")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["dump-operator", "--config", cfg_path, "--out", out]) == 0
        back = np.loadtxt(out, delimiter=",").view(np.complex128)
        assert np.array_equal(back, want)

    @pytest.mark.parametrize("cfg,message", [
        ({"n2": None}, "'n2' must be an integer, got None"),
        ({"bandwidth": None}, "'bandwidth' must be a finite number, got None"),
        ({"seed": None}, "'seed' must be an integer, got None"),
        ({"n2": 100_000}, "'n2' of 100000 exceeds the cap of 4096"),
    ], ids=["n2_null", "bandwidth_null", "seed_null", "n2_above_cap"])
    def test_bad_gen_value_exits_2(self, tmp_path, cfg, message):
        # n2 = 10^5 would ask numpy for a 74.5 GiB temporal adjacency
        code, err = run_cli(str(tmp_path), "gen", cfg)
        assert code == 2 and err.startswith("configuration error") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg,message", [
        ({"kind": "dfrft", "n": None}, "'n' must be an integer, got None"),
        ({"kind": "dfrft", "n": 6, "order": None}, "'order' must be a finite number, got None"),
        ({"kind": "dfrft", "n": 6, "order": float("inf")}, "'order' must be a finite number, got inf"),
        ({"kind": "dfrft", "n": 6, "order": 10**400}, "'order' must be a finite number, got 1000"),
        ({"kind": "dfrft", "n": 100_000_000}, "'n' of 100000000 exceeds the cap of 4096"),
        ({"kind": "gft", "graph": {"kind": "path", "n": 5}, "order": 0.3, "lambda": 0.9},
         "unknown config key(s) 'lambda', 'order'"),
        ({"kind": "dfrft", "n": 6, "graph": {"kind": "path", "n": 5}},
         "unknown config key(s) 'graph'"),
        ({"kind": ["dfrft"], "n": 6}, "unknown operator kind ['dfrft']"),
    ], ids=["n_null", "order_null", "order_inf", "order_beyond_float", "n_above_cap",
            "gft_order_lambda", "dfrft_graph", "kind_list"])
    def test_bad_dump_operator_value_exits_2(self, tmp_path, cfg, message):
        # n = 10^8 would ask numpy for a 71 PiB DFRFT eigenproblem
        code, err = run_cli(str(tmp_path), "dump-operator", cfg)
        assert code == 2 and err.startswith("configuration error") and message in err
        assert not (tmp_path / "out").exists()

    def test_non_boolean_persist_estimates_exits_2(self, tmp_path, capsys):
        cfg = {"spatial": {"kind": "knn_random", "n": 6, "k": 2, "seed": 7},
               "temporal": {"kind": "path", "n": 4}, "families": ["gbfrft2d"],
               "lambda_grid": [0.0], "seeds": [0], "train": {"epochs": 2},
               "persist_estimates": "yes"}
        code, err = run_cli(str(tmp_path), "benchmark", cfg)
        assert code == 2 and "persist_estimates must be true or false, got 'yes'" in err
        assert not (tmp_path / "out").exists()

    def test_dump_operator_unknown_key_exits_2(self, tmp_path):
        # "mode" selected a fallback DFRFT that no longer exists
        cfg_path = str(tmp_path / "op.json")
        with open(cfg_path, "w") as fh:
            json.dump({"kind": "dfrft", "n": 6, "mode": "principal_shifted"}, fh)
        assert main(["dump-operator", "--config", cfg_path, "--out", str(tmp_path / "op.csv")]) == 2

    def test_import_leaves_scipy_out(self):
        # scipy is a test-only oracle: importing it would cost every CLI
        # process about a quarter of a second
        import fracspec
        src = os.path.dirname(os.path.dirname(os.path.abspath(fracspec.__file__)))
        code = ("import sys, fracspec, fracspec.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "[]"

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["benchmark", "--config", str(tmp_path / "absent.json")]) == 2

    def test_psnr_inf_serialization(self, tmp_path):
        cfg = {
            "spatial": {"kind": "knn_random", "n": 10, "k": 3, "seed": 7},
            "temporal": {"kind": "path", "n": 5},
            "sigma_list": [0.0],
            "lambda_grid": [0.0],
            "families": ["gbfrft2d"],
            "train": {"epochs": 3},
            "seeds": [0],
        }
        cfg_path = str(tmp_path / "bench.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out = str(tmp_path / "bench")
        assert main(["benchmark", "--config", cfg_path, "--out", out]) == 0
        text = open(os.path.join(out, "report.csv")).read()
        assert ",inf," in text  # noisy passthrough at sigma=0 is exact
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        noisy = [r for r in summary["rows"] if r["family"] == "noisy"][0]
        assert noisy["psnr"] == "inf"


class TestRemainingSurfaces:
    def test_denoise_margin_violation_exits_3(self, tmp_path):
        # a 2-step temporal path at order 0.5 has -1 in its coupling spectrum,
        # so geodesic training cannot even start
        import fracspec
        ctx_cfg = {
            "spatial": {"kind": "path", "n": 4},
            "temporal": {"kind": "path", "n": 2},
            "family": "gcgfrft",
            "lambda": 0.5,
            "train": {"epochs": 2},
        }
        cfg_path = str(tmp_path / "run.json")
        with open(cfg_path, "w") as fh:
            json.dump(ctx_cfg, fh)
        data = np.arange(8.0).reshape(4, 2) + 1.0
        sig = str(tmp_path / "sig.csv")
        fio.write_signal(data, sig)
        assert main(["denoise", "--config", cfg_path, "--noisy", sig,
                     "--clean", sig, "--out", str(tmp_path / "out")]) == 3

    def test_geodesic_operator_self_consistency(self):
        ctx = TransformContext(knn_graph(random_planar_points(6, seed=0), 2), path_graph(5))
        plan = ctx.plan("gcgfrft", (0.4, 0.6), lam=0.7)
        assert plan.col_op.order == 0.7


class TestConfigSeams:
    def test_make_plan_gcgfrft_route(self):
        from fracspec import forward, inverse
        plan = TransformContext(path_graph(6), path_graph(4)).plan("gcgfrft", (0.5, 0.5), lam=0.3)
        x = TimeVertexSignal(np.random.default_rng(0).standard_normal((6, 4)))
        assert np.abs(inverse(plan, forward(plan, x)).data - x.data).max() <= 1e-10

    def test_graph_spec_inline_points(self):
        from fracspec import GraphSpec
        spec = GraphSpec.from_dict({"kind": "knn", "k": 1,
                                    "points": [[0.0], [1.0], [2.0]]})
        g = spec.build()
        want = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(g.adjacency, want)

    def test_graph_spec_points_file(self, tmp_path):
        from fracspec import GraphSpec
        pts = random_planar_points(6, seed=4)
        path = str(tmp_path / "pts.csv")
        fio.write_points_csv(pts, path)
        g = GraphSpec.from_dict({"kind": "knn", "k": 2, "file": path}).build()
        assert np.array_equal(g.adjacency, knn_graph(pts, 2).adjacency)

    def test_graph_spec_edge_list_file(self, tmp_path):
        from fracspec import GraphSpec
        g = path_graph(5)
        path = str(tmp_path / "g.csv")
        fio.write_edge_list_csv(g, path)
        back = GraphSpec.from_dict({"kind": "edge_list", "file": path}).build()
        assert np.array_equal(back.adjacency, g.adjacency)

    @pytest.mark.parametrize("spec, missing", [({"kind": "path"}, "'n'"),
                                               ({"kind": "knn_random", "n": 12}, "'k'"),
                                               ({"kind": "knn", "k": 2}, "'file' or 'points'"),
                                               ({"kind": "edge_list"}, "'file'")],
                             ids=["path", "knn_random", "knn", "edge_list"])
    def test_graph_spec_without_a_field_its_kind_needs(self, tmp_path, spec, missing):
        # refused at construction, by a message that names the field
        from fracspec import ConfigError, GraphSpec
        words = f"kind '{spec['kind']}' needs {missing}"
        for build in (GraphSpec.from_dict, lambda d: GraphSpec(**d)):
            with pytest.raises(ConfigError) as err:
                build(spec)
            assert str(err.value) == f"graph spec {words}"
        code, err = run_cli(str(tmp_path), "gen", {"spatial": spec})
        assert code == 2 and err == f"configuration error: 'spatial' {words}\n"

    def test_graph_spec_build_does_not_relabel_a_type_error(self, monkeypatch):
        # a TypeError inside a graph constructor is a bug, not a configuration error
        from fracspec import GraphSpec, harness

        def broken(n):
            raise TypeError("a bug")

        monkeypatch.setattr(harness, "path_graph", broken)
        with pytest.raises(TypeError, match="a bug"):
            GraphSpec(kind="path", n=5).build()

    def test_graph_spec_unknown_field_rejected(self):
        from fracspec import ConfigError, GraphSpec
        with pytest.raises(ConfigError):
            GraphSpec.from_dict({"kind": "path", "nodes": 5})

    def test_cli_gen_without_config_uses_defaults(self, tmp_path):
        out = str(tmp_path / "gen")
        assert main(["gen", "--out", out, "--seed", "3"]) == 0
        data, meta = fio.read_signal(os.path.join(out, "clean.csv"))
        assert data.shape == (30, 10)
        assert meta["seed"] == 3
