"""Exception types shared across the package, and the reader that checks a
config against its table."""

import dataclasses
import numbers
import os
import sys


class FracspecError(Exception):
    """Base class for all library-specific failures."""


class GraphError(FracspecError, ValueError):
    """Invalid graph input: bad size, bad weights, duplicate points, bad k."""


class NotUnitaryError(FracspecError, ValueError):
    """A matrix expected to be unitary failed the unitarity tolerance."""


class DecompositionError(FracspecError, RuntimeError):
    """A spectral factorization did not meet its reconstruction/orthonormality
    guarantees (e.g. eigenvector ordering instability in an operator build)."""


class MarginViolationError(FracspecError, RuntimeError):
    """The coupling operator has an eigenphase too close to the -1 branch cut,
    so the principal logarithm underlying the geodesic path is ill-defined.

    Attributes
    ----------
    margin : float
        Observed distance (radians) of the worst eigenphase from pi.
    index : int
        Index of the offending phase in the sorted decomposition.
    """

    def __init__(self, message, margin=None, index=None):
        super().__init__(message)
        self.margin = margin
        self.index = index


class ConfigError(FracspecError, ValueError):
    """Malformed configuration (CLI/JSON or programmatic)."""


#: what a scalar of each kind must be, and its Python type
_KINDS = {int: ("an integer", numbers.Integral), float: ("a finite number", numbers.Real),
          bool: ("true or false", bool), str: ("a nonempty string", (str, os.PathLike))}


def read_config(table: dict, cfg, where: str | None = None) -> dict:
    """Check ``cfg`` against ``table``; return every key's value or default.

    ``table`` maps a key to ``(kind, default, range, cap, rule)``, the last
    three optional. A kind is ``int``, ``float``, ``bool``, ``str``, ``[kind]``
    (a nonempty list, read as a tuple; the rows of a ``[[kind]]`` have one
    length), ``{kind}`` (one without repeats),
    ``(kind, [kind])`` (either) or a dataclass, whose range is its table.
    Other ranges, an interval such as ``"(0, 1]"`` or the allowed strings,
    hold for each list entry. The allowed strings may map each to the keys
    that the value needs, each key or a tuple of keys one of which must be
    given. A cap is ``(limit, unit)``; a default of
    ``dataclasses.MISSING`` makes the key required; ``rule`` replaces the
    generated words.

    A bool is not a number, a null is not a default, a number must be
    finite and an unknown key is refused, each by a ``ConfigError`` naming
    the key (``'key'``, or ``where key`` inside the object ``where``). A
    dataclass ``cfg`` is checked but for fields holding their default object.
    """
    if dataclasses.is_dataclass(cfg):
        cfg = {key: value for key, value in vars(cfg).items() if value is not table[key][1]}
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where or 'a config'} must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))}"
                          f"{' in ' + where if where else ''}; expected some of {', '.join(table)}")

    def value(v, label, kind, default=None, rng=None, cap=None, rule=None):
        def fail(words):
            raise ConfigError(f"{label}: {rule}, got {v!r}" if rule else
                              f"{label} must be {words}, got {v!r}")

        if isinstance(kind, tuple):
            kind = kind[isinstance(v, list)]
        if isinstance(kind, (list, set)):
            if not isinstance(v, (list, tuple)) or not v:
                fail("a nonempty list")
            items = tuple(value(x, f"{label}[{i}]", next(iter(kind)), None, rng, cap, rule)
                          for i, x in enumerate(v))
            if isinstance(kind, set) and len(set(items)) < len(items):
                fail("a list without repeated entries")
            if isinstance(next(iter(kind)), list) and len({len(row) for row in items}) > 1:
                fail("a list of rows of one length")
            return items
        if dataclasses.is_dataclass(kind):
            return v if isinstance(v, kind) else kind(**read_config(rng, v, label))
        words, pytype = _KINDS[kind]
        if isinstance(v, bool) != (kind is bool) or not isinstance(v, pytype) or v == "" \
                or kind is float and not abs(v) <= sys.float_info.max:
            fail(words)
        if kind is str and rng is not None and v not in rng:
            fail(f"one of {', '.join(rng)}")
        if kind is not str and rng is not None:
            lo, hi, lo_open, hi_open = interval(rng)
            if not ((lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)):
                fail(f"in {rng}")
        if cap is not None and v > cap[0]:
            raise ConfigError(f"{label} of {v} exceeds the cap of {cap[0]} {cap[1]}")
        return v

    out = {}
    for key, entry in table.items():
        label = f"{where} {key}" if where else repr(key)
        if key not in cfg and entry[1] is dataclasses.MISSING:
            raise ConfigError(f"{label} is required")
        out[key] = value(cfg[key], label, *entry) if key in cfg else entry[1]
        needs = entry[2] if len(entry) > 2 and isinstance(entry[2], dict) else {}
        for need in needs.get(out[key], ()):
            need = (need,) if isinstance(need, str) else need
            if not any(k in cfg for k in need):
                raise ConfigError(f"{label} {out[key]!r} needs {' or '.join(map(repr, need))}")
    return out


def interval(rng: str) -> tuple:
    """``(lo, hi, lo_open, hi_open)`` of a table range such as ``"(0, 1]"``."""
    lo, hi = (float(bound) for bound in rng[1:-1].split(","))
    return lo, hi, rng[0] == "(", rng[-1] == ")"


def with_default(entry: tuple, default) -> tuple:
    """``entry`` of a config table with another default."""
    return (entry[0], default, *entry[2:])


def dataclass_table(cls, **entries) -> dict:
    """The config table of the dataclass ``cls`` from an entry per field,
    whose default (written ``...``) becomes the field's own."""
    return {f.name: with_default(entries[f.name], f.default_factory() if callable(f.default_factory)
                                 else f.default) for f in dataclasses.fields(cls)}
