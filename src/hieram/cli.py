"""Experiment driver: config validation, orchestration and persistence.

One JSON config drives one run.  The seed is mandatory so every output is
reproducible; a manifest echoing the fully resolved config is written next to
the data files, and identical configs produce byte-identical data files.
Floating-point cells are printed with 17 significant digits (round-trip
exact).  A table is one numpy structured array, one field per column, and is
formatted a chunk of rows at a time.  All parallelism lives here - the
library modules stay pure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import operator
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, coupling, diagnostics, disorder, greens, operators, spectral
from .hierarchy import HierarchySpec, Truncation

DISORDER_KINDS = {cls.kind: cls for cls in typing.get_args(disorder.DistributionSpec)}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["hierarchy", "coupling", "seed"],
    "properties": {
        "hierarchy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "degree": {"type": "integer", "minimum": 2},
                "branching": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 1,
                },
                "depth": {"type": "integer", "minimum": 0},
            },
        },
        "coupling": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": ["geometric", "polygeometric", "explicit"]},
                "rho": {"type": "number", "exclusiveMinimum": 1},
                "n": {"type": "integer", "minimum": 2},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "weights": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                "tail": {"type": "number", "minimum": 0},
            },
        },
        "disorder": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(DISORDER_KINDS)},
                "center": {"type": "number"},
                "width": {"type": "number", "exclusiveMinimum": 0},
                "mean": {"type": "number"},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "location": {"type": "number"},
                "scale": {"type": "number", "exclusiveMinimum": 0},
                "a": {"type": "number"},
                "b": {"type": "number"},
                "q": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "energy_grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["points"],
            "properties": {
                "min": {"type": "number"},
                "max": {"type": "number"},
                "points": {"type": "integer", "minimum": 2},
            },
        },
        "ranks": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "rank": {"type": "integer", "minimum": 0},
        "realizations": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "site": {"type": "integer", "minimum": 0},
        "target": {"type": "integer", "minimum": 0},
        "z": {
            "type": "object",
            "additionalProperties": False,
            "required": ["re", "im"],
            "properties": {"re": {"type": "number"}, "im": {"type": "number"}},
        },
        "r_max": {"type": "integer", "minimum": 1},
        "u_exponent": {"type": "number", "exclusiveMinimum": 1},
        "s": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "threshold": {"type": "number", "exclusiveMinimum": 0},
        "fit_window": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 2,
            "maxItems": 2,
        },
        "include_tail": {"type": "boolean"},
        "save_potentials": {"type": "boolean"},
        "dense_cap": {"type": "integer", "minimum": 1},
        "output_dir": {"type": "string"},
        "format": {"enum": ["csv", "json"]},
        "threads": {"type": "integer", "minimum": 1},
    },
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# JSON Schema's types: bools are neither numbers nor integers, and a float
# with no fractional part is an integer
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (
        isinstance(v, int) and not isinstance(v, bool)
        or isinstance(v, float) and v.is_integer()
    ),
}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}


def _violations(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way value breaks schema.

    Knows the keywords CONFIG_SCHEMA uses, visits them in jsonschema's order
    and words each violation as jsonschema does.
    """
    is_array, is_object = isinstance(value, list), isinstance(value, dict)
    for key, rule in schema.items():
        if key == "type":
            if not _IS_TYPE[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum":
            if value not in rule:
                yield path, f"{value!r} is not one of {rule!r}"
        elif key in _BOUNDS:
            fails, text = _BOUNDS[key]
            if _IS_TYPE["number"](value) and fails(value, rule):
                yield path, f"{value!r} is {text} {rule!r}"
        elif key == "minItems":
            if is_array and len(value) < rule:
                text = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{value!r} {text}"
        elif key == "maxItems":
            if is_array and len(value) > rule:
                yield path, f"{value!r} is too long"
        elif key == "items":
            for index, item in enumerate(value if is_array else ()):
                yield from _violations(item, rule, (*path, index))
        elif key == "properties":
            for name, sub in rule.items():
                if is_object and name in value:
                    yield from _violations(value[name], sub, (*path, name))
        elif key == "required":
            for name in rule:
                if is_object and name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and rule is False:
            known = schema.get("properties", {})
            extras = sorted(k for k in value if k not in known) if is_object else []
            if extras:
                listed = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                text = f"({listed} {verb} unexpected)"
                yield path, f"Additional properties are not allowed {text}"
        else:
            raise KeyError(f"unsupported schema keyword {key!r}")


def columns(header: list[str], *values) -> np.ndarray:
    """A table: a structured array with one field per header name.

    Scalars broadcast against the columns; the dtype numpy infers for each
    column (float, integer, bool or str) decides how the writer prints it.
    """
    arrays = np.broadcast_arrays(*values)
    rows = np.empty(arrays[0].shape, [(h, a.dtype) for h, a in zip(header, arrays)])
    for h, a in zip(header, arrays):
        rows[h] = a
    return rows


CHUNK_ROWS = 20_000  # rows formatted per write
# object columns hold Python ints beyond 64 bits; bools and strings come as str,
# and so do JSON floats, as float.__repr__ or json's NaN/Infinity/-Infinity
_CELL = {"f": "%.17g", "i": "%d", "u": "%d", "O": "%d", "b": "%s", "U": "%s"}
_JSON_CELL = dict(_CELL, f="%s")


def _csv_field(s: str, width: int) -> str:
    """s as csv.writer (QUOTE_MINIMAL) writes it in a row of width fields.

    Python versions differ on quoting a carriage return, so it is refused.
    """
    if "\r" in s:
        raise ValueError(f"carriage return in CSV cell {s!r}")
    if any(c in s for c in ',"\n') or (s == "" and width == 1):
        return '"' + s.replace('"', '""') + '"'
    return s


def _cells(column: np.ndarray, quote, json_floats: bool) -> list:
    """One column of a chunk as the Python values its cell format takes;
    quote encodes one string cell."""
    if column.dtype.kind == "b":
        return np.where(column, "true", "false").tolist()
    if column.dtype.kind == "U":
        distinct, inverse = np.unique(column, return_inverse=True)
        quoted = [quote(s) for s in distinct.tolist()]
        return np.array(quoted, dtype=object)[inverse].tolist()
    cells = column.tolist()
    if column.dtype.kind == "O" and not all(type(c) is int for c in cells):
        raise TypeError("an object column may only hold Python ints")
    if column.dtype.kind == "f" and json_floats:
        for k in np.flatnonzero(~np.isfinite(column)).tolist():
            cells[k] = json.dumps(cells[k])  # NaN, Infinity or -Infinity
    return cells


class OutputWriter:
    """Writes tables and the manifest with deterministic bytes; the directory
    is made at the first write, so a run that fails before it leaves none."""

    def __init__(self, out_dir: Path, fmt_name: str):
        self.out_dir = out_dir
        self.fmt_name = fmt_name
        self.files: list[str] = []

    def _open(self, fname: str, **kwargs):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return open(self.out_dir / fname, "w", **kwargs)

    def table(self, name: str, header: list[str], rows: np.ndarray) -> str:
        """Write a table built by columns(header, ...); returns the file name.

        The bytes are those of csv.writer, or of json.dump(list of row dicts,
        indent=1, sort_keys=True), but each chunk is one %-format call.
        """
        kinds = [rows.dtype[h].kind for h in rows.dtype.names]
        if list(rows.dtype.names) != list(header) or not set(kinds) <= _CELL.keys():
            raise TypeError(f"table {name}: cannot write {rows.dtype} as {header}")
        fname = f"{name}.{self.fmt_name}"
        width = len(header)
        as_json = self.fmt_name == "json"
        if as_json:
            order = sorted(header)
            fields = ",\n".join(
                f"  {json.dumps(h).replace('%', '%%')}: {_JSON_CELL[rows.dtype[h].kind]}"
                for h in order
            )
            # rows are joined by ",\n", so the first row drops its separator
            head, template, skip = "[", ",\n {\n" + fields + "\n }", 1
            tail = "\n]\n" if len(rows) else "]\n"
            quote = json.dumps
        else:
            order = header
            head = ",".join(_csv_field(h, width) for h in header) + "\n"
            template, skip, tail = ",".join(_CELL[kind] for kind in kinds) + "\n", 0, ""
            quote = functools.partial(_csv_field, width=width)
        with self._open(fname, newline=None if as_json else "") as fh:
            fh.write(head)
            for lo in range(0, len(rows), CHUNK_ROWS):
                chunk = rows[lo : lo + CHUNK_ROWS]
                flat = [None] * (len(chunk) * width)
                for j, h in enumerate(order):
                    flat[j::width] = _cells(chunk[h], quote, as_json)
                text = template * len(chunk) % tuple(flat)
                fh.write(text[skip:] if lo == 0 else text)
            fh.write(tail)
        self.files.append(fname)
        return fname

    def summary(self, payload: dict):
        with self._open("summary.json") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=_jsonable)
            fh.write("\n")
        self.files.append("summary.json")

    def manifest(self, subcommand: str, config: dict):
        # where a run writes and how many workers it uses do not define the
        # experiment; leaving both out keeps manifests byte-identical across
        # re-runs into other directories or at other --threads
        config = {k: v for k, v in config.items() if k not in ("output_dir", "threads")}
        payload = {
            "artifact": "hieram",
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "files": sorted(self.files),
        }
        with self._open("manifest.json") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=_jsonable)
            fh.write("\n")


def _jsonable(x):
    if isinstance(x, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return x.tolist()
    raise TypeError(f"cannot serialize {type(x)}")


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def _finite(text: str, kind=float):
    """A JSON number or NaN/Infinity literal as kind, if it is a finite float."""
    if not math.isfinite(float(text)):
        raise ConfigError(f"config numbers must be finite floats, got {text}")
    return kind(text)


def load_config(path: str) -> dict:
    """Read a config file; main validates it once the overrides are in.

    NaN, Infinity and numbers past the float range (1e400) are refused here:
    no config key takes them, and runs given them wrote wrong rows.
    """
    try:
        with open(path) as fh:
            return json.load(
                fh,
                parse_float=_finite,
                parse_int=functools.partial(_finite, kind=int),
                parse_constant=_finite,
            )
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def validate_config(config):
    """Refuse a config outside CONFIG_SCHEMA with the violation jsonschema's
    validate reports (its best_match): the shallowest, then the one with the
    greatest instance path, then the first found.  best_match's last
    tie-break, whether the value is off its schema's type, never decides
    here: without combinators, violations at one path share one schema."""
    errors = list(_violations(config, CONFIG_SCHEMA))
    if errors:
        _, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        raise ConfigError(f"config schema violation: {message}")


def _as_integers(value, schema: dict):
    """value with the floats at "integer" nodes of schema (such as 2.0) as ints."""
    if schema.get("type") == "integer" and isinstance(value, float):
        return int(value)
    if isinstance(value, dict):
        known = schema.get("properties", {})
        return {k: _as_integers(v, known.get(k, {})) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_integers(v, schema.get("items", {})) for v in value]
    return value


def resolve_hierarchy(cfg: dict) -> HierarchySpec:
    h = cfg["hierarchy"]
    if "degree" in h and "branching" in h:
        raise ConfigError("hierarchy: give either degree or branching, not both")
    if "degree" in h:
        if "depth" not in h:
            raise ConfigError("hierarchy: degree form requires depth")
        return HierarchySpec.homogeneous(h["degree"], h["depth"])
    if "branching" in h:
        spec = HierarchySpec.explicit(h["branching"])
        if "depth" in h and h["depth"] != spec.depth:
            raise ConfigError("hierarchy: depth must match the branching length")
        return spec
    raise ConfigError("hierarchy: need degree or branching")


def resolve_coupling(cfg: dict) -> coupling.CouplingSequence:
    c = dict(cfg["coupling"])
    family = c.pop("family")
    try:
        return coupling.make_coupling(family, **c)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"coupling: {exc}") from exc


def resolve_disorder(cfg: dict) -> disorder.DistributionSpec:
    d = dict(cfg.get("disorder", {"kind": "uniform", "center": 0.0, "width": 1.0}))
    kind = d.pop("kind")
    try:
        return DISORDER_KINDS[kind](**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"disorder: {exc}") from exc


def resolve_grid(cfg: dict, dist) -> tuple[float, float, int]:
    g = cfg.get("energy_grid", {})
    points = g.get("points", 2001)
    if "min" in g or "max" in g:
        if not ("min" in g and "max" in g):
            raise ConfigError("energy_grid: min and max must come together")
        lo, hi = g["min"], g["max"]
    else:
        # default: the free band [0, 1] padded by the disorder half-width
        half = getattr(dist, "width", 1.0) / 2 if dist.kind == "uniform" else 1.0
        lo, hi = -half, 1.0 + half
    if not hi > lo:
        raise ConfigError(f"energy_grid: need max > min, got [{lo}, {hi}]")
    if not math.isfinite(float(hi) - float(lo)):
        raise ConfigError(f"energy_grid: max - min overflows, got [{lo}, {hi}]")
    return float(lo), float(hi), int(points)


def resolve_ranks(cfg: dict, depth: int) -> list[int]:
    ranks = cfg.get("ranks", list(range(depth + 1)))
    if any(r > depth for r in ranks):
        raise ConfigError(f"ranks must not exceed the depth {depth}")
    return sorted(set(int(r) for r in ranks))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_spectrum(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    r, cap = ctx["rank"], ctx["dense_cap"]
    include_tail = cfg.get("include_tail", True)
    if include_tail:
        exact = spectral.restricted_full_spectrum(t, seq, r)
        block = operators.compression_dense_block(t, seq, r, cap)
    else:
        exact = spectral.exact_cutoff_spectrum(t, seq, r)
        block = operators.cutoff_dense_block(t, seq, r, cap)
    dense_values = operators.dense_symmetric_eigensolve(block, vectors=False).eigenvalues
    dense = spectral.group_eigenvalues(dense_values, exact)
    locations, mults = zip(*exact, *dense)
    source = np.repeat(["exact", "dense"], [len(exact), len(dense)])
    header = ["location", "multiplicity", "source"]
    writer.table("spectrum", header, columns(header, locations, mults, source))
    return {"rank": r, "include_tail": include_tail, "atoms": len(exact)}


def run_dos(ctx, writer: OutputWriter) -> dict:
    t, seq, r = ctx["trunc"], ctx["coupling"], ctx["rank"]
    r_max = ctx["config"].get("r_max", max(r, 1))
    nu = spectral.finite_volume_dos(t, seq, r, ctx["dense_cap"])
    mu = spectral.limiting_spectral_measure(t, seq, r_max)
    locations, weights = zip(*nu.atoms, *mu.atoms)
    source = np.repeat(["nu", "mu"], [len(nu.atoms), len(mu.atoms)])
    header = ["location", "weight", "source"]
    writer.table("dos", header, columns(header, locations, weights, source))
    return {"rank": r, "r_max": r_max, "nu_mass": nu.mass, "mu_mass": mu.mass}


def run_dimension(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    if t.degree is None or not isinstance(seq, coupling.GeometricCoupling):
        raise ConfigError(
            "dimension needs a homogeneous hierarchy and a geometric coupling"
        )
    r_lo, r_hi = cfg.get("fit_window", [5, 20])
    if not 0 <= r_lo < r_hi:
        raise ConfigError(f"fit_window must be increasing, got [{r_lo}, {r_hi}]")
    analytic = spectral.spectral_dimension(seq, t.degree)
    measure = spectral.limiting_spectral_measure(t, seq, r_hi + 5)
    # the measure's tails are seq.tail itself, so both window ends are atoms
    fitted = spectral.fit_spectral_dimension(measure, seq.tail(r_hi), seq.tail(r_lo))
    header = ["quantity", "value"]
    rows = columns(header, ["analytic", "fitted"], [analytic, fitted])
    writer.table("dimension", header, rows)
    return {"analytic": analytic, "fitted": fitted, "fit_window": [r_lo, r_hi]}


def run_walk(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    r_max = cfg.get("r_max", 60)
    report = spectral.walk_classification(t, seq, r_max)
    header = ["r", "term", "partial_sum"]
    rows = columns(header, np.arange(r_max + 1), report.terms, report.partial_sums)
    writer.table("walk", header, rows)
    return {
        "classification": report.classification,
        "value": report.value,
        "analytic_classification": report.analytic_classification,
    }


def run_hypothesis(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    u = coupling.PowerSequence(cfg.get("u_exponent", 1.1))
    r_max = cfg.get("r_max", 40)
    s = cfg.get("s", 0.5)
    main = coupling.check_main_hypothesis(seq, t, u, r_max)
    molchanov = coupling.check_molchanov_condition(seq, u, r_max)
    bracket = coupling.fractional_moment_bounds(seq, t, s)
    reports = (main, molchanov)
    conditions = [c for rep in reports for c in [rep.condition] * len(rep.terms)]
    header = ["condition", "r", "term", "partial_sum"]
    rows = columns(
        header,
        conditions,
        np.concatenate([rep.r_values for rep in reports]),
        np.concatenate([rep.terms for rep in reports]),
        np.concatenate([rep.partial_sums for rep in reports]),
    )
    writer.table("hypothesis", header, rows)
    return {
        "u": u.describe(),
        "main_verdict": main.verdict,
        "molchanov_verdict": molchanov.verdict,
        "fractional_moment_s": s,
        "fractional_moment_lower": bracket.lower.value,
        "fractional_moment_upper": bracket.upper.value,
        "fractional_moment_lower_converges": bracket.lower.converges,
        "fractional_moment_upper_converges": bracket.upper.converges,
    }


def run_green(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    dist = ctx["disorder"]
    z_cfg = cfg.get("z", {"re": 0.5, "im": 1.0})
    z = complex(z_cfg["re"], z_cfg["im"])
    x, y, r = ctx["site"], ctx["target"], ctx["rank"]
    omega = disorder.sample_potential(dist, t, cfg["seed"], 0)
    q, values, x_q = operators.cluster_cut(t, omega, r, x)
    cascade = greens.build_cascade(q, seq, values, z, r)
    base = x - x_q  # G_r(x, .) lives on Q_r(x) = [base, base + N_r)
    column = np.zeros(t.site_count, dtype=complex)
    column[base : base + q.site_count] = greens.green_column(cascade, x_q, r)[0]
    moment = float(np.sum(np.abs(column) ** 2))
    if 0 <= y - base < q.site_count:
        entry = greens.green_entry(cascade, x_q, y - base, r)
    else:
        entry = greens.GreenQueryResult(0.0, (), t.distance(x, y))
    header = ["y", "re", "im"]
    rows = columns(header, np.arange(t.site_count), column.real, column.imag)
    writer.table("green_column", header, rows)
    terms = np.asarray(entry.terms, dtype=complex)
    header = ["s", "re", "im"]
    levels = entry.first_level + np.arange(terms.size)
    writer.table("green_terms", header, columns(header, levels, terms.real, terms.imag))
    return {
        "z": [z.real, z.imag],
        "site": x,
        "target": y,
        "rank": r,
        "entry": [entry.value.real, entry.value.imag],
        "moment": moment,
    }


def _save_potentials(ctx, writer: OutputWriter, potentials):
    """Optional audit trail: the potential samples the run used."""
    if not ctx["config"].get("save_potentials", False):
        return
    n = ctx["trunc"].site_count
    header = ["index", "site", "value"]
    rows = columns(
        header,
        np.repeat([omega.index for omega in potentials], n),
        np.tile(np.arange(n), len(potentials)),
        np.concatenate([omega.values for omega in potentials]),
    )
    writer.table("potentials", header, rows)


def _sweep_moments(ctx, writer: OutputWriter, ipr: bool):
    """Sweep the moment ladders (and IPRs) and write moments.csv, one row per
    (index, energy, rank) in that order; a skipped energy's cells read NaN."""
    t, cfg = ctx["trunc"], ctx["config"]
    grid = resolve_grid(cfg, ctx["disorder"])
    ranks = resolve_ranks(cfg, t.depth)
    report = diagnostics.localization_sweep(
        t,
        ctx["coupling"],
        ctx["disorder"],
        cfg["seed"],
        cfg.get("realizations", 1),
        grid,
        ranks,
        ctx["site"],
        ipr_rank=ranks[-1] if ipr else None,
        cap=ctx["dense_cap"],
        map_fn=ctx["map_fn"],
    )
    if not report.ok.any():
        raise RuntimeError("every grid point is pole-proximate; nothing to report")
    n_i, n_r, n_e = report.moments.shape
    skipped = np.repeat(~report.ok, n_r, axis=1).ravel()
    header = ["seed", "index", "e", "r", "S_r", "skipped"]
    rows = columns(
        header,
        report.seed,
        np.repeat([omega.index for omega in report.potentials], n_e * n_r),
        np.tile(np.repeat(report.energies, n_r), n_i),
        np.tile(report.ranks, n_i * n_e),
        np.where(skipped, np.nan, report.moments.transpose(0, 2, 1).ravel()),
        skipped,
    )
    writer.table("moments", header, rows)
    return report, grid


def run_moments(ctx, writer: OutputWriter) -> dict:
    report, grid = _sweep_moments(ctx, writer, ipr=False)
    _save_potentials(ctx, writer, report.potentials)
    skipped = int((~report.ok).sum())
    return {"grid": list(grid), "ranks": list(report.ranks), "skipped_cells": skipped}


def run_localize(ctx, writer: OutputWriter) -> dict:
    report, grid = _sweep_moments(ctx, writer, ipr=True)
    top = report.ipr_rank
    eigenvalues, iprs = report.ipr_eigenvalues, report.ipr_values
    header = ["r", "eigenvalue", "ipr"]
    writer.table("ipr", header, columns(header, top, eigenvalues.ravel(), iprs.ravel()))
    _save_potentials(ctx, writer, report.potentials)
    return {
        "grid": list(grid),
        "ranks": list(report.ranks),
        "ratio_medians": report.ratio_medians,
        "mid_ipr_median": report.mid_ipr_median,
        "mid_ipr_quartiles": list(report.mid_ipr_quartiles),
        "ipr_rank": top,
        "delocalized_floor": 1.0 / ctx["trunc"].sizes[top],
        "skipped_cells": int((~report.ok).sum()),
        "simon_wolff_applicable": report.simon_wolff_applicable,
    }


def run_bound(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    dist = ctx["disorder"]
    grid = resolve_grid(cfg, dist)
    r, site = ctx["rank"], ctx["site"]
    threshold = cfg.get("threshold")
    if threshold is None:
        u = coupling.PowerSequence(cfg.get("u_exponent", 2.0))
        try:
            threshold = (u(r) * t.sizes[r]) ** 2
        except OverflowError:  # u_r is finite, its square is not
            threshold = math.inf
        if not 0 < threshold < math.inf:  # u_0 = 0, or past the float range
            hint = "use a rank >= 1" if r == 0 else "lower u_exponent"
            raise ConfigError(
                f"bound: the default threshold (u_r N_r)^2 is {threshold:g} at rank {r}; "
                f"set threshold or {hint}"
            )
    draws = range(cfg.get("realizations", 1))
    potentials = [disorder.sample_potential(dist, t, cfg["seed"], i) for i in draws]

    def one(omega):
        return diagnostics.measure_bound_check(t, seq, omega, r, threshold, grid, site)

    reports = list(ctx["map_fn"](one, potentials))
    if all(rep.skipped == grid[2] for rep in reports):
        raise RuntimeError("every grid point is pole-proximate; nothing to report")
    header = ["r", "M", "empirical", "bound", "pass"]
    rows = columns(
        header,
        [rep.rank for rep in reports],
        [rep.threshold for rep in reports],
        [rep.empirical_measure for rep in reports],
        [rep.bound for rep in reports],
        [rep.passed for rep in reports],
    )
    writer.table("bound", header, rows)
    _save_potentials(ctx, writer, potentials)
    return {
        "grid": list(grid),
        "rank": r,
        "threshold": threshold,
        "all_passed": all(rep.passed for rep in reports),
        "allowances": [rep.allowance for rep in reports],
        "skipped": [rep.skipped for rep in reports],
    }


RUNNERS = {
    "spectrum": run_spectrum,
    "dos": run_dos,
    "dimension": run_dimension,
    "walk": run_walk,
    "hypothesis": run_hypothesis,
    "green": run_green,
    "moments": run_moments,
    "localize": run_localize,
    "bound": run_bound,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hieram",
        description="Hierarchical Anderson model simulations",
    )
    parser.add_argument("subcommand", choices=RUNNERS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker pool size for the per-draw sweeps (default: cpu count); "
        "dense solves run one at a time on the BLAS's own threads",
    )
    return parser


# (error types, error kind, exit code) for every step of main; the first match
# wins, so DenseCapError goes before ValueError, its base class.  "config" also
# takes a site or rank off the truncation and a config value past the float range
_EXITS = (
    (operators.DenseCapError, "dense-cap", 3),
    (greens.PoleProximityError, "pole-proximity", 3),
    (spectral.EigenvalueGroupingError, "eigenvalue-grouping", 3),
    ((ValueError, OverflowError), "config", 2),
    (RuntimeError, "runtime", 3),
)


def main(argv=None) -> int:
    """Flags into the config, schema check, resolve, run, write: an error from
    any step exits with the code _EXITS gives its type."""
    args = build_parser().parse_args(argv)
    flags = dict(seed=args.seed, format=args.format, output_dir=args.out, threads=args.threads)
    try:
        config = load_config(args.config)
        if isinstance(config, dict):
            config.update((k, v) for k, v in flags.items() if v is not None)
        validate_config(config)
        config = _as_integers(config, CONFIG_SCHEMA)
        t = Truncation(resolve_hierarchy(config))
        # settings several runners share: read once, checked for every subcommand
        ctx = {
            "config": config,
            "trunc": t,
            "rank": config.get("rank", t.depth),
            "site": config.get("site", 0),
            "target": config.get("target", 0),
            "dense_cap": config.get("dense_cap", operators.DENSE_CAP),
        }
        t.check_rank(ctx["rank"])
        t.check_site(ctx["site"])
        t.check_site(ctx["target"])
        ctx["coupling"] = resolve_coupling(config)
        ctx["disorder"] = resolve_disorder(config)
        out_dir = Path(config.get("output_dir", "hieram-out"))
        writer = OutputWriter(out_dir, config.get("format", "csv"))
        with ThreadPoolExecutor(max_workers=config.get("threads", os.cpu_count() or 1)) as pool:
            ctx["map_fn"] = pool.map
            summary = RUNNERS[args.subcommand](ctx, writer)
        writer.summary(summary)
        writer.manifest(args.subcommand, config)
    except Exception as exc:
        for types, kind, code in _EXITS:
            if isinstance(exc, types):
                sys.stderr.write(json.dumps({"error": kind, "detail": str(exc)}) + "\n")
                return code
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
