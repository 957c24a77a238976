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
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, coupling, diagnostics, disorder, greens, operators, spectral
from .hierarchy import HierarchySpec, Truncation

SUBCOMMANDS = (
    "spectrum",
    "dos",
    "dimension",
    "walk",
    "hypothesis",
    "green",
    "moments",
    "localize",
    "bound",
)

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
                "kind": {"enum": ["uniform", "gaussian", "cauchy", "bernoulli"]},
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
# object columns hold Python ints beyond 64 bits; bools and strings come as str
_CELL = {"f": "%.17g", "i": "%d", "u": "%d", "O": "%d", "b": "%s", "U": "%s"}


def _csv_field(s: str, width: int) -> str:
    """s as csv.writer (QUOTE_MINIMAL) writes it in a row of width fields.

    Python versions differ on quoting a carriage return, so it is refused.
    """
    if "\r" in s:
        raise ValueError(f"carriage return in CSV cell {s!r}")
    if any(c in s for c in ',"\n') or (s == "" and width == 1):
        return '"' + s.replace('"', '""') + '"'
    return s


def _cells(column: np.ndarray, width: int) -> list:
    """One column of a chunk as the Python values its _CELL format takes."""
    if column.dtype.kind == "b":
        return np.where(column, "true", "false").tolist()
    if column.dtype.kind == "U":
        distinct, inverse = np.unique(column, return_inverse=True)
        quoted = [_csv_field(s, width) for s in distinct.tolist()]
        return np.array(quoted, dtype=object)[inverse].tolist()
    cells = column.tolist()
    if column.dtype.kind == "O" and not all(type(c) is int for c in cells):
        raise TypeError("an object column may only hold Python ints")
    return cells


class OutputWriter:
    """Writes tables and the manifest with deterministic bytes."""

    def __init__(self, out_dir: Path, fmt_name: str):
        self.out_dir = out_dir
        self.fmt_name = fmt_name
        self.files: list[str] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def table(self, name: str, header: list[str], rows: np.ndarray) -> str:
        """Write a table built by columns(header, ...); returns the file name."""
        kinds = [rows.dtype[h].kind for h in rows.dtype.names]
        if list(rows.dtype.names) != list(header) or not set(kinds) <= _CELL.keys():
            raise TypeError(f"table {name}: cannot write {rows.dtype} as {header}")
        fname = f"{name}.{self.fmt_name}"
        if self.fmt_name == "json":
            payload = [dict(zip(header, row)) for row in rows.tolist()]
            with open(self.out_dir / fname, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True, default=_jsonable)
                fh.write("\n")
        else:
            with open(self.out_dir / fname, "w", newline="") as fh:
                width = len(header)
                template = ",".join(_CELL[kind] for kind in kinds) + "\n"
                fh.write(",".join(_csv_field(h, width) for h in header) + "\n")
                for lo in range(0, len(rows), CHUNK_ROWS):
                    chunk = rows[lo : lo + CHUNK_ROWS]
                    flat = [None] * (len(chunk) * width)
                    for j, h in enumerate(header):
                        flat[j::width] = _cells(chunk[h], width)
                    fh.write(template * len(chunk) % tuple(flat))
        self.files.append(fname)
        return fname

    def summary(self, payload: dict):
        with open(self.out_dir / "summary.json", "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=_jsonable)
            fh.write("\n")
        self.files.append("summary.json")

    def manifest(self, subcommand: str, config: dict):
        # the output path does not define the experiment; leaving it out keeps
        # manifests byte-identical across re-runs into different directories
        config = {k: v for k, v in config.items() if k != "output_dir"}
        payload = {
            "artifact": "hieram",
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "files": sorted(self.files),
        }
        with open(self.out_dir / "manifest.json", "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=_jsonable)
            fh.write("\n")


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"cannot serialize {type(x)}")


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    return config


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
    classes = {
        "uniform": disorder.Uniform,
        "gaussian": disorder.Gaussian,
        "cauchy": disorder.Cauchy,
        "bernoulli": disorder.Bernoulli,
    }
    try:
        return classes[kind](**d)
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
    r = cfg.get("rank", t.depth)
    include_tail = cfg.get("include_tail", True)
    cap = cfg.get("dense_cap", operators.DENSE_CAP)
    if include_tail:
        exact = spectral.restricted_full_spectrum(t, seq, r)
        block = operators.compression_dense_block(t, seq, r, cap)
    else:
        exact = spectral.exact_cutoff_spectrum(t, seq, r)
        block = operators.cutoff_dense_block(t, seq, r, cap)
    dense_values = operators.dense_symmetric_eigensolve(block).eigenvalues
    dense = spectral.group_eigenvalues(dense_values, exact)
    locations, mults = zip(*exact, *dense)
    source = np.repeat(["exact", "dense"], [len(exact), len(dense)])
    header = ["location", "multiplicity", "source"]
    writer.table("spectrum", header, columns(header, locations, mults, source))
    return {"rank": r, "include_tail": include_tail, "atoms": len(exact)}


def run_dos(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    r = cfg.get("rank", t.depth)
    r_max = cfg.get("r_max", max(r, 1))
    cap = cfg.get("dense_cap", operators.DENSE_CAP)
    nu = spectral.finite_volume_dos(t, seq, r, cap)
    mu = spectral.limiting_spectral_measure(t, seq, r_max)
    locations, weights = zip(*nu.atoms, *mu.atoms)
    source = np.repeat(["nu", "mu"], [len(nu.atoms), len(mu.atoms)])
    header = ["location", "weight", "source"]
    writer.table("dos", header, columns(header, locations, weights, source))
    return {"rank": r, "r_max": r_max, "nu_mass": nu.mass, "mu_mass": mu.mass}


def run_dimension(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    if t.spec.degree is None or not isinstance(seq, coupling.GeometricCoupling):
        raise ConfigError(
            "dimension needs a homogeneous hierarchy and a geometric coupling"
        )
    r_lo, r_hi = cfg.get("fit_window", [5, 20])
    if not 0 <= r_lo < r_hi:
        raise ConfigError(f"fit_window must be increasing, got [{r_lo}, {r_hi}]")
    analytic = spectral.spectral_dimension(seq, t.spec.degree)
    measure = spectral.limiting_spectral_measure(t, seq, r_hi + 5)
    # nudge the window so the boundary atoms stay inside despite rounding
    fitted = spectral.fit_spectral_dimension(
        measure, seq.tail(r_hi) * (1 - 1e-12), seq.tail(r_lo) * (1 + 1e-12)
    )
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
    x = cfg.get("site", 0)
    y = cfg.get("target", 0)
    r = cfg.get("rank", t.depth)
    omega = disorder.sample_potential(dist, t, cfg["seed"], 0)
    cascade = greens.build_cascade(t, seq, omega, z, r)
    column, moment = greens.green_column(cascade, x, r)
    entry = greens.green_entry(cascade, x, y, r)
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


def _save_potentials(ctx, writer: OutputWriter, realizations: int):
    """Optional audit trail: the sampled potential of every realization."""
    if not ctx["config"].get("save_potentials", False):
        return
    t, seed, dist = ctx["trunc"], ctx["config"]["seed"], ctx["disorder"]
    n = t.site_count
    omegas = [disorder.sample_potential(dist, t, seed, i) for i in range(realizations)]
    header = ["index", "site", "value"]
    rows = columns(
        header,
        np.repeat(np.arange(realizations), n),
        np.tile(np.arange(n), realizations),
        np.concatenate([omega.values for omega in omegas]),
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
        cfg.get("site", 0),
        ipr_ranks=(ranks[-1],) if ipr else (),
        cap=cfg.get("dense_cap", operators.DENSE_CAP),
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
        np.repeat(report.realization_indices, n_e * n_r),
        np.tile(np.repeat(report.energies, n_r), n_i),
        np.tile(report.ranks, n_i * n_e),
        np.where(skipped, np.nan, report.moments.transpose(0, 2, 1).ravel()),
        skipped,
    )
    writer.table("moments", header, rows)
    return report, grid


def run_moments(ctx, writer: OutputWriter) -> dict:
    report, grid = _sweep_moments(ctx, writer, ipr=False)
    _save_potentials(ctx, writer, len(report.realization_indices))
    skipped = int((~report.ok).sum())
    return {"grid": list(grid), "ranks": list(report.ranks), "skipped_cells": skipped}


def run_localize(ctx, writer: OutputWriter) -> dict:
    report, grid = _sweep_moments(ctx, writer, ipr=True)
    top = report.ipr_ranks[0]
    eigenvalues, iprs = report.ipr_eigenvalues[top], report.ipr_values[top]
    header = ["r", "eigenvalue", "ipr"]
    writer.table("ipr", header, columns(header, top, eigenvalues.ravel(), iprs.ravel()))
    _save_potentials(ctx, writer, len(report.realization_indices))
    return {
        "grid": list(grid),
        "ranks": list(report.ranks),
        "ratio_medians": report.ratio_medians,
        "mid_ipr_median": report.mid_ipr_median[top],
        "mid_ipr_quartiles": list(report.mid_ipr_quartiles[top]),
        "ipr_rank": top,
        "delocalized_floor": 1.0 / ctx["trunc"].sizes[top],
        "skipped_cells": int((~report.ok).sum()),
        "simon_wolff_applicable": report.simon_wolff_applicable,
    }


def run_bound(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    dist = ctx["disorder"]
    grid = resolve_grid(cfg, dist)
    r = cfg.get("rank", t.depth)
    realizations = cfg.get("realizations", 1)
    u = coupling.PowerSequence(cfg.get("u_exponent", 2.0))
    threshold = cfg.get("threshold", (u(r) * t.sizes[r]) ** 2)
    site = cfg.get("site", 0)

    def one(i):
        omega = disorder.sample_potential(dist, t, cfg["seed"], i)
        return diagnostics.measure_bound_check(t, seq, omega, r, threshold, grid, site)

    reports = list(ctx["map_fn"](one, range(realizations)))
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
    _save_potentials(ctx, writer, realizations)
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
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument(
        "--threads", type=int, default=None, help="worker pool size (default: cpu count)"
    )
    return parser


def _error(kind: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.format is not None:
            config["format"] = args.format
        if args.out is not None:
            config["output_dir"] = args.out
        out_dir = Path(config.get("output_dir", "hieram-out"))
        fmt_name = config.get("format", "csv")
        threads = args.threads or config.get("threads") or os.cpu_count() or 1

        spec = resolve_hierarchy(config)
        ctx = {
            "config": config,
            "trunc": Truncation(spec),
            "coupling": resolve_coupling(config),
            "disorder": resolve_disorder(config),
        }
    except ConfigError as exc:
        _error("config", str(exc))
        return 2
    except (ValueError, OverflowError) as exc:
        _error("config", str(exc))
        return 2

    writer = OutputWriter(out_dir, fmt_name)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            ctx["map_fn"] = pool.map
            summary = RUNNERS[args.subcommand](ctx, writer)
    except operators.DenseCapError as exc:
        _error("dense-cap", str(exc))
        return 3
    except greens.PoleProximityError as exc:
        _error("pole-proximity", str(exc))
        return 3
    except spectral.EigenvalueGroupingError as exc:
        _error("eigenvalue-grouping", str(exc))
        return 3
    except (ConfigError, ValueError) as exc:
        # out-of-range sites/ranks surface here as library ValueErrors
        _error("config", str(exc))
        return 2
    except RuntimeError as exc:
        _error("runtime", str(exc))
        return 3
    writer.summary(summary)
    writer.manifest(args.subcommand, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
