"""Experiment driver: config validation, orchestration and persistence.

One JSON config drives one run.  The seed is mandatory so every output is
reproducible; a manifest echoing the fully resolved config is written next to
the data files, and identical configs produce byte-identical data files.
Floating-point cells are printed with 17 significant digits (round-trip
exact).  All parallelism lives here - the library modules stay pure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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


def fmt(x) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


class OutputWriter:
    """Writes tables and the manifest with deterministic bytes."""

    def __init__(self, out_dir: Path, fmt_name: str):
        self.out_dir = out_dir
        self.fmt_name = fmt_name
        self.files: list[str] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def table(self, name: str, header: list[str], rows) -> str:
        if self.fmt_name == "csv":
            fname = f"{name}.csv"
            with open(self.out_dir / fname, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([fmt(cell) for cell in row])
        else:
            fname = f"{name}.json"
            payload = [dict(zip(header, row)) for row in rows]
            with open(self.out_dir / fname, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True, default=_jsonable)
                fh.write("\n")
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
    rows = [(loc, mult, "exact") for loc, mult in exact]
    rows += [
        (loc, mult, "dense")
        for loc, mult in spectral.group_eigenvalues(dense_values, exact)
    ]
    writer.table("spectrum", ["location", "multiplicity", "source"], rows)
    return {"rank": r, "include_tail": include_tail, "atoms": len(exact)}


def run_dos(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    r = cfg.get("rank", t.depth)
    r_max = cfg.get("r_max", max(r, 1))
    cap = cfg.get("dense_cap", operators.DENSE_CAP)
    nu = spectral.finite_volume_dos(t, seq, r, cap)
    mu = spectral.limiting_spectral_measure(t, seq, r_max)
    rows = [(loc, w, "nu") for loc, w in nu.atoms]
    rows += [(loc, w, "mu") for loc, w in mu.atoms]
    writer.table("dos", ["location", "weight", "source"], rows)
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
    rows = [("analytic", analytic), ("fitted", fitted)]
    writer.table("dimension", ["quantity", "value"], rows)
    return {"analytic": analytic, "fitted": fitted, "fit_window": [r_lo, r_hi]}


def run_walk(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    r_max = cfg.get("r_max", 60)
    report = spectral.walk_classification(t, seq, r_max)
    rows = [
        (r, report.terms[r], report.partial_sums[r]) for r in range(r_max + 1)
    ]
    writer.table("walk", ["r", "term", "partial_sum"], rows)
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
    rows = []
    for rep in (main, molchanov):
        rows += [
            (rep.condition, r, term, psum)
            for r, term, psum in zip(rep.r_values, rep.terms, rep.partial_sums)
        ]
    writer.table("hypothesis", ["condition", "r", "term", "partial_sum"], rows)
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
    writer.table(
        "green_column",
        ["y", "re", "im"],
        [(i, column[i].real, column[i].imag) for i in range(t.site_count)],
    )
    writer.table(
        "green_terms",
        ["s", "re", "im"],
        [
            (entry.first_level + k, term.real, term.imag)
            for k, term in enumerate(entry.terms)
        ],
    )
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
    t, cfg, dist = ctx["trunc"], ctx["config"], ctx["disorder"]
    rows = []
    for i in range(realizations):
        omega = disorder.sample_potential(dist, t, cfg["seed"], i)
        rows += [(i, x, omega.values[x]) for x in range(t.site_count)]
    writer.table("potentials", ["index", "site", "value"], rows)


def _moments_rows(seed, indices, energies, ranks, moments, ok):
    """moments.csv rows; moments[i] is (ranks x energies), ok[i] flags energies."""
    rows = []
    for i in indices:
        moments_i, ok_i = moments[i], ok[i]
        for k, e in enumerate(energies):
            skipped = not ok_i[k]
            for j, r in enumerate(ranks):
                value = math.nan if skipped else moments_i[j, k]
                rows.append((seed, i, e, r, value, skipped))
    return rows


def run_moments(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    dist = ctx["disorder"]
    grid = resolve_grid(cfg, dist)
    ranks = resolve_ranks(cfg, t.depth)
    site = cfg.get("site", 0)
    realizations = cfg.get("realizations", 1)
    energies = np.linspace(grid[0], grid[1], grid[2])
    indices = range(realizations)
    ladders, ok = zip(
        *ctx["map_fn"](
            lambda i: diagnostics.sweep_realization(
                t, seq, dist, cfg["seed"], i, energies, ranks, site
            ),
            indices,
        )
    )
    if not any(good.any() for good in ok):
        raise RuntimeError("every grid point is pole-proximate; nothing to report")
    rows = _moments_rows(cfg["seed"], indices, energies, ranks, ladders, ok)
    writer.table("moments", ["seed", "index", "e", "r", "S_r", "skipped"], rows)
    _save_potentials(ctx, writer, realizations)
    skipped = int(sum((~good).sum() for good in ok))
    return {"grid": list(grid), "ranks": ranks, "skipped_cells": skipped}


def run_localize(ctx, writer: OutputWriter) -> dict:
    t, seq, cfg = ctx["trunc"], ctx["coupling"], ctx["config"]
    dist = ctx["disorder"]
    grid = resolve_grid(cfg, dist)
    ranks = resolve_ranks(cfg, t.depth)
    site = cfg.get("site", 0)
    realizations = cfg.get("realizations", 1)
    cap = cfg.get("dense_cap", operators.DENSE_CAP)
    report = diagnostics.localization_sweep(
        t,
        seq,
        dist,
        cfg["seed"],
        realizations,
        grid,
        ranks,
        site,
        ipr_ranks=(ranks[-1],),
        cap=cap,
        map_fn=ctx["map_fn"],
    )
    if not report.ok.any():
        raise RuntimeError("every grid point is pole-proximate; nothing to report")
    rows = _moments_rows(
        report.seed,
        report.realization_indices,
        report.energies,
        report.ranks,
        report.moments,
        report.ok,
    )
    writer.table("moments", ["seed", "index", "e", "r", "S_r", "skipped"], rows)
    ipr_rows = []
    top = report.ipr_ranks[0]
    for i in report.realization_indices:
        for ev, ipr in zip(report.ipr_eigenvalues[top][i], report.ipr_values[top][i]):
            ipr_rows.append((top, ev, ipr))
    writer.table("ipr", ["r", "eigenvalue", "ipr"], ipr_rows)
    _save_potentials(ctx, writer, realizations)
    return {
        "grid": list(grid),
        "ranks": list(report.ranks),
        "ratio_medians": report.ratio_medians,
        "mid_ipr_median": report.mid_ipr_median[top],
        "mid_ipr_quartiles": list(report.mid_ipr_quartiles[top]),
        "ipr_rank": top,
        "delocalized_floor": 1.0 / t.sizes[top],
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
    rows = [
        (rep.rank, rep.threshold, rep.empirical_measure, rep.bound, rep.passed)
        for rep in reports
    ]
    writer.table("bound", ["r", "M", "empirical", "bound", "pass"], rows)
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
