"""The benchmark workloads: hieram CLI configs written from the workload seed.

All three use degree-2 branching and the reference geometric coupling
rho = 4 from the README and the acceptance suite; the two random ones use
uniform disorder of width 1.  Each workload stresses a different layer and
is the control for the others, so a change to one layer should move one row
and leave the other two unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import oracles

COUPLING = {"family": "geometric", "rho": 4.0}
DISORDER = {"kind": "uniform", "center": 0.0, "width": 1.0}


@dataclass(frozen=True)
class Workload:
    subcommand: str
    threads: int | None  # --threads; None leaves the CLI default
    config: Callable[[int], dict]  # workload seed -> CLI config
    oracle: Callable  # (config, output dir, rng) -> list of problems
    layers: tuple[str, ...]  # spans a traced run of this workload must record


def _localize(seed: int) -> dict:
    return {
        "hierarchy": {"degree": 2, "depth": 10},
        "coupling": dict(COUPLING),
        "disorder": dict(DISORDER),
        "energy_grid": {"min": -0.5, "max": 1.5, "points": 2001},
        "ranks": list(range(11)),
        "realizations": 8,
        "seed": seed,
    }


def _bound(seed: int) -> dict:
    return {
        "hierarchy": {"degree": 2, "depth": 10},
        "coupling": dict(COUPLING),
        "disorder": dict(DISORDER),
        "energy_grid": {"min": -0.5, "max": 1.5, "points": 4001},
        "rank": 10,
        "realizations": 8,
        "seed": seed,
    }


def _dos(seed: int) -> dict:
    # no disorder: the free Laplacian at the dense cap N = 4096
    return {
        "hierarchy": {"degree": 2, "depth": 12},
        "coupling": dict(COUPLING),
        "seed": seed,
    }


WORKLOADS = {
    # acceptance-sized flagship: every layer, at the CLI's default pool size
    # on a 2-core box, with BLAS threads left as the user's environment sets
    "localize-n1024": Workload(
        "localize",
        2,
        _localize,
        oracles.check_localize,
        (
            "cli.run",
            "cli.write",
            "cli.pool_map",
            "cli.pool_task",
            "disorder.sample",
            "greens.sweep",
            "diagnostics.ipr",
            "operators.assemble",
            "hierarchy.distance_matrix",
            "operators.eigh",
        ),
    ),
    # single-threaded cluster-norm sweep: shows greens changes; control for
    # the writer, dense and pool layers
    "bound-n1024": Workload(
        "bound",
        1,
        _bound,
        oracles.check_bound,
        (
            "cli.run",
            "cli.write",
            "cli.pool_map",
            "cli.pool_task",
            "disorder.sample",
            "greens.sweep",
        ),
    ),
    # dense assembly and eigh at the cap: shows operators/spectral changes in
    # time and memory; control for greens and writer changes
    "dos-n4096": Workload(
        "dos",
        None,
        _dos,
        oracles.check_dos,
        (
            "cli.run",
            "cli.write",
            "spectral.dos",
            "operators.assemble",
            "hierarchy.distance_matrix",
            "operators.eigh",
        ),
    ),
}
