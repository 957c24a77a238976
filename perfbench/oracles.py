"""Independent correctness checks on the files a benchmark run wrote.

The Hamiltonians, potentials and exact spectra here are rebuilt from their
definitions with numpy alone, not through ``hieram.operators`` or
``hieram.disorder``, so a defect shared by the program's fast path and its own
dense helpers still shows.  Each check returns a list of problems; an empty
list means the output passed.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CELLS = 12  # sampled (realization, energy, rank) cells per localize run
ENERGIES = 6  # sampled energies per bound run
S_RTOL = 1e-6
EIG_ATOL = 1e-9
IPR_ATOL = 1e-8
ATOM_ATOL = 1e-9


def potential(seed: int, index: int, n: int, center: float, width: float) -> np.ndarray:
    """Uniform potential of realization (seed, index): Philox keyed by the pair."""
    key = np.array([seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return center + width * (rng.random(n) - 0.5)


def couplings(rho: float, r: int) -> list[float]:
    """Geometric weights p_s = (rho - 1) rho^-s for s = 1..r."""
    return [(rho - 1.0) * rho**-s for s in range(1, r + 1)]


def cutoff_laplacian(degree: int, rho: float, r: int) -> np.ndarray:
    """sum_{s=1}^{r} p_s E_s on the rank-r cluster of site 0, entry by entry."""
    n_r = degree**r
    x = np.arange(n_r)
    lap = np.zeros((n_r, n_r))
    for s, p_s in enumerate(couplings(rho, r), start=1):
        block = x // degree**s
        lap += (p_s / degree**s) * (block[:, None] == block[None, :])
    return lap


def exact_atoms(degree: int, rho: float, r: int, tail: bool) -> list[tuple[float, int]]:
    """Eigenvalues with multiplicities of the rank-r cut-off Laplacian.

    A vector constant on rank-s clusters and of zero mean on rank-(s+1)
    clusters is fixed by E_t for t <= s and killed for t > s, so it has
    eigenvalue p_1 + ... + p_s.  With ``tail`` the compression of the full
    Laplacian adds N_r sum_{t>r} p_t / N_t to the constant vector only.
    """
    p = couplings(rho, r)
    atoms = [
        (math.fsum(p[:s]), degree ** (r - s) - degree ** (r - s - 1)) for s in range(r)
    ]
    top = math.fsum(p)
    if tail:
        deep = range(r + 1, r + 200)
        top += degree**r * math.fsum((rho - 1.0) * (rho * degree) ** -t for t in deep)
    return atoms + [(top, 1)]


def check_atoms(atoms, exact, n_r: int) -> list[str]:
    """Compare (location, weight) atoms with exact (location, multiplicity) ones.

    Same count, locations within ATOM_ATOL, weights exactly mult / N_r, and
    total mass 1.
    """
    problems = []
    if len(atoms) != len(exact):
        problems.append(f"{len(atoms)} atoms, expected {len(exact)}")
    else:
        for (loc, weight), (want, mult) in zip(sorted(atoms), exact):
            if abs(loc - want) > ATOM_ATOL:
                problems.append(f"atom at {loc!r}, expected {want!r}")
            if weight != mult / n_r:
                problems.append(f"atom at {want!r} weighs {weight!r}, expected {mult}/{n_r}")
    mass = math.fsum(weight for _, weight in atoms)
    if abs(mass - 1.0) > 1e-12:
        problems.append(f"total mass {mass!r}")
    return problems


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _grid(cfg: dict) -> np.ndarray:
    g = cfg["energy_grid"]
    return np.linspace(g["min"], g["max"], g["points"])


def _hamiltonian(cfg: dict, index: int, r: int) -> np.ndarray:
    degree, depth = cfg["hierarchy"]["degree"], cfg["hierarchy"]["depth"]
    d = cfg["disorder"]
    omega = potential(cfg["seed"], index, degree**depth, d["center"], d["width"])
    h = cutoff_laplacian(degree, cfg["coupling"]["rho"], r)
    h[np.diag_indices_from(h)] += omega[: h.shape[0]]
    return h


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_localize(cfg: dict, out: Path, rng: np.random.Generator) -> list[str]:
    """S_r at sampled cells against a dense solve; one realization's IPRs against eigh."""
    problems = []
    energies, ranks = _grid(cfg), cfg["ranks"]
    realizations, degree = cfg["realizations"], cfg["hierarchy"]["degree"]
    lines = _lines(out / "moments.csv")
    if lines[0] != "seed,index,e,r,S_r,skipped":
        return [f"moments.csv header {lines[0]!r}"]
    if len(lines) != 1 + realizations * energies.size * len(ranks):
        return [f"moments.csv has {len(lines) - 1} rows"]
    checked = 0
    for _ in range(100 * CELLS):
        if checked == CELLS:
            break
        i = int(rng.integers(realizations))
        k = int(rng.integers(energies.size))
        j = int(rng.integers(len(ranks)))
        seed, index, e, r, s_r, skipped = lines[1 + (i * energies.size + k) * len(ranks) + j].split(",")
        if (int(seed), int(index), float(e), int(r)) != (cfg["seed"], i, energies[k], ranks[j]):
            problems.append(f"moments.csv row for cell {(i, k, j)} is out of order")
            break
        if skipped == "true":
            continue
        h = _hamiltonian(cfg, i, ranks[j])
        rhs = np.zeros(h.shape[0])
        rhs[0] = 1.0
        want = float(np.sum(np.linalg.solve(h - energies[k] * np.eye(h.shape[0]), rhs) ** 2))
        if not _rel(float(s_r), want) <= S_RTOL:
            problems.append(f"S_{r}(e={e}) realization {i}: {s_r} vs dense {want!r}")
        checked += 1
    if checked < CELLS:
        problems.append(f"only {checked} non-skipped cells found to check")

    top = ranks[-1]
    n_top = degree**top
    i = int(rng.integers(realizations))
    rows = [row.split(",") for row in _lines(out / "ipr.csv")[1 + i * n_top : 1 + (i + 1) * n_top]]
    values, vectors = np.linalg.eigh(_hamiltonian(cfg, i, top))
    got_values = np.array([float(row[1]) for row in rows])
    got_iprs = np.array([float(row[2]) for row in rows])
    if got_values.shape != values.shape:
        return problems + [f"ipr.csv realization {i} has {got_values.size} rows"]
    if np.abs(got_values - values).max() > EIG_ATOL:
        problems.append(f"IPR eigenvalues of realization {i} differ from eigh")
    if np.abs(got_iprs - np.sum(vectors**4, axis=0)).max() > IPR_ATOL:
        problems.append(f"IPRs of realization {i} differ from eigh")
    return problems


def check_bound(cfg: dict, out: Path, rng: np.random.Generator) -> list[str]:
    """Every row passes; one realization's empirical measure and cluster norms re-derived."""
    from hieram import GeometricCoupling, HierarchySpec, Truncation, greens

    problems = []
    degree, depth = cfg["hierarchy"]["degree"], cfg["hierarchy"]["depth"]
    r, n_r = cfg["rank"], degree ** cfg["rank"]
    threshold = float((r**2 * n_r) ** 2)  # default M = (u_r N_r)^2 with u_r = r^2
    lines = _lines(out / "bound.csv")
    rows = [row.split(",") for row in lines[1:]]
    if lines[0] != "r,M,empirical,bound,pass" or len(rows) != cfg["realizations"]:
        return [f"bound.csv has header {lines[0]!r} and {len(rows)} rows"]
    for i, (rank, m, _, bound, passed) in enumerate(rows):
        if (int(rank), float(m), passed) != (r, threshold, "true"):
            problems.append(f"bound.csv row {i}: {lines[1 + i]}")
        if float(bound) != 4.0 * n_r / math.sqrt(threshold):
            problems.append(f"bound.csv row {i} bound {bound}")

    i = int(rng.integers(cfg["realizations"]))
    energies = _grid(cfg)
    t = Truncation(HierarchySpec.homogeneous(degree, depth))
    d = cfg["disorder"]
    omega = potential(cfg["seed"], i, degree**depth, d["center"], d["width"])
    norm2, ok = greens.cluster_norm_sweep(
        t, GeometricCoupling(cfg["coupling"]["rho"]), omega, energies, r
    )
    g = cfg["energy_grid"]
    spacing = (g["max"] - g["min"]) / (g["points"] - 1)
    empirical = float((ok & (norm2 >= threshold)).sum()) * spacing
    if float(rows[i][2]) != empirical:
        problems.append(f"realization {i} empirical {rows[i][2]} vs {empirical!r} from its norms")
    h = _hamiltonian(cfg, i, r)
    for k in rng.choice(np.flatnonzero(ok), size=ENERGIES, replace=False):
        e, got = float(energies[k]), float(norm2[k])
        want = float(np.sum(np.linalg.solve(h - e * np.eye(n_r), np.ones(n_r)) ** 2))
        if not _rel(got, want) <= S_RTOL:
            problems.append(f"cluster norm at e={e!r}: {got!r} vs dense {want!r}")
    return problems


def check_dos(cfg: dict, out: Path, rng: np.random.Generator) -> list[str]:
    """The nu atoms are the restricted full spectrum with weights mult / N_r."""
    degree, depth = cfg["hierarchy"]["degree"], cfg["hierarchy"]["depth"]
    rows = [row.split(",") for row in _lines(out / "dos.csv")[1:]]
    atoms = [(float(loc), float(w)) for loc, w, source in rows if source == "nu"]
    exact = exact_atoms(degree, cfg["coupling"]["rho"], depth, tail=True)
    problems = check_atoms(atoms, exact, degree**depth)
    if json.loads((out / "summary.json").read_text())["nu_mass"] != 1.0:
        problems.append("summary nu_mass is not 1")
    return problems
