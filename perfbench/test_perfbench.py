"""Tests of the benchmark itself: its checkers, its span arithmetic, and that a
traced run of each workload records every layer it is expected to reach."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_DEPTH = 5


def small(cfg: dict) -> dict:
    """The same workload on 32 sites, a coarse grid and two draws."""
    cfg = json.loads(json.dumps(cfg))
    cfg["hierarchy"]["depth"] = SMALL_DEPTH
    if "ranks" in cfg:
        cfg["ranks"] = list(range(SMALL_DEPTH + 1))
    if "rank" in cfg:
        cfg["rank"] = SMALL_DEPTH
    if "energy_grid" in cfg:
        cfg["energy_grid"]["points"] = 61
    if "realizations" in cfg:
        cfg["realizations"] = 2
    return cfg


def launch(tmp_path: Path, wl, cfg: dict, mode: str, tag: str) -> tuple[Path, dict]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out, record = tmp_path / f"out-{tag}", tmp_path / f"record-{tag}.json"
    cmd = [sys.executable, str(HERE / "launch.py"), str(record), mode, wl.subcommand]
    cmd += ["--config", str(config), "--out", str(out)]
    if wl.threads is not None:
        cmd += ["--threads", str(wl.threads)]
    subprocess.run(cmd, check=True, timeout=120, capture_output=True)
    return out, json.loads(record.read_text())


def test_atom_checker_flags_merged_top_atoms():
    # degree 2, depth 10, rho 16 without the tail: the top three exact atoms
    # lie within 1e-9 of each other, and grouping dense eigenvalues with that
    # absolute tolerance merges them into one row (9 rows for 11 atoms)
    exact = oracles.exact_atoms(2, 16.0, 10, tail=False)
    merged = []
    for loc, mult in exact:
        if merged and loc - merged[-1][0] <= 1e-9:
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((loc, mult))
    assert (len(exact), len(merged)) == (11, 9)
    table = [(loc, mult / 2**10) for loc, mult in merged]
    assert oracles.check_atoms(table, exact, 2**10)
    assert oracles.check_atoms([(loc, m / 2**10) for loc, m in exact], exact, 2**10) == []


def test_atom_checker_flags_a_moved_atom_and_a_wrong_weight():
    exact = oracles.exact_atoms(2, 4.0, 6, tail=True)
    table = [(loc, m / 2**6) for loc, m in exact]
    assert oracles.check_atoms(table, exact, 2**6) == []
    table[3] = (table[3][0] + 1e-8, table[3][1])
    table[5] = (table[5][0], table[5][1] * (1 + 1e-15))
    assert len(oracles.check_atoms(table, exact, 2**6)) == 2


def test_exact_atoms_match_a_dense_eigensolve():
    h = oracles.cutoff_laplacian(2, 4.0, 6)
    values = np.linalg.eigvalsh(h)
    locations = np.repeat(*zip(*oracles.exact_atoms(2, 4.0, 6, tail=False)))
    np.testing.assert_allclose(values, np.sort(locations), atol=1e-12)


def test_self_time_subtracts_overlapping_child_coverage():
    tree = spans.SpanTree(
        [
            {"name": "a", "id": 1, "parent": 0, "start": 0.0, "end": 10.0, "attrs": {}},
            {"name": "b", "id": 2, "parent": 1, "start": 1.0, "end": 4.0, "attrs": {}},
            {"name": "b", "id": 3, "parent": 1, "start": 3.0, "end": 5.0, "attrs": {}},
            {"name": "a", "id": 4, "parent": 1, "start": 8.0, "end": 9.0, "attrs": {}},
        ]
    )
    assert tree.self_time(tree.by_id[1]) == pytest.approx(10.0 - 4.0 - 1.0)
    assert tree.total("a") == pytest.approx(10.0)  # the nested "a" is not counted twice
    assert tree.total("b") == pytest.approx(5.0)  # parallel spans add up as busy time
    assert tree.self_total("a") == pytest.approx(5.0 + 1.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_records_every_expected_layer(tmp_path, name):
    wl = WORKLOADS[name]
    cfg = small(wl.config(7))
    plain, _ = launch(tmp_path, wl, cfg, "run", "plain")
    traced, record = launch(tmp_path, wl, cfg, "trace", "traced")

    fired = {s["name"] for s in record["spans"]}
    assert set(wl.layers) <= fired, f"missing spans: {set(wl.layers) - fired}"
    metrics = spans.layer_metrics(record["spans"])
    layer_time = {
        "greens.sweep": "greens.sweep_s",
        "disorder.sample": "disorder.sample_s",
        "diagnostics.ipr": "diagnostics.ipr_s",
        "operators.assemble": "operators.assemble_s",
        "operators.eigh": "operators.eigh_s",
        "hierarchy.distance_matrix": "hierarchy.distance_matrix_s",
        "spectral.dos": "spectral.dos_s",
        "cli.write": "cli.write_s",
    }
    for layer, metric in layer_time.items():
        assert (metrics[metric] > 0) == (layer in wl.layers), metric
    assert metrics["cli.bytes_written"] > 0 and metrics["cli.rows_written"] > 0

    # tracing must not change a byte, and the small outputs pass the oracle
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for n in names:
        assert (plain / n).read_bytes() == (traced / n).read_bytes(), n
    assert wl.oracle(cfg, plain, np.random.default_rng(7)) == []


def test_benchmark_json_declares_what_the_trace_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(spans.layer_metrics([])) | {"cli.cpu_s", "trace.overhead_s"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
