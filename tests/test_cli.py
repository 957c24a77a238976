import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hieram import (
    Bernoulli,
    GeometricCoupling,
    HierarchySpec,
    build_truncation,
    cli,
    localization_sweep,
)
from hieram.cli import OutputWriter, columns, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**extra):
    cfg = {
        "hierarchy": {"degree": 2, "depth": 4},
        "coupling": {"family": "geometric", "rho": 4.0},
        "disorder": {"kind": "uniform", "center": 0.0, "width": 1.0},
        "seed": 12345,
    }
    cfg.update(extra)
    return cfg


def read_bytes(out_dir, names):
    return {name: (Path(out_dir) / name).read_bytes() for name in names}


@pytest.mark.parametrize(
    "subcommand,extra,files",
    [
        ("spectrum", {}, ["spectrum.csv"]),
        ("dos", {"rank": 3, "r_max": 6}, ["dos.csv"]),
        ("dimension", {}, ["dimension.csv"]),
        ("walk", {"r_max": 30}, ["walk.csv"]),
        ("hypothesis", {"u_exponent": 2.0, "r_max": 30}, ["hypothesis.csv"]),
        ("green", {"z": {"re": 0.3, "im": 0.9}, "target": 3}, ["green_column.csv", "green_terms.csv"]),
        (
            "moments",
            {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}, "ranks": [0, 2, 4], "realizations": 2},
            ["moments.csv"],
        ),
        (
            "localize",
            {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}, "realizations": 2},
            ["moments.csv", "ipr.csv"],
        ),
        (
            "bound",
            {"energy_grid": {"min": -0.5, "max": 1.5, "points": 101}, "rank": 3, "realizations": 2},
            ["bound.csv"],
        ),
    ],
)
def test_subcommands_produce_expected_files(tmp_path, subcommand, extra, files):
    config = write_config(tmp_path, base_config(**extra))
    out = tmp_path / "out"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 0
    for name in files + ["summary.json", "manifest.json"]:
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == subcommand
    assert manifest["config"]["seed"] == 12345
    assert sorted(manifest["files"]) == manifest["files"]


def test_rerun_is_byte_identical(tmp_path):
    extra = {
        "energy_grid": {"min": -0.5, "max": 1.5, "points": 21},
        "realizations": 2,
    }
    config = write_config(tmp_path, base_config(**extra))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["localize", "--config", config, "--out", str(out1)]) == 0
    assert main(["localize", "--config", config, "--out", str(out2)]) == 0
    names = ["moments.csv", "ipr.csv", "summary.json", "manifest.json"]
    assert read_bytes(out1, names) == read_bytes(out2, names)


def test_json_format_output(tmp_path):
    config = write_config(tmp_path, base_config(format="json"))
    out = tmp_path / "out"
    assert main(["walk", "--config", config, "--out", str(out)]) == 0
    rows = json.loads((out / "walk.json").read_text())
    assert rows[0].keys() == {"r", "term", "partial_sum"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["classification"] == "recurrent"


def test_seed_override_changes_output(tmp_path):
    extra = {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}}
    config = write_config(tmp_path, base_config(**extra))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["moments", "--config", config, "--out", str(out1)]) == 0
    assert (
        main(["moments", "--config", config, "--out", str(out2), "--seed", "7"]) == 0
    )
    a = (out1 / "moments.csv").read_bytes()
    b = (out2 / "moments.csv").read_bytes()
    assert a != b
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7


def test_missing_seed_rejected(tmp_path, capsys):
    cfg = base_config()
    del cfg["seed"]
    config = write_config(tmp_path, cfg)
    assert main(["walk", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_schema_violations_rejected(tmp_path):
    bad_cases = [
        base_config(unknown_field=1),
        {**base_config(), "coupling": {"family": "geometric", "rho": 0.5}},
        {**base_config(), "hierarchy": {"degree": 2}},
        {**base_config(), "hierarchy": {"degree": 2, "branching": [2, 2], "depth": 2}},
    ]
    for i, cfg in enumerate(bad_cases):
        config = write_config(tmp_path, cfg, name=f"bad{i}.json")
        assert main(["walk", "--config", config, "--out", str(tmp_path / "o")]) == 2


def test_unreadable_config_rejected(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["walk", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["walk", "--config", str(garbled), "--out", str(tmp_path / "o")]) == 2


def test_out_of_range_site_rejected(tmp_path, capsys):
    config = write_config(tmp_path, base_config(target=99))
    assert main(["green", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_dense_cap_breach_exits_3(tmp_path, capsys):
    cfg = base_config(dense_cap=4)
    config = write_config(tmp_path, cfg)
    assert main(["spectrum", "--config", config, "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "dense-cap"


def test_dimension_requires_geometric(tmp_path):
    cfg = base_config()
    cfg["coupling"] = {"family": "explicit", "weights": [0.5, 0.5]}
    config = write_config(tmp_path, cfg)
    assert main(["dimension", "--config", config, "--out", str(tmp_path / "o")]) == 2


def test_dimension_output_value(tmp_path):
    config = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["dimension", "--config", config, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["analytic"] == 1.0
    assert abs(summary["fitted"] - 1.0) < 0.05


def test_walk_transient_output_value(tmp_path):
    cfg = base_config(r_max=60)
    cfg["hierarchy"] = {"degree": 4, "depth": 2}
    cfg["coupling"] = {"family": "geometric", "rho": 2.0}
    config = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["walk", "--config", config, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["classification"] == "transient"
    assert abs(summary["value"] - 1.5) < 1e-9


def test_pole_only_grid_exits_3(tmp_path, capsys):
    # a two-point potential with a == b pins every site at 0.5, so a grid
    # hugging that value is entirely pole-proximate
    cfg = base_config(
        disorder={"kind": "bernoulli", "a": 0.5, "b": 0.5, "q": 0.5},
        energy_grid={"min": 0.5, "max": 0.5 + 1e-13, "points": 2},
        ranks=[0],
    )
    config = write_config(tmp_path, cfg)
    assert main(["moments", "--config", config, "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"


def test_bound_pole_only_grid_exits_3(tmp_path, capsys):
    # Bernoulli {0, 1} disorder puts a level-0 pole at both grid points
    cfg = base_config(
        disorder={"kind": "bernoulli", "a": 0.0, "b": 1.0, "q": 0.5},
        energy_grid={"min": 0.0, "max": 1.0, "points": 2},
        rank=4,
        realizations=2,
        seed=7,
    )
    config = write_config(tmp_path, cfg)
    assert main(["bound", "--config", config, "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "runtime",
        "detail": "every grid point is pole-proximate; nothing to report",
    }


def test_output_reproducible_from_manifest_alone(tmp_path):
    extra = {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}, "realizations": 2}
    config = write_config(tmp_path, base_config(**extra))
    out1 = tmp_path / "a"
    assert main(["moments", "--config", config, "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay = write_config(tmp_path, manifest["config"], name="replay.json")
    out2 = tmp_path / "b"
    assert main([manifest["subcommand"], "--config", replay, "--out", str(out2)]) == 0
    for name in manifest["files"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_save_potentials_audit_trail(tmp_path):
    extra = {
        "energy_grid": {"min": -0.5, "max": 1.5, "points": 5},
        "realizations": 2,
        "save_potentials": True,
    }
    config = write_config(tmp_path, base_config(**extra))
    out = tmp_path / "out"
    assert main(["moments", "--config", config, "--out", str(out)]) == 0
    lines = (out / "potentials.csv").read_text().splitlines()
    assert lines[0] == "index,site,value"
    assert len(lines) == 1 + 2 * 16  # two realizations, 16 sites each


def test_threads_flag_does_not_change_bytes(tmp_path):
    extra = {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}, "realizations": 3}
    config = write_config(tmp_path, base_config(**extra))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["moments", "--config", config, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["moments", "--config", config, "--out", str(out2), "--threads", "4"]) == 0
    assert (out1 / "moments.csv").read_bytes() == (out2 / "moments.csv").read_bytes()


def test_spectrum_values_round_trip(tmp_path):
    config = write_config(tmp_path, base_config(rank=3))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", config, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "location,multiplicity,source"
    exact = [l.split(",") for l in lines[1:] if l.endswith("exact")]
    dense = [l.split(",") for l in lines[1:] if l.endswith("dense")]
    assert len(exact) == len(dense) == 4
    for (eloc, emult, _), (dloc, dmult, _) in zip(exact, dense):
        assert abs(float(eloc) - float(dloc)) < 1e-9
        assert emult == dmult


def _atoms_degree2(rho, depth, tail):
    """Exact atoms of the degree-2 geometric Laplacian, from closed forms."""
    atoms = [(1.0 - rho**-s, 2 ** (depth - s - 1)) for s in range(depth)]
    top = 1.0 - rho**-depth
    if tail:
        # N_R * sum_{s>R} p_s / N_s, a geometric series in 1 / (2 rho)
        top += 2**depth * (rho - 1) * (2 * rho) ** -depth / (2 * rho - 1)
    return atoms + [(top, 1)]


def _dense_cfg(rho, **extra):
    cfg = base_config(**extra)
    cfg["hierarchy"] = {"degree": 2, "depth": 10}
    cfg["coupling"] = {"family": "geometric", "rho": rho}
    return cfg


def test_spectrum_keeps_close_top_atoms_apart(tmp_path):
    # at rho 16 the top atoms lie within 1e-9 of each other, closer than an
    # absolute grouping tolerance, but still far apart relative to their gaps
    config = write_config(tmp_path, _dense_cfg(16.0, include_tail=False))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", config, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    dense = [l.split(",") for l in lines[1:] if l.endswith("dense")]
    exact = _atoms_degree2(16.0, 10, tail=False)
    assert len(dense) == len(exact) == 11
    for (loc, mult, _), (eloc, emult) in zip(dense, exact):
        assert abs(float(loc) - eloc) < 1e-9
        assert int(mult) == emult


def test_dos_keeps_close_top_atoms_apart(tmp_path):
    config = write_config(tmp_path, _dense_cfg(16.0))
    out = tmp_path / "out"
    assert main(["dos", "--config", config, "--out", str(out)]) == 0
    lines = (out / "dos.csv").read_text().splitlines()
    nu = [l.split(",") for l in lines[1:] if l.endswith(",nu")]
    exact = _atoms_degree2(16.0, 10, tail=True)
    assert len(nu) == len(exact) == 11
    for (loc, weight, _), (eloc, emult) in zip(nu, exact):
        assert abs(float(loc) - eloc) < 1e-9
        assert float(weight) == emult / 2**10


@pytest.mark.parametrize("subcommand", ["spectrum", "dos"])
def test_equal_atoms_merge_into_one_row(tmp_path, subcommand):
    # p_s = 0 beyond s = 2, so lambda_2 = lambda_3 = lambda_4 = 1 exactly
    cfg = base_config(include_tail=False)
    cfg["coupling"] = {"family": "explicit", "weights": [0.5, 0.5]}
    config = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 0
    table, source = ("spectrum", "dense") if subcommand == "spectrum" else ("dos", "nu")
    lines = (out / f"{table}.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines[1:] if l.endswith("," + source)]
    merged = [(0.0, 8), (0.5, 4), (1.0, 4)]
    assert len(rows) == len(merged)
    for (loc, value, _), (eloc, emult) in zip(rows, merged):
        assert abs(float(loc) - eloc) < 1e-9
        if subcommand == "spectrum":
            assert int(value) == emult
        else:
            assert float(value) == emult / 16


@pytest.mark.parametrize("subcommand", ["spectrum", "dos"])
def test_unresolved_atoms_exit_3(tmp_path, capsys, subcommand):
    # at rho 64 the top two atoms 1 - 64^-9 and 1 - 64^-10 both round to 1.0
    # and merge, but the next atom down lies only 64^-8 below them, inside
    # the eigensolver's rounding noise, so no grouping reproduces the table
    exact = _atoms_degree2(64.0, 10, tail=False)
    assert exact[-2][0] == exact[-1][0] == 1.0
    assert exact[-1][0] - exact[-3][0] < 4e-15
    config = write_config(tmp_path, _dense_cfg(64.0))
    out = tmp_path / "o"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "eigenvalue-grouping"
    assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# the column-wise table writer against the per-cell csv.writer path it replaced
# ---------------------------------------------------------------------------


def _reference_cell(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _reference_jsonable(x):
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    raise TypeError(f"cannot serialize {type(x)}")


def _reference(fmt_name, header, rows):
    buf = io.StringIO()
    if fmt_name == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_cell(cell) for cell in row])
    else:
        payload = [dict(zip(header, row)) for row in rows]
        json.dump(payload, buf, indent=1, sort_keys=True, default=_reference_jsonable)
        buf.write("\n")
    return buf.getvalue().encode()


def _written(tmp_path, fmt_name, header, rows):
    writer = OutputWriter(tmp_path / fmt_name, fmt_name)
    fname = writer.table("t", header, rows)
    assert fname == f"t.{fmt_name}"
    return (tmp_path / fmt_name / fname).read_bytes()


WRITER_COLUMNS = {
    "x": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22, 0.1, 1 / 3,
          np.float64(-2.5e-8), 1e16 + 2, np.float64(123456789.125)],
    "n": [0, -1, 7, np.int64(2**62), np.int32(-5), 10**15, 3, 4, 5, 6, 12, 2**63 - 1],
    "ok": [True, False, np.True_, np.False_] * 3,
    "tag": ["exact", "a,b", 'say "hi"', "two\nlines", "", "lf\n\nx", " pad ", "x'y",
            "\u00fc", "%d %s", "tab\t", '"'],
    "seed": [2**64 - 1] * 12,
    "big": [2**70, -(2**80)] * 6,
}


@pytest.mark.parametrize("chunk", [5, cli.CHUNK_ROWS])
@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_table_writer_matches_per_cell_csv_writer(
    tmp_path, monkeypatch, chunk, fmt_name
):
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
    header = list(WRITER_COLUMNS)
    values = list(WRITER_COLUMNS.values())
    rows = list(zip(*values))
    if fmt_name == "json":
        # the old JSON path never saw a numpy bool, which it could not serialize
        plain = [bool(c) for c in WRITER_COLUMNS["ok"]]
        rows = [row[:2] + (flag,) + row[3:] for row, flag in zip(rows, plain)]
    table = columns(header, *values)
    assert len(table) == len(rows)
    expected = _reference(fmt_name, header, rows)
    assert _written(tmp_path, fmt_name, header, table) == expected


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_table_writer_empty_and_single_column_tables(tmp_path, fmt_name):
    header = ["r", "value", "source"]
    empty = columns(header, [], [], [])
    assert len(empty) == 0
    expected = _reference(fmt_name, header, [])
    assert _written(tmp_path / "a", fmt_name, header, empty) == expected
    # csv quotes the empty field of a one-field row so the row is not blank
    header = ["label"]
    labels = ["", "x", "a,b", ""]
    got = _written(tmp_path / "b", fmt_name, header, columns(header, labels))
    assert got == _reference(fmt_name, header, [(label,) for label in labels])


def test_table_writer_round_trips_through_csv_reader(tmp_path):
    header = list(WRITER_COLUMNS)
    got = _written(tmp_path, "csv", header, columns(header, *WRITER_COLUMNS.values()))
    parsed = list(csv.reader(io.StringIO(got.decode(), newline="")))
    assert parsed[0] == header
    assert [row[3] for row in parsed[1:]] == WRITER_COLUMNS["tag"]


def test_table_writer_refuses_what_it_cannot_print(tmp_path):
    writer = OutputWriter(tmp_path, "csv")
    with pytest.raises(TypeError):
        writer.table("t", ["a", "b"], columns(["b", "a"], [1.0], [2.0]))
    with pytest.raises(TypeError):
        writer.table("t", ["z"], columns(["z"], [1 + 2j]))
    with pytest.raises(TypeError):
        writer.table("t", ["o"], columns(["o"], np.array([1.5, "x"], dtype=object)))
    # csv.writer quotes a carriage return on some Python versions and not others
    with pytest.raises(ValueError):
        writer.table("t", ["s"], columns(["s"], ["ok", "cr\rx"]))


@pytest.mark.parametrize("subcommand", ["moments", "localize"])
def test_moments_table_matches_row_loop(tmp_path, subcommand):
    # Bernoulli {0, 1} puts level-0 poles at e = 0 and e = 1, so some cells skip
    extra = {
        "disorder": {"kind": "bernoulli", "a": 0.0, "b": 1.0, "q": 0.5},
        "energy_grid": {"min": -0.5, "max": 1.5, "points": 9},
        "ranks": [0, 2, 4],
        "realizations": 3,
    }
    config = write_config(tmp_path, base_config(**extra))
    out = tmp_path / "out"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 0
    t = build_truncation(HierarchySpec.homogeneous(2, 4))
    dist = Bernoulli(0.0, 1.0, 0.5)
    seq = GeometricCoupling(4.0)
    report = localization_sweep(t, seq, dist, 12345, 3, (-0.5, 1.5, 9), [0, 2, 4])
    assert not report.ok.all()
    rows = []
    for i in report.realization_indices:
        for k, e in enumerate(report.energies):
            skipped = not report.ok[i, k]
            for j, r in enumerate(report.ranks):
                value = math.nan if skipped else report.moments[i, j, k]
                rows.append((12345, i, e, r, value, skipped))
    header = ["seed", "index", "e", "r", "S_r", "skipped"]
    assert (out / "moments.csv").read_bytes() == _reference("csv", header, rows)
