import csv
import functools
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hieram import (
    Bernoulli,
    GeometricCoupling,
    HierarchySpec,
    PowerSequence,
    Truncation,
    cli,
    diagnostics,
    disorder,
    exact_cutoff_spectrum,
    group_eigenvalues,
    localization_sweep,
    operators,
    restricted_full_spectrum,
    spectral,
)
from hieram.cli import CONFIG_SCHEMA, OutputWriter, columns, main
from hieram.coupling import FAMILIES
from hieram.operators import compression_dense_block, cutoff_dense_block
from reference_operator import hamiltonian


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


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_seed_override_is_validated_like_the_config(tmp_path, capsys, seed):
    # a manifest must re-run; an out-of-range seed would be refused there
    config = write_config(tmp_path, base_config())
    out = tmp_path / "o"
    assert main(["walk", "--config", config, "--out", str(out), "--seed", seed]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_flag_below_one_rejected(tmp_path, capsys, threads):
    config = write_config(tmp_path, base_config())
    out = tmp_path / "o"
    assert main(["walk", "--config", config, "--out", str(out), "--threads", threads]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("u_exponent", [300.0, 600.0])
def test_bound_refuses_a_default_threshold_past_the_float_range(tmp_path, capsys, u_exponent):
    # (u_4 N_4)^2: at 300 u_4 is finite and its square is not, at 600 u_4 is inf
    extra = {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}, "u_exponent": u_exponent}
    config = write_config(tmp_path, base_config(rank=4, **extra))
    out = tmp_path / "o"
    assert main(["bound", "--config", config, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "threshold" in err["detail"]
    assert not out.exists()


def test_bound_default_threshold_is_the_ledger_threshold(tmp_path):
    # (u_3 N_3)^2 at u_exponent 6.16: x ** 2 reads one ulp above x * x, the
    # correctly rounded square the ledger forms
    t = Truncation(HierarchySpec.homogeneous(2, 3))
    u = PowerSequence(6.16)
    ledger = diagnostics.borel_cantelli_profile(GeometricCoupling(4.0), t, u, 3)
    x = u(3) * 8
    assert ledger.thresholds[2] == x * x != x**2
    extra = {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}, "u_exponent": 6.16}
    config = write_config(tmp_path, base_config(hierarchy={"degree": 2, "depth": 3}, **extra))
    out = tmp_path / "o"
    assert main(["bound", "--config", config, "--out", str(out)]) == 0
    with open(out / "bound.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["M"]) == ledger.thresholds[2]
    assert json.loads((out / "summary.json").read_text())["threshold"] == x * x


def test_config_threads_key_does_not_change_bytes(tmp_path):
    outputs = []
    for threads in (1, 2):
        config = write_config(tmp_path, base_config(threads=threads), name=f"c{threads}.json")
        out = tmp_path / f"t{threads}"
        assert main(["walk", "--config", config, "--out", str(out)]) == 0
        outputs.append(read_bytes(out, ["walk.csv", "summary.json", "manifest.json"]))
    assert outputs[0] == outputs[1]


def test_hypothesis_with_u_past_the_float_range(tmp_path):
    # u_r = r^200 passes the float range from r = 35: the molchanov terms
    # p_r u_r are formed in logs there, and stay finite
    config = write_config(tmp_path, base_config(u_exponent=200.0, r_max=40))
    out = tmp_path / "o"
    assert main(["hypothesis", "--config", config, "--out", str(out)]) == 0
    with open(out / "hypothesis.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["condition"] == "molchanov"]
    terms = {int(row["r"]): float(row["term"]) for row in rows}
    for r in (35, 40):
        expected = math.exp(math.log(3.0) - r * math.log(4.0) + 200.0 * math.log(r))
        assert terms[r] == pytest.approx(expected, rel=1e-12)


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


@pytest.mark.parametrize("out", ["afile", "afile/sub", "link", "link/sub"])
def test_an_output_path_through_a_file_is_refused_before_the_run(
    tmp_path, capsys, monkeypatch, out
):
    # a dangling link too: Path.exists follows it, so only lexists sees it
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "link").symlink_to(tmp_path / "nowhere")
    monkeypatch.setitem(cli.RUNNERS, "walk", lambda ctx, writer: pytest.fail("the run started"))
    config = write_config(tmp_path, base_config())
    assert main(["walk", "--config", config, "--out", str(tmp_path / out)]) == 2
    path, first = str(tmp_path / out), str(tmp_path / out.split("/")[0])
    assert json.loads(capsys.readouterr().err) == {
        "error": "config",
        "detail": f"output_dir {path!r}: {first!r} is not a directory",
    }
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert os.readlink(tmp_path / "link") == str(tmp_path / "nowhere")
    assert not os.path.exists(tmp_path / "nowhere")


def test_a_failed_write_exits_3_with_an_output_error(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "walk.csv").mkdir(parents=True)  # a directory where the table goes
    config = write_config(tmp_path, base_config())
    assert main(["walk", "--config", config, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "output" and "walk.csv" in err["detail"], err
    assert sorted(p.name for p in out.iterdir()) == ["walk.csv"]


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


@pytest.mark.parametrize(
    "subcommand,key,value,detail",
    [
        ("spectrum", "rank", 9, "rank 9 out of range [0, 4]"),
        ("dos", "rank", 5, "rank 5 out of range [0, 4]"),
        ("green", "rank", 9, "rank 9 out of range [0, 4]"),
        ("green", "site", 16, "site 16 out of range [0, 16)"),
        ("green", "target", 99, "target 99 out of range [0, 16)"),
        ("bound", "rank", 9, "rank 9 out of range [0, 4]"),
        ("bound", "site", 16, "site 16 out of range [0, 16)"),
        ("localize", "site", 16, "site 16 out of range [0, 16)"),
    ],
)
def test_out_of_range_rank_or_site_leaves_no_output(
    tmp_path, capsys, subcommand, key, value, detail
):
    config = write_config(tmp_path, base_config(**{key: value}))
    out = tmp_path / "o"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "detail": detail}
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand,extra,detail",
    [
        (
            "walk",
            {"hierarchy": {"branching": [2, 2], "depth": 3}},
            r"hierarchy: depth must match the branching length",
        ),
        ("walk", {"hierarchy": {"depth": 3}}, r"hierarchy: need degree or branching"),
        (
            "walk",
            {"coupling": {"family": "geometric"}},
            r"coupling: family 'geometric' needs the key 'rho'",
        ),
        (
            "walk",
            {"coupling": {"family": "explicit", "weights": [0.5, 0.75]}},
            r"coupling: family 'explicit': "
            r"weights plus tail mass must total 1 within 1e-12, got 1\.25",
        ),
        (
            "moments",
            {"disorder": {"kind": "uniform", "mean": 0.0}},
            r"disorder: kind 'uniform' takes no key 'mean' \(it takes center, width\)",
        ),
        (
            "moments",
            {"energy_grid": {"min": 0.0, "points": 5}},
            r"energy_grid: min and max must come together",
        ),
        (
            "moments",
            {"energy_grid": {"min": 1.0, "max": 0.5, "points": 5}},
            r"energy_grid: need max > min, got \[1\.0, 0\.5\]",
        ),
        ("moments", {"ranks": [0, 5]}, r"ranks entry 5 out of range \[0, 4\]"),
        (
            "dimension",
            {"fit_window": [5, 5]},
            r"fit_window must be \[lo, hi\] with 0 <= lo < hi, got \[5, 5\]",
        ),
        (
            "walk",
            {"coupling": {"family": "geometric", "rho": 4.0, "weights": [0.5, 0.5]}},
            r"coupling: family 'geometric' takes no key 'weights' \(it takes rho\)",
        ),
        (
            "walk",
            {"coupling": {"family": "geometric", "rho": 4.0, "tail": 0.25}},
            r"coupling: family 'geometric' takes no key 'tail' \(it takes rho\)",
        ),
        (
            "walk",
            {"coupling": {"family": "explicit", "weights": [0.5, 0.5], "rho": 9.0}},
            r"coupling: family 'explicit' takes no key 'rho' \(it takes weights, tail\)",
        ),
        (
            "moments",
            {"disorder": {"kind": "bernoulli", "a": 0.0}},
            r"disorder: kind 'bernoulli' needs the key 'b'",
        ),
        (
            "walk",
            {"coupling": {"family": "nonsense"}},
            r"config schema violation at coupling\.family: 'nonsense' is not one of "
            r"\['geometric', 'polygeometric', 'explicit'\]",
        ),
    ],
)
def test_resolver_refusals_exit_2_and_leave_no_output(tmp_path, capsys, subcommand, extra, detail):
    config = write_config(tmp_path, base_config(**extra))
    out = tmp_path / "o"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and re.fullmatch(detail, err["detail"]), err
    assert not out.exists()


# each family and kind with exactly its own keys, written out here rather than
# read off the constructors
SECTION_KEYS = {
    ("coupling", "family"): {
        "geometric": {"rho": 4.0},
        "polygeometric": {"n": 2, "epsilon": 0.3},
        "explicit": {"weights": [0.5, 0.25], "tail": 0.25},
    },
    ("disorder", "kind"): {
        "uniform": {"center": 0.0, "width": 1.0},
        "gaussian": {"mean": 0.0, "sigma": 1.0},
        "cauchy": {"location": 0.0, "scale": 1.0},
        "bernoulli": {"a": 0.0, "b": 1.0, "q": 0.5},
    },
}
SECTION_CASES = [
    (section, selector, name, key)
    for (section, selector), members in SECTION_KEYS.items()
    for name, own in members.items()
    for key in [None, *sorted({k for m in members.values() for k in m} - own.keys())]
]


@pytest.mark.parametrize(
    "section,selector,name,key", SECTION_CASES, ids=lambda v: "own" if v is None else v
)
def test_each_family_and_kind_takes_exactly_its_own_keys(
    tmp_path, capsys, section, selector, name, key
):
    members = SECTION_KEYS[section, selector]
    params = {selector: name, **members[name]}
    if key is not None:  # the value another family or kind gives it
        params[key] = next(m[key] for m in members.values() if key in m)
    cfg = base_config(energy_grid={"min": -0.5, "max": 1.5, "points": 5}, **{section: params})
    out = tmp_path / "o"
    subcommand = "walk" if section == "coupling" else "moments"
    code = main([subcommand, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    if key is None:
        assert code == 0 and (out / "manifest.json").exists()
        return
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["detail"].startswith(f"{section}: {selector} {name!r} takes no key {key!r} ")
    assert not out.exists()


@pytest.mark.parametrize(
    "disorder,window",
    [
        # the free band [0, 1] plus the disorder's range, wherever it sits
        ({"kind": "uniform", "center": 5.0, "width": 1.0}, (4.5, 6.5)),
        ({"kind": "gaussian", "mean": -2.0, "sigma": 0.5}, (-3.0, 0.0)),
        ({"kind": "cauchy", "location": 3.0, "scale": 1.0}, (2.0, 5.0)),
        ({"kind": "bernoulli", "a": 4.0, "b": -1.0}, (-2.0, 5.0)),
        # at location 0, or {a, b} = {0, 1}, the windows of the centred rule
        ({"kind": "uniform", "center": 0.0, "width": 3.0}, (-1.5, 2.5)),
        ({"kind": "gaussian", "mean": 0.0, "sigma": 2.0}, (-1.0, 2.0)),
        ({"kind": "cauchy", "location": 0.0, "scale": 0.5}, (-1.0, 2.0)),
        ({"kind": "bernoulli", "a": 1.0, "b": 0.0}, (-1.0, 2.0)),
    ],
    ids=lambda v: v["kind"] if isinstance(v, dict) else None,
)
def test_default_grid_follows_the_disorder(disorder, window):
    cfg = base_config(disorder=disorder)
    assert cli.resolve_grid(cfg, cli.resolve_section(cfg, "disorder")) == (*window, 2001)


def test_default_grid_covers_a_shifted_spectrum(tmp_path):
    # uniform disorder centred at 5: H_4 lies in [4.5, 6.5], the default grid
    cfg = base_config(disorder={"kind": "uniform", "center": 5.0, "width": 1.0}, rank=4)
    out = tmp_path / "out"
    assert main(["bound", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["grid"] == [4.5, 6.5, 2001]
    values = np.linalg.eigvalsh(_dense_h(cfg, 4)[0])
    assert 4.5 <= values.min() and values.max() <= 6.5


def test_hypothesis_with_declared_tail_is_inconclusive(tmp_path):
    cfg = base_config(coupling={"family": "explicit", "weights": [0.5, 0.25], "tail": 0.25})
    out = tmp_path / "o"
    assert main(["hypothesis", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["main_verdict"] == summary["molchanov_verdict"] == "inconclusive"
    assert summary["fractional_moment_lower_converges"] is None
    assert summary["fractional_moment_upper_converges"] is None


@pytest.mark.parametrize("subcommand", ["spectrum", "dos", "localize"])
def test_dense_size_past_the_cap_exits_3(tmp_path, capsys, subcommand):
    # N = 8192 at depth 13 passes the fixed cap before any draw or sweep
    config = write_config(tmp_path, base_config(hierarchy={"degree": 2, "depth": 13}))
    out = tmp_path / "o"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "dense-cap",
        "detail": "dense size 8192 exceeds cap 4096",
    }
    assert not out.exists()


def test_dense_cap_is_not_a_config_key(tmp_path, capsys):
    config = write_config(tmp_path, base_config(dense_cap=8192))
    out = tmp_path / "o"
    assert main(["spectrum", "--config", config, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config",
        "detail": "config schema violation: "
        "Additional properties are not allowed ('dense_cap' was unexpected)",
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "section,values,detail",
    [
        ("coupling", {"family": "geometric", "rho": 0.5}, "family 'geometric': rho must exceed 1, got 0.5"),
        (
            "coupling",
            {"family": "polygeometric", "n": 1, "epsilon": 0.3},
            "family 'polygeometric': n must be >= 2, got 1",
        ),
        (
            "coupling",
            {"family": "polygeometric", "n": 2, "epsilon": 0.0},
            "family 'polygeometric': epsilon must be positive, got 0.0",
        ),
        (
            "coupling",
            {"family": "explicit", "weights": [1.5, -0.5]},
            "family 'explicit': all explicit weights must be positive",
        ),
        (
            "coupling",
            {"family": "explicit", "weights": []},
            "family 'explicit': explicit coupling needs a non-empty weight list",
        ),
        (
            "coupling",
            {"family": "explicit", "weights": [1.0], "tail": -0.25},
            "family 'explicit': tail mass must be >= 0, got -0.25",
        ),
        ("disorder", {"kind": "uniform", "width": 0.0}, "kind 'uniform': width must be positive, got 0.0"),
        ("disorder", {"kind": "gaussian", "sigma": -1.0}, "kind 'gaussian': sigma must be positive, got -1.0"),
        ("disorder", {"kind": "cauchy", "scale": 0.0}, "kind 'cauchy': scale must be positive, got 0.0"),
        (
            "disorder",
            {"kind": "bernoulli", "a": 0.0, "b": 1.0, "q": 0.0},
            "kind 'bernoulli': q must lie in (0, 1), got 0.0",
        ),
        (
            "disorder",
            {"kind": "bernoulli", "a": 0.0, "b": 1.0, "q": 1.0},
            "kind 'bernoulli': q must lie in (0, 1), got 1.0",
        ),
    ],
    ids=["rho", "n", "epsilon", "weights.0", "weights", "tail", "width", "sigma", "scale", "q0", "q1"],
)
def test_section_ranges_are_refused_by_their_class(tmp_path, capsys, section, values, detail):
    # the schema checks only the types of these keys; each range belongs to
    # the constructor, which words the refusal
    config = write_config(tmp_path, base_config(**{section: values}))
    out = tmp_path / "o"
    assert main(["walk", "--config", config, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config",
        "detail": f"{section}: {detail}",
    }
    assert not out.exists()


def _keywords(schema):
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from _keywords(sub)
    if "items" in schema:
        yield from _keywords(schema["items"])


def test_config_schema_checks_shapes_only():
    shapes = {"type", "enum", "items", "properties", "required", "additionalProperties"}
    assert set(_keywords(CONFIG_SCHEMA)) == shapes
    with pytest.raises(KeyError, match="minimum"):  # no range rule can creep back
        list(cli._violations(1, {"minimum": 2}))


# the coupling and disorder sections as the schema once spelled them out; the
# schema now reads them off the constructors, and must not change
LITERAL_SECTIONS = {
    "coupling": {
        "type": "object",
        "additionalProperties": False,
        "required": ["family"],
        "properties": {
            "family": {"enum": ["geometric", "polygeometric", "explicit"]},
            "rho": {"type": "number"},
            "n": {"type": "integer"},
            "epsilon": {"type": "number"},
            "weights": {"type": "array", "items": {"type": "number"}},
            "tail": {"type": "number"},
        },
    },
    "disorder": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind"],
        "properties": {
            "kind": {"enum": ["uniform", "gaussian", "cauchy", "bernoulli"]},
            "center": {"type": "number"},
            "width": {"type": "number"},
            "mean": {"type": "number"},
            "sigma": {"type": "number"},
            "location": {"type": "number"},
            "scale": {"type": "number"},
            "a": {"type": "number"},
            "b": {"type": "number"},
            "q": {"type": "number"},
        },
    },
}


@pytest.mark.parametrize("section", LITERAL_SECTIONS)
def test_section_schemas_are_the_literal_ones(section):
    built = CONFIG_SCHEMA["properties"][section]
    # byte for byte, key order included
    assert json.dumps(built) == json.dumps(LITERAL_SECTIONS[section])


def test_a_key_two_classes_type_differently_is_refused():
    class Narrow:
        def __init__(self, x: int):
            pass

    class Wide:
        def __init__(self, x: float):
            pass

    with pytest.raises(TypeError, match="Wide annotates 'x' unlike an earlier kind"):
        cli._section_schema("kind", {"narrow": Narrow, "wide": Wide})


SECTION_PARAMS = [
    (section, selector, name, key)
    for section, selector, classes in [("coupling", "family", FAMILIES), ("disorder", "kind", disorder.KINDS)]
    for name, cls in classes.items()
    for key in inspect.signature(cls).parameters
]


@pytest.mark.parametrize(
    "section,selector,name,key", SECTION_PARAMS, ids=[f"{p[2]}.{p[3]}" for p in SECTION_PARAMS]
)
def test_a_string_for_any_section_key_is_a_schema_violation(
    tmp_path, capsys, section, selector, name, key
):
    cfg = base_config(**{section: {selector: name, key: "1"}})
    out = tmp_path / "o"
    assert main(["walk", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    json_type = LITERAL_SECTIONS[section]["properties"][key]["type"]
    assert json.loads(capsys.readouterr().err) == {
        "error": "config",
        "detail": f"config schema violation at {section}.{key}: '1' is not of type '{json_type}'",
    }
    assert not out.exists()


_GRID = {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}}
_SEED_RANGE = "seed must be an unsigned 64-bit integer, got "


# one case or more per range rule the config schema held, each under a
# subcommand that reads the key; the reader refuses the value and names it
@pytest.mark.parametrize(
    "subcommand,extra,flags,detail",
    [
        pytest.param(
            "walk", {"hierarchy": {"degree": 1, "depth": 4}}, [], "degree must be >= 2, got 1",
            id="degree",
        ),
        pytest.param(
            "walk", {"hierarchy": {"branching": [2, 1]}}, [],
            "branching factors must be >= 2, got 1", id="branching-factor",
        ),
        pytest.param(
            "walk", {"hierarchy": {"branching": []}}, [],
            "hierarchy: branching must not be empty", id="branching-empty",
        ),
        pytest.param(
            "walk", {"hierarchy": {"degree": 2, "depth": -1}}, [], "depth must be >= 0, got -1",
            id="depth",
        ),
        pytest.param(
            "moments", {"energy_grid": {"min": -0.5, "max": 1.5, "points": 1}}, [],
            "energy_grid: points must be >= 2, got 1", id="points-moments",
        ),
        pytest.param(
            "bound", {"energy_grid": {"min": -0.5, "max": 1.5, "points": 1}}, [],
            "energy_grid: points must be >= 2, got 1", id="points-bound",
        ),
        pytest.param(
            "moments", {**_GRID, "ranks": [-1, 3]}, [], "ranks entry -1 out of range [0, 4]",
            id="ranks-negative",
        ),
        pytest.param(
            "moments", {**_GRID, "ranks": [0, 5]}, [], "ranks entry 5 out of range [0, 4]",
            id="ranks-past-depth",
        ),
        pytest.param(
            "moments", {**_GRID, "ranks": []}, [], "ranks must not be empty", id="ranks-empty",
        ),
        pytest.param(
            "localize", {**_GRID, "ranks": []}, [], "ranks must not be empty",
            id="ranks-empty-localize",
        ),
        pytest.param("spectrum", {"rank": -1}, [], "rank -1 out of range [0, 4]", id="rank"),
        pytest.param(
            "moments", {**_GRID, "realizations": 0}, [], "realizations must be >= 1, got 0",
            id="realizations-moments",
        ),
        pytest.param(
            "bound", {**_GRID, "realizations": 0}, [], "realizations must be >= 1, got 0",
            id="realizations-bound",
        ),
        pytest.param("walk", {"seed": -1}, [], _SEED_RANGE + "-1", id="seed-negative-walk"),
        pytest.param(
            "moments", {**_GRID, "seed": -1}, [], _SEED_RANGE + "-1", id="seed-negative-moments",
        ),
        pytest.param(
            "walk", {"seed": 2**64}, [], _SEED_RANGE + str(2**64), id="seed-past-64-bits-walk",
        ),
        pytest.param(
            "moments", {**_GRID, "seed": 2**64}, [], _SEED_RANGE + str(2**64),
            id="seed-past-64-bits-moments",
        ),
        pytest.param("green", {"site": -1}, [], "site -1 out of range [0, 16)", id="site"),
        pytest.param("green", {"target": -1}, [], "target -1 out of range [0, 16)", id="target"),
        pytest.param("walk", {"r_max": 0}, [], "r_max must be >= 1, got 0", id="r_max-walk"),
        pytest.param(
            "hypothesis", {"r_max": 0}, [], "r_max must be >= 2, got 0", id="r_max-hypothesis",
        ),
        pytest.param("dos", {"r_max": -1}, [], "r_max must be >= 0, got -1", id="r_max-dos"),
        pytest.param(
            "hypothesis", {"u_exponent": 1.0}, [],
            "u_exponent: exponent must exceed 1 for summable 1/u_r, got 1.0",
            id="u_exponent-hypothesis",
        ),
        pytest.param(
            "bound", {**_GRID, "u_exponent": 1.0}, [],
            "u_exponent: exponent must exceed 1 for summable 1/u_r, got 1.0",
            id="u_exponent-bound",
        ),
        pytest.param("hypothesis", {"s": 0.0}, [], "s must lie in (0, 1), got 0.0", id="s-low"),
        pytest.param("hypothesis", {"s": 1.0}, [], "s must lie in (0, 1), got 1.0", id="s-high"),
        pytest.param(
            "bound", {**_GRID, "threshold": 0.0}, [], "threshold must be positive, got 0.0",
            id="threshold",
        ),
        pytest.param(
            "dimension", {"fit_window": [-1, 5]}, [],
            "fit_window must be [lo, hi] with 0 <= lo < hi, got [-1, 5]", id="fit_window-negative",
        ),
        pytest.param(
            "dimension", {"fit_window": [5]}, [],
            "fit_window must be [lo, hi] with 0 <= lo < hi, got [5]", id="fit_window-short",
        ),
        pytest.param(
            "dimension", {"fit_window": [5, 8, 9]}, [],
            "fit_window must be [lo, hi] with 0 <= lo < hi, got [5, 8, 9]", id="fit_window-long",
        ),
        pytest.param("walk", {"threads": 0}, [], "threads must be >= 1, got 0", id="threads-key"),
        pytest.param(
            "walk", {}, ["--threads", "0"], "threads must be >= 1, got 0", id="threads-flag",
        ),
    ],
)
def test_each_range_is_refused_by_its_reader(tmp_path, capsys, subcommand, extra, flags, detail):
    config = write_config(tmp_path, base_config(**extra))
    out = tmp_path / "o"
    assert main([subcommand, "--config", config, "--out", str(out), *flags]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "detail": detail}
    assert not out.exists()


def test_dos_takes_r_max_0(tmp_path):
    # limiting_spectral_measure takes r_max >= 0; the schema once asked for 1
    config = write_config(tmp_path, base_config(r_max=0))
    out = tmp_path / "o"
    assert main(["dos", "--config", config, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["r_max"] == 0


@pytest.mark.parametrize(
    "extra",
    [
        {"hierarchy": {"degree": 7, "depth": 4}, "u_exponent": 37.3, "r_max": 500},
        {"coupling": {"family": "geometric", "rho": 1.01}, "r_max": 1100},
    ],
)
def test_hypothesis_partial_sums_past_the_float_range_warn_nothing(tmp_path, capsys, extra):
    # finite terms whose running sum passes the float range: the sum reads inf,
    # with no RuntimeWarning (an error under this suite's warning filter)
    config = write_config(tmp_path, base_config(**extra))
    out = tmp_path / "o"
    assert main(["hypothesis", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "hypothesis.csv", newline="") as fh:
        assert any(row["partial_sum"] == "inf" for row in csv.DictReader(fh))


def test_dimension_requires_geometric(tmp_path, capsys):
    cfg = base_config()
    cfg["coupling"] = {"family": "explicit", "weights": [0.5, 0.5]}
    config = write_config(tmp_path, cfg)
    assert main(["dimension", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config",
        "detail": "dimension needs a homogeneous hierarchy and a geometric coupling",
    }


def test_dimension_output_value(tmp_path):
    config = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["dimension", "--config", config, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["analytic"] == 1.0
    # at degree 2, rho 4 the sampled points lie on the line of slope 1/2:
    # the closed-form slope reads it exactly
    assert summary["fitted"] == 1.0


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


def test_walk_transient_once_the_terms_underflow(tmp_path):
    cfg = base_config(r_max=1100)
    cfg["hierarchy"] = {"degree": 4, "depth": 2}
    cfg["coupling"] = {"family": "geometric", "rho": 2.0}
    config = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["walk", "--config", config, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["classification"] == "transient"
    assert summary["analytic_classification"] == "transient"


def test_pole_only_grid_exits_3(tmp_path, capsys):
    # a two-point potential with a == b pins every site at 0.5, so a grid
    # hugging that value is entirely pole-proximate
    cfg = base_config(
        disorder={"kind": "bernoulli", "a": 0.5, "b": 0.5, "q": 0.5},
        energy_grid={"min": 0.5, "max": 0.5 + 1e-13, "points": 2},
        ranks=[0],
    )
    config = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["moments", "--config", config, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"
    assert not out.exists()


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
    out = tmp_path / "o"
    assert main(["bound", "--config", config, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "runtime",
        "detail": "every grid point is pole-proximate; nothing to report",
    }
    assert not out.exists()


@pytest.mark.parametrize("threshold", [None, 2.0])
def test_bound_rank0_needs_a_threshold(tmp_path, capsys, threshold):
    # the default threshold (u_r N_r)^2 vanishes at r = 0, since u_0 = 0
    extra = {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}, "rank": 0}
    if threshold is not None:
        extra["threshold"] = threshold
    config = write_config(tmp_path, base_config(**extra))
    out = tmp_path / "o"
    code = main(["bound", "--config", config, "--out", str(out)])
    if threshold is not None:
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["threshold"] == threshold
        return
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config",
        "detail": "bound: the default threshold (u_r N_r)^2 is 0 at rank 0; "
        "set threshold or use a rank >= 1",
    }
    assert not out.exists()


def test_sweeps_skip_only_poles_of_the_query_cluster(tmp_path):
    # Bernoulli {0, 1} disorder at rank 3 < depth: the grid holds 0, 0.75 and
    # 1, and draw 1 has a pole on it in other rank-3 clusters but not in Q_3(0)
    cfg = base_config(
        hierarchy={"degree": 2, "depth": 10},
        disorder={"kind": "bernoulli", "a": 0.0, "b": 1.0, "q": 0.5},
        energy_grid={"min": -0.5, "max": 1.5, "points": 2001},
        seed=1,
        realizations=2,
        rank=3,
        ranks=[1, 2, 3],
    )
    config = write_config(tmp_path, cfg)
    summaries = {}
    for subcommand in ("bound", "moments"):
        out = tmp_path / subcommand
        assert main([subcommand, "--config", config, "--out", str(out)]) == 0
        summaries[subcommand] = json.loads((out / "summary.json").read_text())
    assert summaries["bound"]["skipped"] == [5, 4]
    assert summaries["moments"]["skipped_cells"] == 9
    with open(tmp_path / "moments" / "moments.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sum(row["skipped"] == "true" for row in rows) == 9 * 3
    assert sum(math.isnan(float(row["S_r"])) for row in rows) == 9 * 3


def _cut_lattice_config(**extra):
    # degree 2, depth 6: Q_3(40) = sites 40..47 and Q_2(0) = sites 0..3
    return base_config(hierarchy={"degree": 2, "depth": 6}, seed=5, **extra)


def _dense_h(cfg, r):
    t = Truncation(cli.resolve_hierarchy(cfg))
    omega = disorder.sample_potential(cli.resolve_section(cfg, "disorder"), t, cfg["seed"], 0)
    return hamiltonian(t, cli.resolve_section(cfg, "coupling"), omega, r).dense(), omega.values


def test_localize_iprs_are_on_the_cluster_of_the_site(tmp_path):
    cfg = _cut_lattice_config(
        energy_grid={"min": -0.5, "max": 1.5, "points": 21}, ranks=[0, 1, 2, 3], site=40
    )
    out = tmp_path / "out"
    assert main(["localize", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / "ipr.csv", newline="") as fh:
        rows = [(float(row["eigenvalue"]), float(row["ipr"])) for row in csv.DictReader(fh)]
    h, _ = _dense_h(cfg, 3)
    values, vectors = np.linalg.eigh(h[40:48, 40:48])
    assert np.abs(np.array(rows)[:, 0] - values).max() <= 1e-12
    assert np.abs(np.array(rows)[:, 1] - np.sum(vectors**4, axis=0)).max() <= 1e-12


def test_green_ignores_poles_outside_the_cluster_of_the_site(tmp_path):
    # z is the potential at site 63, a pole of H_2 on Q_2(63) but not on Q_2(0)
    z = 0.10441499400432674
    cfg = _cut_lattice_config(z={"re": z, "im": 0.0}, rank=2)
    h, values = _dense_h(cfg, 2)
    assert values[63] == z
    out = tmp_path / "out"
    assert main(["green", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / "green_column.csv", newline="") as fh:
        column = np.array([complex(float(row["re"]), float(row["im"])) for row in csv.DictReader(fh)])
    solve = np.linalg.solve(h[:4, :4] - z * np.eye(4), np.eye(4)[0])
    assert np.abs(column[:4] - solve).max() <= 1e-12 * np.abs(solve).max()
    assert not column[4:].any()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["entry"] == pytest.approx([solve[0], 0.0], rel=1e-12)
    assert summary["moment"] == pytest.approx(np.sum(solve**2), rel=1e-12)


def test_green_entry_is_its_column_row(tmp_path):
    cfg = base_config(
        hierarchy={"degree": 2, "depth": 8},
        disorder={"kind": "cauchy", "location": 0.0, "scale": 1.0},
        seed=0,
        z={"re": 0.5, "im": 1.0},
        site=0,
        target=5,
    )
    out = tmp_path / "out"
    assert main(["green", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / "green_column.csv", newline="") as fh:
        row = list(csv.DictReader(fh))[5]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["entry"] == [float(row["re"]), float(row["im"])]


def test_green_target_outside_the_cluster_reads_zero(tmp_path):
    # Q_2(5) = sites 4..7, and target 12 lies in another rank-2 cluster
    cfg = base_config(z={"re": 0.3, "im": 0.9}, rank=2, site=5, target=12)
    out = tmp_path / "out"
    assert main(["green", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["entry"] == [0.0, 0.0]
    assert (out / "green_terms.csv").read_text().splitlines() == ["s,re,im"]
    with open(out / "green_column.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    off = [row for row in rows if not 4 <= int(row["y"]) < 8]
    assert all(float(row["re"]) == float(row["im"]) == 0.0 for row in off)
    assert all(float(row["re"]) != 0.0 for row in rows[4:8])


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


@pytest.mark.parametrize("subcommand", ["moments", "localize", "bound"])
def test_each_realization_is_drawn_once(tmp_path, monkeypatch, subcommand):
    # the sweep, the IPRs and potentials.csv all read the same draws
    drawn = []

    def spy(sample):
        def recorded(dist, t, seed, index=0):
            omega = sample(dist, t, seed, index)
            drawn.append(omega)
            return omega

        return recorded

    for module in (diagnostics, disorder):
        monkeypatch.setattr(module, "sample_potential", spy(module.sample_potential))
    extra = {
        "energy_grid": {"min": -0.5, "max": 1.5, "points": 11},
        "rank": 3,
        "realizations": 3,
        "save_potentials": True,
    }
    config = write_config(tmp_path, base_config(**extra))
    out = tmp_path / "out"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 0
    assert sorted(omega.index for omega in drawn) == [0, 1, 2]
    with open(out / "potentials.csv", newline="") as fh:
        saved = np.array([float(row["value"]) for row in csv.DictReader(fh)])
    by_index = sorted(drawn, key=lambda omega: omega.index)
    assert np.array_equal(saved, np.concatenate([omega.values for omega in by_index]))


@pytest.mark.parametrize(
    "subcommand,extra,code",
    [
        ("walk", {"r_max": 1024}, 0),  # the partial sums overflow
        ("walk", {"r_max": 1025}, 0),  # a term overflows
        ("dos", {"r_max": 1023}, 0),  # N_{r+1} exceeds the float range
        ("dimension", {"fit_window": [5, 1100]}, 2),
        ("hypothesis", {"r_max": 1100}, 0),  # p_r underflows, N_{r-1} overflows
        (  # the fractional-moment series: p_r underflows, N_r overflows at r >= 193
            "hypothesis",
            {"hierarchy": {"degree": 40, "depth": 2}, "coupling": {"family": "geometric", "rho": 1000.0}},
            0,
        ),
        (  # a tiny p_r > 0 times an overflowed N_r, in both fractional series
            "hypothesis",
            {"hierarchy": {"degree": 40, "depth": 2}, "coupling": {"family": "geometric", "rho": 2.0}, "s": 0.9},
            0,
        ),
        (  # the same in the main series, rows r = 194..200
            "hypothesis",
            {"hierarchy": {"degree": 40, "depth": 2}, "coupling": {"family": "geometric", "rho": 41.0}, "r_max": 200},
            0,
        ),
    ],
)
def test_series_past_the_float_range_exit_cleanly(tmp_path, capsys, subcommand, extra, code):
    config = write_config(tmp_path, base_config(**extra))
    out = tmp_path / "out"
    assert main([subcommand, "--config", config, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert json.loads(err)["error"] == "config"
        return
    assert err == ""
    for name in json.loads((out / "manifest.json").read_text())["files"]:
        assert "nan" not in (out / name).read_text().lower(), name
    summary = json.loads((out / "summary.json").read_text())
    if subcommand == "walk":
        assert summary["classification"] == "recurrent"
    if subcommand == "hypothesis":
        for bound in ("lower", "upper"):
            if summary[f"fractional_moment_{bound}_converges"]:
                assert math.isfinite(summary[f"fractional_moment_{bound}"])
        if summary["main_verdict"].startswith("converges"):
            with open(out / "hypothesis.csv", newline="") as fh:
                terms = [float(row["term"]) for row in csv.DictReader(fh)]
            assert all(math.isfinite(term) for term in terms)


def test_threads_flag_does_not_change_bytes(tmp_path):
    extra = {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}, "realizations": 3}
    config = write_config(tmp_path, base_config(**extra))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["moments", "--config", config, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["moments", "--config", config, "--out", str(out2), "--threads", "4"]) == 0
    assert (out1 / "moments.csv").read_bytes() == (out2 / "moments.csv").read_bytes()


def test_localize_threads_flag_does_not_change_bytes(tmp_path):
    extra = {"energy_grid": {"min": -0.5, "max": 1.5, "points": 11}, "realizations": 3}
    config = write_config(tmp_path, base_config(**extra))
    names = ["ipr.csv", "moments.csv", "summary.json"]
    outputs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"t{threads}"
        assert main(["localize", "--config", config, "--out", str(out), "--threads", threads]) == 0
        outputs.append(read_bytes(out, names))
    assert outputs[0] == outputs[1] == outputs[2]


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
    # at rho 1024 = 2^10 the atoms 1 - 2^-60, ..., 1 - 2^-100 all round to
    # 1.0 and merge, but the next atom down, 1 - 2^-50, lies only 8 ulps
    # below them, inside the eigensolver's rounding noise, so no grouping
    # reproduces the table
    exact = _atoms_degree2(1024.0, 10, tail=False)
    distinct = sorted({loc for loc, _ in exact})
    assert distinct[-1] == 1.0 and distinct[-1] - distinct[-2] == 2.0**-50
    config = write_config(tmp_path, _dense_cfg(1024.0))
    out = tmp_path / "o"
    assert main([subcommand, "--config", config, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "eigenvalue-grouping"
    assert not (out / "manifest.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["spectrum", "dos"])
def test_atoms_at_the_rounding_edge_match_or_refuse(tmp_path, capsys, subcommand):
    # at rho 64 the top distinct atoms 1 - 64^-8 and 1.0 lie 32 ulps apart:
    # whether the solve resolves them depends on the BLAS build and its
    # thread count, but a run either writes the exact atoms or exits 3
    config = write_config(tmp_path, _dense_cfg(64.0))
    out = tmp_path / "o"
    code = main([subcommand, "--config", config, "--out", str(out)])
    if code == 3:
        assert json.loads(capsys.readouterr().err)["error"] == "eigenvalue-grouping"
        assert not out.exists()
        return
    assert code == 0
    table, source = ("spectrum", "dense") if subcommand == "spectrum" else ("dos", "nu")
    lines = (out / f"{table}.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines[1:] if l.endswith("," + source)]
    exact = _merged(_atoms_degree2(64.0, 10, tail=True))
    assert len(rows) == len(exact) == 10
    for (loc, value, _), (eloc, emult) in zip(rows, exact):
        assert abs(float(loc) - eloc) <= 1e-12
        assert float(value) == (emult if subcommand == "spectrum" else emult / 2**10)


@pytest.mark.parametrize("subcommand", ["spectrum", "dos"])
def test_block_without_constant_tiles_exits_3(tmp_path, capsys, monkeypatch, subcommand):
    build = operators.compression_dense_block

    def perturbed(*args):
        block = build(*args)
        block[0, 1] += 1e-6  # a symmetric pair inside one rank-1 tile
        block[1, 0] += 1e-6
        return block

    monkeypatch.setattr(operators, "compression_dense_block", perturbed)
    out = tmp_path / "o"
    assert main([subcommand, "--config", write_config(tmp_path, base_config()), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "eigenvalue-grouping"
    assert "rank-1 tiles" in err["detail"]
    assert float(err["detail"].rsplit(" ", 1)[1]) == pytest.approx(1e-6)
    assert not out.exists()


@pytest.mark.parametrize(
    "hierarchy,coupling",
    [
        ({"degree": 2, "depth": 10}, {"family": "geometric", "rho": 4.0}),
        ({"degree": 2, "depth": 4}, {"family": "explicit", "weights": [0.5, 0.5]}),
    ],
)
def test_dos_nu_rows_are_the_closed_form_atoms(tmp_path, hierarchy, coupling):
    cfg = base_config(hierarchy=hierarchy, coupling=coupling)
    out = tmp_path / "out"
    assert main(["dos", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    t = Truncation(cli.resolve_hierarchy(cfg))
    exact = _merged(restricted_full_spectrum(t, cli.resolve_section(cfg, "coupling"), t.depth))
    with open(out / "dos.csv", newline="") as fh:
        nu = [row for row in csv.DictReader(fh) if row["source"] == "nu"]
    assert [(float(row["location"]), float(row["weight"])) for row in nu] == [
        (loc, mult / t.site_count) for loc, mult in exact
    ]


@pytest.mark.parametrize("subcommand", ["spectrum", "dos"])
def test_one_values_only_solve_through_the_dense_control(tmp_path, monkeypatch, subcommand):
    solves, orders, controls = [], [], []
    solve, control = operators.dense_symmetric_eigensolve, spectral.dense_control

    def counted_solve(a, vectors=True):
        solves.append(vectors)
        orders.append(len(a))
        return solve(a, vectors)

    def counted_control(*args, **kwargs):
        controls.append(args)
        return control(*args, **kwargs)

    monkeypatch.setattr(operators, "dense_symmetric_eigensolve", counted_solve)
    monkeypatch.setattr(spectral, "dense_control", counted_control)
    config = write_config(tmp_path, base_config())
    assert main([subcommand, "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert solves == [False] and len(controls) == 1
    assert orders == [2**4 // 2]  # N_r / n_1: the rank-1 tiles' kernel is peeled off


def _merged(atoms):
    """Exact atoms with equal locations summed into one, as the dense rows are."""
    out = []
    for loc, mult in atoms:
        if out and out[-1][0] == loc:
            mult += out.pop()[1]
        out.append((loc, mult))
    return out


# dos always compresses the full Laplacian, so only spectrum turns the tail off
@pytest.mark.parametrize("subcommand,tail", [("spectrum", True), ("spectrum", False), ("dos", True)])
@pytest.mark.parametrize(
    "hierarchy",
    [{"degree": 2, "depth": 6}, {"branching": [2, 3, 2, 3, 2]}, {"branching": [3, 3, 3, 3]}],
)
@pytest.mark.parametrize(
    "coupling",
    [
        {"family": "geometric", "rho": 4.0},
        {"family": "polygeometric", "n": 2, "epsilon": 0.3},
        {"family": "explicit", "weights": [0.5, 0.25], "tail": 0.25},
        # N_s passes 2^1024 inside the list: those compression-tail terms read 0
        {"family": "explicit", "weights": [1 / 1100] * 1100},
    ],
)
def test_dense_rows_are_the_exact_atoms(tmp_path, subcommand, tail, hierarchy, coupling):
    # the values-only solve puts each dense row within 1e-12 of its exact
    # atom, and of the same grouping of a full numpy eigh
    cfg = base_config(hierarchy=hierarchy, coupling=coupling, include_tail=tail)
    _assert_dense_rows_are_the_exact_atoms(tmp_path, subcommand, tail, cfg)


@pytest.mark.parametrize("subcommand,tail", [("spectrum", True), ("spectrum", False), ("dos", True)])
# n_1 = 5 first: at rank 1 the solve left by the rank-1 tiles is 1 x 1
@pytest.mark.parametrize("hierarchy", [{"degree": 2, "depth": 6}, {"branching": [5, 2, 3]}])
@pytest.mark.parametrize(
    "coupling",
    [{"family": "geometric", "rho": 4.0}, {"family": "polygeometric", "n": 2, "epsilon": 0.3}],
)
@pytest.mark.parametrize("rank", ["0", "1", "depth - 1"])
def test_dense_rows_are_the_exact_atoms_below_the_depth(
    tmp_path, subcommand, tail, hierarchy, coupling, rank
):
    # rank 0 has n_1 = 1, so nothing is peeled off the one 1 x 1 block
    cfg = base_config(hierarchy=hierarchy, coupling=coupling, include_tail=tail)
    cfg["rank"] = Truncation(cli.resolve_hierarchy(cfg)).depth - 1 if rank == "depth - 1" else int(rank)
    _assert_dense_rows_are_the_exact_atoms(tmp_path, subcommand, tail, cfg)


def _assert_dense_rows_are_the_exact_atoms(tmp_path, subcommand, tail, cfg):
    out = tmp_path / "out"
    assert main([subcommand, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    t = Truncation(cli.resolve_hierarchy(cfg))
    seq = cli.resolve_section(cfg, "coupling")
    r = cfg.get("rank", t.depth)
    atoms = (restricted_full_spectrum if tail else exact_cutoff_spectrum)(t, seq, r)
    block = (compression_dense_block if tail else cutoff_dense_block)(t, seq, r)
    grouped = group_eigenvalues(np.linalg.eigh(block)[0], atoms)
    table, source = ("spectrum", "dense") if subcommand == "spectrum" else ("dos", "nu")
    lines = (out / f"{table}.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines[1:] if l.endswith("," + source)]
    exact = _merged(atoms)
    assert len(rows) == len(exact) == len(grouped)
    for (loc, value, _), (eloc, emult), (gloc, _) in zip(rows, exact, grouped):
        assert abs(float(loc) - eloc) <= 1e-12
        assert abs(float(loc) - gloc) <= 1e-12
        if subcommand == "spectrum":
            assert int(value) == emult
        else:
            assert float(value) == emult / t.sizes[r]


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


def test_json_table_writer_matches_json_dump(tmp_path, monkeypatch):
    # keys out of sort order, keys the % template must escape, and the cells
    # json encodes specially
    monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
    values = {
        "z%d": [math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, 0.1, 1e300],
        "a": [2**63, 2**64 - 1, -(2**70), 0, 1, -1, 2**100, 7],
        'q"\u00e9': ["say \"hi\"", "a,b", "\u00fc\u00df", "\u2603", "", "x\ny", "\\", "%s"],
        "M": [True, False] * 4,
        "i": np.arange(8) - 4,
    }
    header = list(values)
    rows = list(zip(*values.values()))
    got = _written(tmp_path, "json", header, columns(header, *values.values()))
    assert got == _reference("json", header, rows)
    for n in (0, 1, 3, 4):  # chunk edges and the empty table
        table = columns(header, *(v[:n] for v in values.values()))
        assert _written(tmp_path / str(n), "json", header, table) == _reference(
            "json", header, rows[:n]
        )


@pytest.mark.parametrize(
    "subcommand,extra",
    [
        ("spectrum", {"rank": 3}),
        ("dos", {"rank": 3, "r_max": 6}),
        ("dimension", {}),
        ("walk", {"r_max": 30}),
        ("hypothesis", {"u_exponent": 2.0, "r_max": 30}),
        ("green", {"z": {"re": 0.3, "im": 0.9}, "target": 3}),
        (
            "moments",
            {
                "disorder": {"kind": "bernoulli", "a": 0.0, "b": 1.0, "q": 0.5},
                "energy_grid": {"min": -0.5, "max": 1.5, "points": 9},
                "realizations": 2,
                "save_potentials": True,
            },
        ),
        ("localize", {"energy_grid": {"min": -0.5, "max": 1.5, "points": 9}, "realizations": 2}),
        ("bound", {"energy_grid": {"min": -0.5, "max": 1.5, "points": 101}, "realizations": 2}),
    ],
)
def test_every_json_table_matches_json_dump(tmp_path, monkeypatch, subcommand, extra):
    written = []
    table = OutputWriter.table

    def checked(self, name, header, rows):
        fname = table(self, name, header, rows)
        written.append(fname)
        got = (self.out_dir / fname).read_bytes()
        assert got == _reference("json", header, rows.tolist())
        return fname

    monkeypatch.setattr(OutputWriter, "table", checked)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    config = write_config(tmp_path, base_config(format="json", **extra))
    assert main([subcommand, "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert written


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
    t = Truncation(HierarchySpec.homogeneous(2, 4))
    dist = Bernoulli(0.0, 1.0, 0.5)
    seq = GeometricCoupling(4.0)
    report = localization_sweep(t, seq, dist, 12345, 3, (-0.5, 1.5, 9), [0, 2, 4])
    assert not report.ok.all()
    rows = []
    for i in [omega.index for omega in report.potentials]:
        for k, e in enumerate(report.energies):
            skipped = not report.ok[i, k]
            for j, r in enumerate(report.ranks):
                value = math.nan if skipped else report.moments[i, j, k]
                rows.append((12345, i, e, r, value, skipped))
    header = ["seed", "index", "e", "r", "S_r", "skipped"]
    assert (out / "moments.csv").read_bytes() == _reference("csv", header, rows)


@pytest.mark.parametrize(
    "key,raw",
    [
        pytest.param("energy_grid", '{"min": -1, "max": Infinity, "points": 9}', id="max-inf"),
        pytest.param("energy_grid", '{"min": -Infinity, "max": 1, "points": 9}', id="min-neg-inf"),
        pytest.param("energy_grid", '{"min": -1e308, "max": 1e308, "points": 9}', id="width-overflows"),
        pytest.param("disorder", '{"kind": "uniform", "center": Infinity, "width": 1}', id="center-inf"),
        pytest.param("disorder", '{"kind": "gaussian", "mean": NaN, "sigma": 1}', id="mean-nan"),
        pytest.param("threshold", "Infinity", id="threshold-inf"),
        pytest.param("threshold", "1e400", id="threshold-1e400"),
        pytest.param("threshold", "1" + "0" * 400, id="threshold-int-past-float"),
        pytest.param("u_exponent", "Infinity", id="u-exponent-inf"),
    ],
)
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, key, raw):
    # each of these once ran: NaN or 0 measures with pass = true, M = inf, or
    # an overflowing linspace
    cfg = base_config(rank=4, energy_grid={"min": -0.5, "max": 1.5, "points": 101})
    cfg[key] = "@"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg).replace('"@"', raw))
    out = tmp_path / "o"
    assert main(["bound", "--config", str(config), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand,floats,ints",
    [
        (
            "walk",
            {"hierarchy": {"degree": 2.0, "depth": 3.0}, "r_max": 30.0},
            {"hierarchy": {"degree": 2, "depth": 3}, "r_max": 30},
        ),
        (
            "bound",
            {"realizations": 2.0, "rank": 4.0, "site": 3.0},
            {"realizations": 2, "rank": 4, "site": 3},
        ),
        (
            "moments",
            {"realizations": 2.0, "ranks": [0.0, 2.0], "seed": 7.0},
            {"realizations": 2, "ranks": [0, 2], "seed": 7},
        ),
        (
            "walk",
            {"coupling": {"family": "polygeometric", "n": 2.0, "epsilon": 0.3}},
            {"coupling": {"family": "polygeometric", "n": 2, "epsilon": 0.3}},
        ),
    ],
    ids=["walk", "bound", "moments", "polygeometric-n"],
)
def test_integer_valued_floats_run_as_their_integer_twins(tmp_path, subcommand, floats, ints):
    # JSON Schema's "integer" admits 2.0; such configs once crashed with rc 1
    outs = []
    for name, extra, points in (("float", floats, 11.0), ("int", ints, 11)):
        grid = {"min": -0.5, "max": 1.5, "points": points}
        config = write_config(tmp_path, base_config(energy_grid=grid, **extra), f"{name}.json")
        out = tmp_path / name
        assert main([subcommand, "--config", config, "--out", str(out)]) == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    # the manifest echoes the config with its integers as ints
    assert read_bytes(outs[0], files) == read_bytes(outs[1], files)


def test_cli_runs_without_importing_jsonschema(tmp_path):
    # jsonschema and its packages were a third of the start-up time
    argv = ["walk", "--config", write_config(tmp_path, base_config(unknown_field=1))]
    code = (
        "import sys\n"
        "from hieram import cli\n"
        f"assert cli.main({argv + ['--out', str(tmp_path / 'o')]!r}) == 2\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))\n"
    )
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


BLAS_FREE_SUBCOMMANDS = ["moments", "bound", "green", "walk", "hypothesis", "dimension", "dos"]


def test_blas_free_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # these make no LAPACK call on a data path (dos checks its atoms against
    # a dense solve but writes the closed form), so every file they write
    # must be the same bytes under one and two OpenBLAS threads; the variable
    # is read when numpy loads, so each count gets its own interpreter.  dos
    # runs at depth 10, where its dense eigenvalues do depend on the count
    cfg = base_config(
        hierarchy={"degree": 2, "depth": 6},
        energy_grid={"min": -0.5, "max": 1.5, "points": 101},
        realizations=2,
    )
    config = write_config(tmp_path, cfg)
    dos_config = write_config(tmp_path, _dense_cfg(4.0), name="dos.json")
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    outs = {}
    for threads in ("1", "2"):
        root = tmp_path / f"blas{threads}"
        code = (
            "from hieram.cli import main\n"
            f"for sub in {BLAS_FREE_SUBCOMMANDS!r}:\n"
            f"    cfg = {dos_config!r} if sub == 'dos' else {config!r}\n"
            f"    assert main([sub, '--config', cfg, '--out', {str(root)!r} + '/' + sub]) == 0\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, paths)),
            OPENBLAS_NUM_THREADS=threads,
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        outs[threads] = {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }
    assert {name.split("/")[0] for name in outs["1"]} == set(BLAS_FREE_SUBCOMMANDS)
    assert outs["1"].keys() == outs["2"].keys()
    for name, data in outs["1"].items():
        assert data == outs["2"][name], name


# --- the config walker against jsonschema, its oracle ----------------------

def _draw_valid(data, schema):
    """A value that satisfies schema."""
    if "enum" in schema:
        return data.draw(st.sampled_from(schema["enum"]))
    kind = schema["type"]
    if kind == "object":
        required = schema.get("required", [])
        optional = [k for k in schema["properties"] if k not in required]
        if optional:
            required = required + data.draw(st.lists(st.sampled_from(optional), unique=True))
        return {k: _draw_valid(data, schema["properties"][k]) for k in required}
    if kind == "array":
        size = data.draw(st.integers(0, 3))
        return [_draw_valid(data, schema["items"]) for _ in range(size)]
    if kind == "boolean":
        return data.draw(st.booleans())
    if kind == "string":
        return data.draw(st.text(max_size=3))
    if kind == "integer":
        return data.draw(st.integers(-4, 36))
    return data.draw(st.floats(-4, 36) | st.integers(-3, 35))


# one value of each JSON type; integer and number share 3
_OF_TYPE = {
    "object": {"k": 1},
    "array": [1],
    "string": "text",
    "boolean": True,
    "integer": 3,
    "number": 3,
}


def _draw_mutant(data, schema):
    """A value that breaks schema once, at its root; "float" for an integer
    may also be valid (2.0 is an integer)."""
    kind = schema.get("type")
    ways = ["type"] + {
        "integer": ["bool", "fraction", "float"],
        "object": ["extra"] + ["missing"] * ("required" in schema),
    }.get(kind, [])
    way = data.draw(st.sampled_from(ways), label="way")
    if way == "type":  # off the type, or outside the enum
        fits = schema.get("enum", [_OF_TYPE.get(kind)])
        return data.draw(st.sampled_from([v for v in [None, *_OF_TYPE.values()] if v not in fits]))
    if way == "bool":
        return data.draw(st.booleans())
    if way in ("fraction", "float"):
        return 0.5 if way == "fraction" else float(data.draw(st.integers(0, 9)))
    value = _draw_valid(data, schema)
    if way == "extra":  # jsonschema lists the extra keys sorted
        extras = st.lists(st.sampled_from(["zz", "extra", "Hierarchy"]), min_size=1, unique=True)
        value.update(dict.fromkeys(data.draw(extras), 1))
    else:
        del value[data.draw(st.sampled_from(schema["required"]))]
    return value


def _draw_with_mutants(data, schema, paths):
    """A value of schema with one mutant at each path, a tuple of property
    names and item indices (always 0)."""
    if () in paths:
        return _draw_mutant(data, schema)
    if "items" in schema:
        return [_draw_with_mutants(data, schema["items"], {p[1:] for p in paths})]
    value = _draw_valid(data, schema)
    for name in {p[0] for p in paths}:
        inner = {p[1:] for p in paths if p[0] == name}
        value[name] = _draw_with_mutants(data, schema["properties"][name], inner)
    return value


def _node_paths(schema, path=()):
    """The path of every node of schema."""
    yield path
    for name, sub in schema.get("properties", {}).items():
        yield from _node_paths(sub, (*path, name))
    if "items" in schema:
        yield from _node_paths(schema["items"], (*path, 0))


NODE_PATHS = list(_node_paths(CONFIG_SCHEMA))


@functools.cache
def _jsonschema_validator():
    # jsonschema.validate without its per-call schema check: the validator
    # class for the schema, and best_match over its errors
    jsonschema = pytest.importorskip("jsonschema")
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return jsonschema, cls(CONFIG_SCHEMA)


def _jsonschema_message(config):
    """(key path, message) of validate's error, or None."""
    jsonschema, validator = _jsonschema_validator()
    error = jsonschema.exceptions.best_match(validator.iter_errors(config))
    return None if error is None else (".".join(map(str, error.absolute_path)), error.message)


def test_jsonschema_oracle_is_validate():
    jsonschema, _ = _jsonschema_validator()
    config = base_config(seed="1", hierarchy={"degree": True})
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(config, CONFIG_SCHEMA)
    assert _jsonschema_message(config) == ("seed", exc.value.message)


def _walker_message(config):
    """(key path, message) of validate_config's refusal, or None; the path is
    "" at the root, where the message names none."""
    try:
        cli.validate_config(config)
    except cli.ConfigError as exc:
        match = re.fullmatch(r"config schema violation(?: at (\S+))?: (.*)", str(exc), re.S)
        return match[1] or "", match[2]
    return None


@given(data=st.data())
def test_walker_accepts_what_jsonschema_accepts(data):
    config = _draw_valid(data, CONFIG_SCHEMA)
    assert _walker_message(config) is None is _jsonschema_message(config)


@pytest.mark.parametrize("path", NODE_PATHS, ids=lambda p: ".".join(map(str, p)) or "root")
@settings(max_examples=5)
@given(data=st.data())
def test_walker_matches_jsonschema_on_single_violations(path, data):
    config = _draw_with_mutants(data, CONFIG_SCHEMA, {path})
    assert _walker_message(config) == _jsonschema_message(config)


@settings(max_examples=100)
@given(data=st.data())
def test_walker_matches_jsonschema_on_several_violations(data):
    # best_match: the shallowest error, then the greatest path
    paths = data.draw(st.sets(st.sampled_from(NODE_PATHS[1:]), min_size=2, max_size=4))
    config = _draw_with_mutants(data, CONFIG_SCHEMA, paths)
    assert _walker_message(config) == _jsonschema_message(config)
