"""End-to-end CLI checks: wiring against the library, schemas, exit codes."""

from __future__ import annotations

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import biphoton as bp
from biphoton import cli
from biphoton.io import read_bjsa
from biphoton.jsa import joint_temporal_intensity
from biphoton.materials import Pol, RaySpec, gvd, inverse_group_velocity, wavenumber

SCHEMA = json.loads(
    (Path(bp.__file__).parent / "schemas" / "cli_output.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

ANALYZE_KDP = [
    "analyze",
    "--material",
    "KDP",
    "--lambda-nm",
    "830",
    "--length-mm",
    "20",
    "--pump-fwhm-nm",
    "5",
]


def read_table(path):
    """(comment and header lines, cells parsed with float()) of an exported CSV."""
    lines = path.read_text().splitlines()
    return lines[:2], np.array([[float(c) for c in line.split(",")] for line in lines[2:]])


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "biphoton", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def parse_report(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    VALIDATOR.validate(doc)
    return doc


def parse_error(proc, expected_code):
    assert proc.returncode == expected_code, (proc.stdout, proc.stderr)
    line = proc.stderr.strip().splitlines()[-1]
    doc = json.loads(line)
    VALIDATOR.validate(doc)
    return doc


@pytest.fixture(scope="module")
def kdp_analysis(tmp_path_factory):
    out = tmp_path_factory.mktemp("kdp_cli")
    proc = run_cli(*ANALYZE_KDP, "--out-dir", str(out))
    return parse_report(proc), out


# ------------------------------------------------------------------ commands


def test_materials_matches_library(db):
    proc = run_cli("materials", "--material", "KDP", "--ray", "o", "--lambda-nm", "830")
    doc = parse_report(proc)
    ray = RaySpec(Pol.ORDINARY, np.pi / 2)
    w = bp.omega_from_lambda(0.83)
    assert doc["n"] == pytest.approx(bp.refractive_index(db["KDP"], ray, 0.83), rel=1e-14)
    assert doc["k_rad_um"] == pytest.approx(wavenumber(db["KDP"], ray, w), rel=1e-14)
    assert doc["k_prime_ps_um"] == pytest.approx(
        inverse_group_velocity(db["KDP"], ray, w), rel=1e-14
    )
    assert doc["k_double_prime_ps2_um"] == pytest.approx(
        gvd(db["KDP"], ray, w), rel=1e-14
    )
    assert doc["theta_deg"] == 90.0


def test_analyze_kdp_source(kdp_analysis):
    doc, _ = kdp_analysis
    assert doc["theta_deg"] == pytest.approx(67.76425988, abs=1e-5)
    assert doc["metrics"]["K"] == pytest.approx(1.0684554438699125, rel=1e-9)
    assert doc["metrics"]["purity"] * doc["metrics"]["K"] == pytest.approx(1.0, rel=1e-6)
    assert doc["metrics"]["jsi_correlation"] == pytest.approx(-0.2586, abs=5e-3)
    assert doc["metrics"]["jti_correlation"] == pytest.approx(-0.0293, abs=5e-3)
    assert doc["taylor"]["tau_s"] == pytest.approx(-2.888512578, rel=1e-8)
    assert doc["taylor"]["tau_i"] == pytest.approx(-0.0013121270, rel=1e-6)
    assert doc["factorizability"]["required_sigma"] is None
    assert doc["grid"]["n"] == 256
    assert abs(doc["taylor"]["residual_dk0"]) < 1e-6


def test_analyze_exports(kdp_analysis):
    doc, out = kdp_analysis
    names = ("jsa.bjsa", "jsa.csv", "jsi.csv", "jti.csv")
    for name in names:
        assert (out / name).is_file()
    assert doc["exports"] == sorted(str(out / n) for n in names)
    back = read_bjsa(out / "jsa.bjsa")
    assert back.grid.n == 256
    assert abs(back.norm_squared() - 1.0) < 1e-9
    jsi_comment = f"# joint spectral intensity, omega0_rad_ps={back.grid.omega0!r}"
    for name, amp, head in (
        ("jsi.csv", back, [jsi_comment, "nu_rad_ps_row,nu_rad_ps_col,intensity"]),
        (
            "jti.csv",
            joint_temporal_intensity(back),
            ["# joint temporal intensity", "t_ps_row,t_ps_col,intensity"],
        ),
    ):
        header, table = read_table(out / name)
        assert header == head, name
        axis = amp.grid.axis()
        assert table.shape == (axis.size**2, 3), name
        assert np.array_equal(table[:, 0], np.repeat(axis, axis.size)), name
        assert np.array_equal(table[:, 1], np.tile(axis, axis.size)), name
        assert np.array_equal(table[:, 2], (np.abs(amp.values) ** 2).ravel()), name


def test_schmidt_round_trip_from_export(kdp_analysis, tmp_path):
    doc, out = kdp_analysis
    modes_csv = tmp_path / "modes.csv"
    proc = run_cli(
        "schmidt",
        "--in",
        str(out / "jsa.bjsa"),
        "--modes-csv",
        str(modes_csv),
        "--n-modes",
        "2",
    )
    sd = parse_report(proc)
    assert sd["K"] == pytest.approx(doc["metrics"]["K"], rel=1e-9)
    assert sd["purity"] == pytest.approx(doc["metrics"]["purity"], rel=1e-9)
    assert sd["herald_rate"] == pytest.approx(1.0, rel=1e-9)
    lambdas = sd["lambdas"]
    assert lambdas == sorted(lambdas, reverse=True)
    assert sd["n_modes_kept"] >= len(lambdas) > 0
    lines = modes_csv.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "nu_rad_ps"
    assert len(lines) == 2 + 256
    _, table = read_table(modes_csv)
    grid = read_bjsa(out / "jsa.bjsa").grid
    assert np.array_equal(table[:, 0], grid.axis())
    assert table.shape[1] == 1 + 4 * 2
    # psi_j and phi_j are (Re, Im) column pairs of unit-norm amplitude densities
    for re in range(1, table.shape[1], 2):
        norm = np.sum(table[:, re] ** 2 + table[:, re + 1] ** 2) * grid.spacing
        assert norm == pytest.approx(1.0, abs=1e-12), lines[1].split(",")[re]


def test_schmidt_csv_and_bjsa_agree(kdp_analysis):
    _, out = kdp_analysis
    k_vals = []
    for name in ("jsa.bjsa", "jsa.csv"):
        proc = run_cli("schmidt", "--in", str(out / name))
        k_vals.append(parse_report(proc)["K"])
    assert k_vals[0] == pytest.approx(k_vals[1], rel=1e-12)


def test_schmidt_filtered(kdp_analysis):
    _, out = kdp_analysis
    proc = run_cli(
        "schmidt",
        "--in",
        str(out / "jsa.bjsa"),
        "--filter-kind",
        "gaussian",
        "--filter-center-nm",
        "830",
        "--filter-width-nm",
        "3",
    )
    doc = parse_report(proc)
    unfiltered = parse_report(run_cli("schmidt", "--in", str(out / "jsa.bjsa")))
    assert doc["purity"] > unfiltered["purity"]
    assert doc["herald_rate"] < unfiltered["herald_rate"]


def test_schmidt_metrics_ignore_grid_scale(kdp_analysis, tmp_path):
    # K, purity and the herald rate (per unfiltered pair) describe the state,
    # not the overall scale of the stored amplitude; at 1e-160 the squared
    # singular values of the raw grid go subnormal and at 1e160 they overflow
    _, out = kdp_analysis
    ja = read_bjsa(out / "jsa.bjsa")
    filt = ("--filter-kind", "gaussian", "--filter-center-nm", "830", "--filter-width-nm", "3")
    for extra in ((), filt):
        base = parse_report(run_cli("schmidt", "--in", str(out / "jsa.bjsa"), *extra))
        for scale in (1e-160, 1e-30, 3.0, 1e8, 1e160):
            path = tmp_path / f"scaled_{scale:g}.bjsa"
            bp.write_bjsa(bp.JointAmplitude(ja.grid, ja.values * scale), path)
            doc = parse_report(run_cli("schmidt", "--in", str(path), *extra))
            for key in ("K", "purity", "herald_rate"):
                assert doc[key] == pytest.approx(base[key], rel=1e-12), (scale, extra, key)


def test_design_gvm_matches_library(db):
    proc = run_cli("design-gvm", "--material", "KTP", "--scheme", "qpm")
    doc = parse_report(proc)
    from biphoton.gvm_design import decorrelation_range, gvm_scan, gvm_wavelength_search

    scan = gvm_scan(db["KTP"], scheme="qpm")
    lam, rng = gvm_wavelength_search(scan), decorrelation_range(scan)
    assert doc["gvm_wavelength_um"] == pytest.approx(lam, rel=1e-12)
    assert doc["decorrelation_lo_um"] == pytest.approx(rng[0], rel=1e-12)
    assert doc["decorrelation_hi_um"] == pytest.approx(rng[1], rel=1e-12)


def test_design_gvm_null_result_inside_window():
    proc = run_cli(
        "design-gvm",
        "--material",
        "BBO",
        "--window-lo-um",
        "0.9",
        "--window-hi-um",
        "1.2",
    )
    doc = parse_report(proc)
    assert doc["gvm_wavelength_um"] is None


def test_design_asymmetric_kdp():
    proc = run_cli(
        "design-asymmetric",
        "--material",
        "KDP",
        "--lambda-nm",
        "830",
        "--length-mm",
        "20",
        "--pump-fwhm-nm",
        "5",
    )
    doc = parse_report(proc)
    assert doc["long_crystal_regime"] is True
    assert doc["factorizability"]["required_sigma"] is None
    assert doc["taylor"]["tau_s"] == pytest.approx(-2.888512578, rel=1e-8)
    assert doc["theta_deg"] == pytest.approx(67.764, abs=1e-3)


def test_analyze_and_design_asymmetric_report_the_same_source(kdp_analysis):
    doc, _ = kdp_analysis
    asym = parse_report(run_cli("design-asymmetric", *ANALYZE_KDP[1:]))
    keys = ("material", "scheme", "theta_deg", "lambda_nm", "length_mm", "taylor",
            "factorizability", "temporal")
    assert {k: asym[k] for k in keys} == {k: doc[k] for k in keys}


def test_design_assembly_matches_library(stack_design):
    proc = run_cli(
        "design-assembly",
        "--crystal",
        "BBO",
        "--spacer",
        "CALCITE",
        "--lambda-nm",
        "800",
        "--n-crystals",
        "10",
        "--m",
        "10",
    )
    doc = parse_report(proc)
    from dataclasses import asdict

    expected = asdict(stack_design)
    for key, val in expected.items():
        if isinstance(val, float):
            assert doc["design"][key] == pytest.approx(val, rel=1e-12), key
        else:
            assert doc["design"][key] == val, key
    assert doc["theta_c_deg"] == pytest.approx(
        np.degrees(stack_design.theta_c_rad), rel=1e-12
    )


ASSEMBLY_BBO = [
    "design-assembly", "--crystal", "BBO", "--spacer", "CALCITE",
    "--lambda-nm", "800", "--n-crystals", "10", "--m", "10",
]


def test_design_assembly_parses_the_database_once(monkeypatch, capsys):
    real, calls = bp.materials.load_database, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bp.materials, "load_database", counted)
    monkeypatch.setattr(cli, "load_database", counted)
    assert cli.main(ASSEMBLY_BBO) == 0
    assert len(calls) == 1


def test_design_assembly_reads_both_materials_from_the_override(tmp_path):
    bundled = json.loads((Path(bp.__file__).parent / "data" / "materials.json").read_text())
    path = tmp_path / "mats.json"
    path.write_text(json.dumps({"materials": {"BBO": bundled["materials"]["BBO"]}}))
    doc = parse_error(run_cli(*ASSEMBLY_BBO, env_extra={"BIPHOTON_MATERIALS_PATH": str(path)}), 2)
    assert doc["error"] == "ConfigError" and "'CALCITE'" in doc["message"]
    path.write_text("materials: {toy}")
    doc = parse_error(run_cli(*ASSEMBLY_BBO, env_extra={"BIPHOTON_MATERIALS_PATH": str(path)}), 2)
    assert doc["error"] == "ConfigError" and str(path) in doc["message"]


def test_design_assembly_exports(tmp_path):
    out = tmp_path / "stack"
    proc = run_cli(
        "design-assembly",
        "--crystal",
        "BBO",
        "--spacer",
        "CALCITE",
        "--lambda-nm",
        "800",
        "--n-crystals",
        "10",
        "--m",
        "10",
        "--grid-n",
        "64",
        "--out-dir",
        str(out),
    )
    doc = parse_report(proc)
    assert (out / "assembly_jsa.bjsa").is_file()
    assert (out / "assembly_jsa.csv").is_file()
    assert "exports" in doc
    back = read_bjsa(out / "assembly_jsa.bjsa")
    assert back.grid.n == 64
    assert abs(back.norm_squared() - 1.0) < 1e-9


# the long flags each subcommand's --help lists
HELP_FLAGS = {
    "materials": "--config --lambda-nm --material --ray --theta-deg",
    "analyze": "--config --grid-n --lambda-nm --length-mm --material --model --out-dir"
    " --pump-chirp-ps2 --pump-fwhm-nm --scheme --span-factor",
    "schmidt": "--config --filter-center-nm --filter-kind --filter-width-nm --in --max-modes"
    " --modes-csv --n-modes",
    "design-gvm": "--config --material --scheme --window-hi-um --window-lo-um",
    "design-asymmetric": "--config --lambda-nm --length-mm --material --pump-fwhm-nm --scheme",
    "design-assembly": "--config --crystal --grid-n --lambda-nm --m --n-crystals --out-dir"
    " --spacer",
    "paper-repro": "--config --out-dir",
}


@pytest.mark.parametrize("command", list(HELP_FLAGS))
def test_help_lists_the_subcommands_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert flags == {"--help", *HELP_FLAGS[command].split()}


# ------------------------------------------------------------- determinism


def test_output_is_deterministic():
    args = ANALYZE_KDP + ["--grid-n", "128"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ANALYZE_KDP,
        [*ANALYZE_KDP, "--model", "gaussian"],
        ["design-asymmetric", *ANALYZE_KDP[1:]],
    ],
    ids=["analyze", "analyze-gaussian", "design-asymmetric"],
)
def test_one_expansion_per_request(monkeypatch, argv):
    # taylor_coefficients makes the one group_delays call of jsa per expansion
    real, calls = bp.jsa.group_delays, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bp.jsa, "group_delays", counted)
    assert cli.main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [ANALYZE_KDP, [*ANALYZE_KDP, "--pump-chirp-ps2", "0.015", "--grid-n", "512"]],
    ids=["unchirped", "chirped"],
)
def test_analyze_takes_one_weights_only_decomposition(monkeypatch, capsys, argv):
    # unfiltered heralding reads only the weights: one decomposition, no heralded state
    calls = []
    for name in ("schmidt_decompose", "heralded_state"):
        real = getattr(bp.schmidt, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(bp.schmidt, name, counted)
    assert cli.main(argv) == 0
    assert calls == [("schmidt_decompose", {"modes": False})]
    assert json.loads(capsys.readouterr().out)["metrics"]["herald_rate"] <= 1.0


def test_unfiltered_schmidt_prints_the_analyze_metrics(kdp_analysis):
    # no filter has one formula, on the weights: schmidt reads its BJSA export on
    # the low-rank path, where the weights are analyze's bit for bit
    doc, out = kdp_analysis
    report = parse_report(run_cli("schmidt", "--in", str(out / "jsa.bjsa")))
    for key in ("K", "S_bits", "purity", "herald_rate"):
        assert report[key] == doc["metrics"][key], key


@pytest.mark.parametrize(
    "extra, heralded",
    [
        ([], 0),
        (["--modes-csv", "modes.csv"], 0),
        (["--filter-kind", "gaussian", "--filter-center-nm", "830", "--filter-width-nm", "3"], 1),
    ],
    ids=["unfiltered", "unfiltered-modes-csv", "gaussian"],
)
def test_schmidt_takes_one_decomposition_with_modes(
    monkeypatch, capsys, tmp_path, kdp_analysis, extra, heralded
):
    # the printed lambdas come from a decomposition with modes whether or not
    # --modes-csv is given; only a filter reads them through heralded_state
    calls = []
    for module, name in ((cli, "schmidt_decompose"), (bp.schmidt, "schmidt_decompose"),
                         (bp.schmidt, "heralded_state")):
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, kwargs.get("modes", True)))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    extra = [str(tmp_path / a) if a.endswith(".csv") else a for a in extra]
    assert cli.main(["schmidt", "--in", str(kdp_analysis[1] / "jsa.bjsa"), *extra]) == 0
    capsys.readouterr()
    assert calls == [("schmidt_decompose", True)] + [("heralded_state", True)] * heralded


@pytest.mark.parametrize("chirp, code", [("1e150", 0), ("1e160", 3), ("1e300", 3)])
def test_huge_pump_chirp_fails_with_a_typed_error(chirp, code):
    proc = run_cli(*ANALYZE_KDP, "--grid-n", "64", "--pump-chirp-ps2", chirp)
    if code == 0:
        parse_report(proc)
    else:
        doc = parse_error(proc, code)
        assert doc["error"] == "NumericalFailure"
        assert "overflows" in doc["message"] and proc.stdout == ""


def test_matched_source_returns_the_crystals_expansion(db):
    crystal, _, coeffs = bp.matched_source(db["KDP"], 0.83, 20_000.0, 5.0)
    assert coeffs is crystal.coeffs
    assert coeffs == bp.taylor_coefficients(crystal)


def test_config_file_supplies_defaults(tmp_path, kdp_analysis):
    kdp = {"material": "KDP", "lambda-nm": 830, "length-mm": 20, "pump-fwhm-nm": 5}
    cfg = tmp_path / "kdp.json"
    cfg.write_text(json.dumps({**kdp, "grid-n": 64}))
    via_flags = run_cli(*ANALYZE_KDP, "--grid-n", "128")
    via_config = run_cli("analyze", "--config", str(cfg), "--grid-n", "128")
    assert via_config.returncode == 0, via_config.stderr
    assert via_config.stdout == via_flags.stdout
    # explicit flags beat config values
    override = run_cli(
        "analyze", "--config", str(cfg), "--grid-n", "128", "--lambda-nm", "820"
    )
    doc = parse_report(override)
    assert doc["lambda_nm"] == 820.0
    assert doc["grid"]["n"] == 128
    # a config value replaces a flag's default
    cfg.write_text(json.dumps({**kdp, "grid-n": 64, "model": "gaussian"}))
    doc = parse_report(run_cli("analyze", "--config", str(cfg)))
    assert (doc["grid"]["n"], doc["model"]) == (64, "gaussian")
    # the key of `--in` is "in"
    grid = str(kdp_analysis[1] / "jsa.bjsa")
    cfg.write_text(json.dumps({"in": grid}))
    via_config = run_cli("schmidt", "--config", str(cfg))
    assert parse_report(via_config)["infile"] == grid
    assert via_config.stdout == run_cli("schmidt", "--in", grid).stdout


@pytest.mark.parametrize(
    "command, bad",
    [
        ("materials", {"ray": "x"}),
        ("materials", {"lambda-nm": "abc"}),
        ("materials", {"lambda-nm": [800]}),
        ("design-assembly", {"n-crystals": 2.5}),
        ("materials", {"material": None}),
        ("materials", {"material": True}),
    ],
)
def test_bad_config_values_exit_2(tmp_path, command, bad):
    good = {
        "materials": {"material": "BBO", "ray": "o", "lambda-nm": 800},
        "design-assembly": {
            "crystal": "BBO", "spacer": "CALCITE", "lambda-nm": 800, "n-crystals": 10, "m": 10
        },
    }[command]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**good, **bad}))
    proc = run_cli(command, "--config", str(cfg))
    assert parse_error(proc, 2)["error"] == "ConfigError"
    assert proc.stdout == ""


def test_materials_database_env_override(tmp_path):
    doc = {
        "materials": {
            "toy": {
                "sellmeier_o": {"c0": 2.25, "terms": []},
                "sellmeier_e": {"c0": 2.25, "terms": []},
                "valid_range": [0.2, 2.0],
            }
        }
    }
    path = tmp_path / "mats.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(
        "materials",
        "--material",
        "TOY",
        "--ray",
        "o",
        "--lambda-nm",
        "800",
        env_extra={"BIPHOTON_MATERIALS_PATH": str(path)},
    )
    out = parse_report(proc)
    assert out["n"] == pytest.approx(1.5, rel=1e-14)


# -------------------------------------------------------------- error paths


TOY_MATERIAL = {
    "sellmeier_o": {"c0": 2.25, "terms": [[0.01, 0.0, 0.02]]},
    "sellmeier_e": {"c0": 2.25, "terms": []},
    "valid_range": [0.2, 2.0],
}
# None is a missing file, a string the file's text, a dict the one material's entry
BAD_DATABASES = {
    "missing-file": None,
    "not-json": "materials: {toy}",
    "no-sellmeier-e": {k: v for k, v in TOY_MATERIAL.items() if k != "sellmeier_e"},
    "two-number-term": {**TOY_MATERIAL, "sellmeier_o": {"c0": 2.0, "terms": [[0.1, 0.2]]}},
    "one-element-range": {**TOY_MATERIAL, "valid_range": [0.2]},
    "non-numeric-c0": {**TOY_MATERIAL, "sellmeier_e": {"c0": "abc", "terms": []}},
}


@pytest.mark.parametrize("case", list(BAD_DATABASES))
def test_malformed_materials_database_exits_2(tmp_path, case):
    text = BAD_DATABASES[case]
    path = tmp_path / "mats.json"
    if isinstance(text, dict):
        path.write_text(json.dumps({"materials": {"toy": text}}))
    elif text is not None:
        path.write_text(text)
    proc = run_cli(
        "materials",
        "--material",
        "TOY",
        "--ray",
        "o",
        "--lambda-nm",
        "800",
        env_extra={"BIPHOTON_MATERIALS_PATH": str(path)},
    )
    doc = parse_error(proc, 2)
    assert doc["error"] == "ConfigError"
    assert str(path) in doc["message"]
    if isinstance(text, dict):
        assert "material 'toy'" in doc["message"]
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


def test_missing_flag_exits_2():
    for argv, flag in (
        (("materials", "--material", "KDP", "--ray", "o"), "--lambda-nm"),
        (("schmidt",), "--in"),
    ):
        proc = run_cli(*argv)
        doc = parse_error(proc, 2)
        assert doc["error"] == "ConfigError"
        assert doc["message"] == f"missing required flag(s): {flag}"
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1


def test_rejected_flag_value_prints_one_error_line():
    # argparse's usage text goes into the error message, not ahead of it
    proc = run_cli("analyze", "--grid-n", "abc")
    doc = parse_error(proc, 2)
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    assert doc["error"] == "ConfigError"
    assert "--grid-n" in doc["message"] and "usage: biphoton analyze" in doc["message"]


def test_unknown_material_exits_2():
    proc = run_cli("materials", "--material", "UNOBTANIUM", "--ray", "o", "--lambda-nm", "800")
    doc = parse_error(proc, 2)
    assert doc["error"] == "ConfigError"


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate")
    doc = parse_error(proc, 2)
    assert doc["error"] == "ConfigError"


def test_missing_input_grid_exits_2(tmp_path):
    for path in (tmp_path / "absent.bjsa", tmp_path):
        proc = run_cli("schmidt", "--in", str(path))
        doc = parse_error(proc, 2)
        assert doc["error"] == "ConfigError"
        assert "not found" in doc["message"]
        assert len(proc.stderr.strip().splitlines()) == 1


def test_bad_schmidt_mode_options_exit_2(kdp_analysis, tmp_path):
    _, out = kdp_analysis
    modes = tmp_path / "modes.csv"
    for extra in (
        ["--modes-csv", str(tmp_path / "missing_dir" / "m.csv")],
        ["--modes-csv", str(tmp_path)],
        ["--modes-csv", str(modes), "--n-modes", "-2"],
        ["--modes-csv", str(modes), "--n-modes", "0"],
        ["--max-modes", "-5"],
        ["--max-modes", "0"],
    ):
        proc = run_cli("schmidt", "--in", str(out / "jsa.bjsa"), *extra)
        doc = parse_error(proc, 2)
        assert doc["error"] == "ConfigError", extra
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
    assert not modes.exists()


def test_non_numeric_csv_cell_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# omega0_rad_ps=2000 half_span_rad_ps=10 n=32\nnu_s,nu_i,re_f,im_f\n1,2,abc,4\n")
    doc = parse_error(run_cli("schmidt", "--in", str(bad)), 2)
    assert doc["error"] == "ConfigError"
    assert "malformed CSV" in doc["message"]


def test_non_finite_grid_sample_exits_2(tmp_path, kdp_analysis):
    ja = read_bjsa(kdp_analysis[1] / "jsa.bjsa")
    ja.values[3, 5] = np.nan
    for name, write in (("nan.bjsa", bp.write_bjsa), ("nan.csv", bp.write_csv)):
        path = tmp_path / name
        write(ja, path)
        proc = run_cli("schmidt", "--in", str(path))
        assert parse_error(proc, 2)["error"] == "ConfigError"
        assert len(proc.stderr.strip().splitlines()) == 1


def test_non_finite_grid_span_exits_2(tmp_path):
    n = 32
    path = tmp_path / "nan.bjsa"
    head = struct.pack("<4sH3d", b"BJSA", 1, float(n), bp.omega_from_lambda(0.83), float("nan"))
    path.write_bytes(head + np.ones(n * n, dtype="<c16").tobytes())
    doc = parse_error(run_cli("schmidt", "--in", str(path)), 2)
    assert doc["error"] == "ConfigError"
    assert "half_span" in doc["message"]


def test_non_finite_carrier_exits_2(tmp_path):
    n = 32
    path = tmp_path / "nan_w0.bjsa"
    head = struct.pack("<4sH3d", b"BJSA", 1, float(n), float("nan"), 10.0)
    path.write_bytes(head + np.ones(n * n, dtype="<c16").tobytes())
    filt = ["--filter-kind", "gaussian", "--filter-center-nm", "830", "--filter-width-nm", "3"]
    doc = parse_error(run_cli("schmidt", "--in", str(path), *filt), 2)
    assert doc["error"] == "ConfigError"
    assert "omega0" in doc["message"]


def test_bad_filter_exits_2(kdp_analysis):
    _, out = kdp_analysis
    for center, width in (("0", "3"), ("830", "nan"), ("nan", "3"), ("-830", "3"), ("830", "inf")):
        filt = ["--filter-kind", "gaussian", "--filter-center-nm", center]
        proc = run_cli("schmidt", "--in", str(out / "jsa.bjsa"), *filt, "--filter-width-nm", width)
        doc = parse_error(proc, 2)
        assert doc["error"] == "ConfigError"
        assert "positive and finite" in doc["message"]


@pytest.mark.parametrize(
    "argv",
    [
        "materials --material BBO --ray o --lambda-nm nan",
        "design-asymmetric --material KDP --lambda-nm 830 --length-mm nan --pump-fwhm-nm 5",
        "design-asymmetric --material KDP --lambda-nm 830 --length-mm 20 --pump-fwhm-nm inf",
        "design-asymmetric --material KDP --lambda-nm 830 --length-mm inf --pump-fwhm-nm 5",
        "design-gvm --material KTP --scheme qpm --window-lo-um 2.0 --window-hi-um 1.3",
        "design-gvm --material KTP --scheme qpm --window-lo-um nan --window-hi-um 2.0",
    ],
)
def test_nan_or_reversed_physical_inputs_exit_2(argv):
    proc = run_cli(*argv.split())
    assert parse_error(proc, 2)["error"] in ("ConfigError", "OutOfRange")
    assert proc.stdout == ""


def test_out_dir_under_a_file_exits_2(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    assembly = "design-assembly --crystal BBO --spacer CALCITE --lambda-nm 800 --n-crystals 10 --m 10"
    out = ["--out-dir", str(afile / "sub")]
    for argv in ([*ANALYZE_KDP, *out], [*assembly.split(), *out], ["paper-repro", *out]):
        doc = parse_error(run_cli(*argv), 2)
        assert doc["error"] == "ConfigError"
        assert "output directory" in doc["message"]


@pytest.mark.parametrize(
    "argv, blocked",
    [
        (ANALYZE_KDP, "jsa.bjsa"),
        (
            "design-assembly --crystal BBO --spacer CALCITE --lambda-nm 800 --n-crystals 10 --m 10"
            " --grid-n 64".split(),
            "assembly_jsa.bjsa",
        ),
        (["paper-repro"], "ktp_gvm.json"),
        (ANALYZE_KDP, "jsi.csv"),
        (["paper-repro"], "summary.txt"),
    ],
    ids=["analyze", "design-assembly", "paper-repro", "analyze-table", "paper-repro-text"],
)
def test_export_file_that_is_a_directory_exits_2(tmp_path, argv, blocked):
    (tmp_path / blocked).mkdir()
    proc = run_cli(*argv, "--out-dir", str(tmp_path))
    doc = parse_error(proc, 2)
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert doc["error"] == "ConfigError"
    assert blocked in doc["message"]


def test_bad_config_file_exits_2(tmp_path):
    proc = run_cli("design-gvm", "--material", "BBO", "--config", str(tmp_path / "no.json"))
    assert parse_error(proc, 2)["error"] == "ConfigError"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus-key": 1}))
    proc = run_cli("design-gvm", "--material", "BBO", "--config", str(cfg))
    doc = parse_error(proc, 2)
    assert "bogus-key" in doc["message"]
    cfg.write_bytes(b'\xff{"material": "BBO"}')
    proc = run_cli("design-gvm", "--material", "BBO", "--config", str(cfg))
    assert "not valid JSON" in parse_error(proc, 2)["message"]


def test_no_phasematch_exits_3():
    proc = run_cli(
        "analyze",
        "--material",
        "KDP",
        "--lambda-nm",
        "450",
        "--length-mm",
        "10",
        "--pump-fwhm-nm",
        "5",
    )
    doc = parse_error(proc, 3)
    assert doc["error"] == "NoPhasematch"


def test_same_sign_assembly_exits_3():
    proc = run_cli(
        "design-assembly",
        "--crystal",
        "BBO",
        "--spacer",
        "BBO",
        "--lambda-nm",
        "800",
        "--n-crystals",
        "2",
        "--m",
        "1",
    )
    doc = parse_error(proc, 3)
    assert doc["error"] == "NoOppositeSign"


# ---------------------------------------------------------------- repro run


def test_paper_repro_writes_all_criteria(tmp_path):
    out = tmp_path / "repro"
    proc = run_cli("paper-repro", "--out-dir", str(out))
    summary = parse_report(proc)
    assert summary["all_pass"] is True
    assert len(summary["criteria"]) == 6
    files = [
        "ktp_gvm.json",
        "bbo_gvm.json",
        "assembly_design.json",
        "kdp_source.json",
        "assembly_pipeline.json",
        "properties.json",
    ]
    for name in files:
        doc = json.loads((out / name).read_text())
        VALIDATOR.validate(doc)
        assert doc["pass"] is True, name
    table = (out / "summary.txt").read_text().splitlines()
    assert len(table) == 7
    assert all("PASS" in line for line in table[1:])
    assert json.loads((out / "summary.json").read_text()) == summary
