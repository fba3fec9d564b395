"""The CLI's exit contract under bad input: every call exits 0 with strict JSON
on stdout, or 2 or 3 with exactly one JSON line on stderr, and emits no Python
warning. A seeded sweep of mutated amplitude files, plus one named test per
defect such a sweep found."""

from __future__ import annotations

import contextlib
import io
import json
import struct
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import biphoton as bp
from biphoton import cli
from biphoton import io as bio

VALIDATOR = jsonschema.Draft202012Validator(
    json.loads((Path(bp.__file__).parent / "schemas" / "cli_output.schema.json").read_text())
)

#: grid size, seed and call budget of the file sweep
N, SEED, RANDOM_CALLS = 64, 20261019, 120
#: values every header field is set to, one file each
HEADER_VALUES = (float("nan"), float("inf"), 0.0, -1.0, 1e300, 5e-324)
#: (BJSA byte offset, CSV comment key) of the header fields n, omega0, half_span
HEADER_FIELDS = ((6, "n"), (14, "omega0_rad_ps"), (22, "half_span_rad_ps"))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def call_main(argv):
    """cli.main(argv) in process: (exit code, stdout, stderr, warning messages).
    An exception that escapes main propagates."""
    out, err = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def assert_contract(argv, expected=(0, 2, 3)):
    """Run argv and check the exit contract; the parsed stdout or stderr JSON."""
    code, out, err, caught = call_main(argv)
    assert caught == [], (argv, caught)
    assert code in expected, (argv, code, err)
    if code == 0:
        doc = json.loads(out, parse_constant=_reject_constant)
        VALIDATOR.validate(doc)
        assert err == "", (argv, err)
        return doc
    assert out == "", (argv, out)
    lines = err.splitlines()
    assert len(lines) == 1, (argv, err)
    doc = json.loads(lines[0])
    VALIDATOR.validate(doc)
    return doc


# ------------------------------------------------------------- file sweep


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """analyze's and design-assembly's BJSA and CSV exports at n = 64."""
    out = tmp_path_factory.mktemp("exports")
    size = ["--grid-n", str(N), "--out-dir", str(out)]
    assert_contract(["analyze", "--material", "KDP", "--lambda-nm", "830", "--length-mm", "20",
                     "--pump-fwhm-nm", "5", *size], expected=(0,))
    assert_contract(["design-assembly", "--crystal", "BBO", "--spacer", "CALCITE",
                     "--lambda-nm", "800", "--n-crystals", "10", "--m", "10", *size],
                    expected=(0,))
    return [out / name for name in ("jsa.bjsa", "jsa.csv", "assembly_jsa.bjsa", "assembly_jsa.csv")]


def _set_header_field(raw, suffix, field, value):
    offset, key = field
    if suffix == ".bjsa":
        return raw[:offset] + struct.pack("<d", value) + raw[offset + 8:]
    comment, rest = raw.split(b"\n", 1)
    toks = [f"{key}={value!r}" if tok.startswith(key + "=") else tok
            for tok in comment.decode().split()]
    return " ".join(toks).encode() + b"\n" + rest


def _shuffle_rows(raw, rng):
    comment, header, *rows = raw.split(b"\n")[:-1]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    return b"\n".join([comment, header, *rows]) + b"\n"


def mutated_files(paths, rng):
    """(label, source path, mutated bytes) for every fixed case, then
    RANDOM_CALLS random truncations and byte flips."""
    for path in paths:
        raw = path.read_bytes()
        yield "one byte short", path, raw[:-1]
        for field in HEADER_FIELDS:
            for value in HEADER_VALUES:
                yield f"{field[1]}={value!r}", path, _set_header_field(raw, path.suffix, field, value)
        if path.suffix == ".csv":
            yield "no comment line", path, raw.split(b"\n", 1)[1]
            yield "shuffled rows", path, _shuffle_rows(raw, rng)
    for j in range(RANDOM_CALLS):
        path = paths[j % len(paths)]
        raw = bytearray(path.read_bytes())
        if j % 2:
            yield "truncated", path, bytes(raw[: rng.integers(len(raw))])
        else:
            for pos in rng.integers(len(raw), size=rng.integers(1, 4)):
                raw[pos] ^= int(rng.integers(1, 256))
            yield "bytes flipped", path, bytes(raw)


def test_mutated_amplitude_files_keep_the_exit_contract(exports, tmp_path):
    rng = np.random.default_rng(SEED)
    reference = {p: assert_contract(["schmidt", "--in", str(p)], expected=(0,)) for p in exports}
    calls = 0
    for label, source, raw in mutated_files(exports, rng):
        path = tmp_path / f"mutated{source.suffix}"
        path.write_bytes(raw)
        doc = assert_contract(["schmidt", "--in", str(path)])
        calls += 1
        if label == "shuffled rows":
            assert {**doc, "infile": ""} == {**reference[source], "infile": ""}
            back, original = bio.read_csv(path), bio.read_csv(source)
            assert back.grid == original.grid
            assert np.array_equal(back.values, original.values)
        elif label.startswith("n=") or label == "no comment line" or (
                label == "one byte short" and source.suffix == ".bjsa"):
            assert "error" in doc, label
    assert calls >= 200


# ------------------------------------------------- defects the sweep found


def test_bjsa_one_byte_short_exits_2(exports, tmp_path):
    path = tmp_path / "short.bjsa"
    path.write_bytes(exports[0].read_bytes()[:-1])
    doc = assert_contract(["schmidt", "--in", str(path)], expected=(2,))
    assert doc["error"] == "ConfigError" and "payload" in doc["message"]


def test_csv_without_its_grid_comment_exits_2(exports, tmp_path):
    """Without its comment line a CSV names no carrier, and an idler filter placed
    against a made-up one gives a wrong purity or none, so the file is refused."""
    path = tmp_path / "bare.csv"
    path.write_bytes(exports[1].read_bytes().split(b"\n", 1)[1])
    for extra in ([], ["--filter-kind", "gaussian", "--filter-center-nm", "830",
                       "--filter-width-nm", "3"]):
        doc = assert_contract(["schmidt", "--in", str(path), *extra], expected=(2,))
        assert doc["error"] == "ConfigError" and "grid comment" in doc["message"]


def test_csv_with_no_rows_exits_2(exports, tmp_path):
    """A CSV cut after its two header lines used to print loadtxt's 'input
    contained no data' UserWarning on stderr before the error line."""
    path = tmp_path / "empty.csv"
    path.write_bytes(b"".join(exports[1].read_bytes().splitlines(keepends=True)[:2]) + b"\n\n")
    doc = assert_contract(["schmidt", "--in", str(path)], expected=(2,))
    assert doc["error"] == "ConfigError" and "no data" in doc["message"]


WAVELENGTH_CALLS = [
    "materials --material KDP --ray o",
    "analyze --material KDP --length-mm 20 --pump-fwhm-nm 5 --grid-n 64",
    "analyze --material KTP --scheme qpm --length-mm 20 --pump-fwhm-nm 5 --grid-n 64",
    "design-asymmetric --material KDP --length-mm 20 --pump-fwhm-nm 5",
    "design-assembly --crystal BBO --spacer CALCITE --n-crystals 10 --m 10",
]


@pytest.mark.parametrize("lambda_nm", ["0", "5e-324", "inf", "-830"])
@pytest.mark.parametrize("argv", WAVELENGTH_CALLS, ids=[a.split()[0] + "-" + a.split()[2]
                                                         for a in WAVELENGTH_CALLS])
def test_wavelength_flag_outside_the_material_exits_2(argv, lambda_nm):
    doc = assert_contract([*argv.split(), "--lambda-nm", lambda_nm], expected=(2,))
    assert doc["error"] == "OutOfRange"


def test_non_finite_report_exits_3(monkeypatch):
    """sigma^2 of a 1e200 nm pump overflows in factorizability_report; the -inf
    that json.dumps would print as -Infinity is a NumericalFailure instead.
    The CLI refuses such a pump as wider than its carrier, so the report is
    handed the 5 nm pump widened 2e199 times behind that check."""
    report = cli.factorizability_report
    monkeypatch.setattr(cli, "factorizability_report",
                        lambda pump, coeffs: report(replace(pump, sigma=pump.sigma * 2e199), coeffs))
    doc = assert_contract(["analyze", "--material", "KDP", "--lambda-nm", "1262.77",
                           "--length-mm", "16", "--pump-fwhm-nm", "5", "--grid-n", "64"],
                          expected=(3,))
    assert doc["error"] == "NumericalFailure" and "non-finite" in doc["message"]


@pytest.mark.parametrize("command", ["analyze", "design-asymmetric"])
@pytest.mark.parametrize("fwhm_nm", ["631.385", "1e20", "1e200"])
def test_pump_wider_than_its_carrier_exits_2(command, fwhm_nm):
    """A pump FWHM at or above the pump wavelength is a pump at least as wide in
    frequency as its carrier: a ConfigError, where it used to give numbers."""
    doc = assert_contract([command, "--material", "KDP", "--lambda-nm", "1262.77",
                           "--length-mm", "16", "--pump-fwhm-nm", fwhm_nm], expected=(2,))
    assert doc["error"] == "ConfigError" and "pump wavelength" in doc["message"]


@pytest.mark.parametrize("command", ["analyze", "design-asymmetric"])
def test_pump_too_narrow_for_float_range_exits_2(command):
    """A 1e-300 nm pump has a sigma whose sigma^-2 overflows; design-asymmetric
    used to end in a ZeroDivisionError traceback (exit 1) from the aspect ratio
    of the two slice widths, both rounded to 0."""
    doc = assert_contract([command, "--material", "KDP", "--lambda-nm", "830",
                           "--length-mm", "20", "--pump-fwhm-nm", "1e-300"], expected=(2,))
    assert doc["error"] == "ConfigError" and "sigma^-2" in doc["message"]


def test_zero_variance_intensity_exits_3():
    """A 1e30 mm crystal leaves the JTI on one grid line: its intensity
    correlation used to print a RuntimeWarning for 0/0 before the exit-3 line."""
    doc = assert_contract(["analyze", "--material", "BBO", "--lambda-nm", "830",
                           "--length-mm", "1e30", "--pump-fwhm-nm", "5", "--grid-n", "32"],
                          expected=(3,))
    assert doc["error"] == "NumericalFailure" and "intensity correlation" in doc["message"]


@pytest.mark.parametrize("command, code, error, message", [
    ("analyze", 2, "ConfigError", "half_span"),
    ("design-asymmetric", 3, "NumericalFailure", "non-finite"),
])
def test_crystal_too_long_for_float_range_exits_quietly(command, code, error, message):
    """A 1e300 mm crystal squares tau beyond float range in gaussian_form, and
    design-asymmetric's temporal report then divides by a zero R_mumu: both
    used to print RuntimeWarnings before their one error line."""
    doc = assert_contract([command, "--material", "KDP", "--lambda-nm", "830",
                           "--length-mm", "1e300", "--pump-fwhm-nm", "5"], expected=(code,))
    assert doc["error"] == error and message in doc["message"]


@pytest.mark.parametrize("kind, center_nm", [
    ("gaussian", "1e300"), ("tophat", "1e170"), ("gaussian", "1e-300"), ("tophat", "1e-170"),
])
def test_filter_center_beyond_float_range_exits_2(exports, kind, center_nm):
    """The square of the filter center in um overflows, or underflows to 0, in
    domega_from_dlambda: it used to end in an OverflowError or ZeroDivisionError
    traceback (exit 1)."""
    doc = assert_contract(["schmidt", "--in", str(exports[0]), "--filter-kind", kind,
                           "--filter-center-nm", center_nm, "--filter-width-nm", "1"],
                          expected=(2,))
    assert doc["error"] == "ConfigError" and "float range" in doc["message"]


@pytest.mark.parametrize("center_nm, width_nm, code", [("830", "1e-200", 0), ("1e150", "1", 2)])
def test_gaussian_filter_square_beyond_float_range_is_quiet(exports, center_nm, width_nm, code):
    """Far outside a Gaussian filter's band ((omega - center) / width)^2 overflows
    and the transmission is 0: it used to print a RuntimeWarning first. A band
    narrower than the grid step passes the centre bin alone, a pure state; a band
    far from the grid passes nothing."""
    doc = assert_contract(["schmidt", "--in", str(exports[0]), "--filter-kind", "gaussian",
                           "--filter-center-nm", center_nm, "--filter-width-nm", width_nm],
                          expected=(code,))
    if code == 0:
        assert doc["purity"] == pytest.approx(1.0, abs=1e-12) and 0.0 < doc["herald_rate"] < 1.0
    else:
        assert doc["error"] == "ZeroHeraldRate"


@pytest.mark.parametrize("argv, code", [
    ("analyze --material KDP --lambda-nm 830 --length-mm 20 --pump-fwhm-nm 5 --grid-n 64 "
     "--span-factor 1e300", 2),
    ("design-assembly --crystal BBO --spacer CALCITE --lambda-nm 800 --n-crystals 3 "
     "--m 100000000000000000000 --grid-n 64", 0),
], ids=["analyze-span-factor", "design-assembly-m"])
def test_detunings_beyond_float_range_exit_quietly(tmp_path, argv, code):
    """A 1e300 span factor squares the pump detunings beyond float range in
    jsa.pump_envelope, before the wavenumbers refuse the grid; a 1e20 spacer
    quantum puts the interference phase's multiple of pi beyond int64 in
    upsilon. Both used to print RuntimeWarnings (the second before a report)."""
    doc = assert_contract([*argv.split(), "--out-dir", str(tmp_path)], expected=(code,))
    if code == 2:
        assert doc["error"] == "OutOfRange"
    else:
        assert len(doc["exports"]) == 2


@pytest.mark.parametrize("flag", ["--n-crystals", "--m"])
def test_stack_count_beyond_float_range_exits_2(flag):
    """A 400-digit --n-crystals or --m is an int that no float holds: the ridge
    width N |T_minus| or the spacer thickness m h_min used to end in an
    OverflowError traceback (exit 1)."""
    argv = {"--crystal": "BBO", "--spacer": "CALCITE", "--lambda-nm": "800",
            "--n-crystals": "10", "--m": "10", flag: "1" * 400}
    doc = assert_contract(["design-assembly", *(w for kv in argv.items() for w in kv)],
                          expected=(2,))
    assert doc["error"] == "ConfigError" and "float range" in doc["message"]



@pytest.mark.parametrize("argv", [
    "analyze --material KDP --lambda-nm 830 --length-mm 20 --pump-fwhm-nm 5 --grid-n 1048576",
    "design-assembly --crystal BBO --spacer CALCITE --lambda-nm 800 --n-crystals 10 --m 10 "
    "--grid-n 16384 --out-dir {tmp}/out",
], ids=["analyze", "design-assembly"])
def test_grid_n_above_the_cap_exits_2_before_allocating(monkeypatch, tmp_path, argv):
    """--grid-n had no upper bound: analyze --grid-n 1048576 reached its first
    n x n array (8 TiB) and raised MemoryError out of main (exit 1). The cap is
    checked before a grid or its export directory is made; the grid builders here
    raise if reached."""
    class GridBuilt(Exception):
        pass

    def refuse(*args, **kwargs):
        raise GridBuilt

    monkeypatch.setattr(cli, "default_grid", refuse)
    monkeypatch.setattr(cli, "central_ridge_grid", refuse)
    doc = assert_contract(argv.format(tmp=tmp_path).split(), expected=(2,))
    assert doc["error"] == "ConfigError"
    assert f"cap of {cli.MAX_GRID_N}" in doc["message"] and "GiB" in doc["message"]
    assert not (tmp_path / "out").exists()

# ------------------------------------------------------------- flag sweep

#: seed and call budget of the flag sweep; CI runs flag_sweep for seeds 1-10 too
FLAG_SEED, FLAG_CALLS = 20261020, 200
#: grid sizes the sweep may ask for: larger grids cost time and memory, not coverage
GRID_NS = ("32", "64", "128", "256")
#: a valid command line of each subcommand, which the sweep mutates; {tmp} is its directory
BASE_ARGV = {
    "materials": "--material BBO --ray e --theta-deg 29.18 --lambda-nm 800",
    "analyze": "--material KDP --lambda-nm 830 --length-mm 20 --pump-fwhm-nm 5 --grid-n 64",
    "schmidt": "--in {tmp}/jsa.bjsa",
    "design-gvm": "--material KTP --scheme qpm",
    "design-asymmetric": "--material KDP --lambda-nm 830 --length-mm 20 --pump-fwhm-nm 5",
    "design-assembly": "--crystal BBO --spacer CALCITE --lambda-nm 800 --n-crystals 10 --m 10 "
                       "--grid-n 64",
    "paper-repro": "--out-dir {tmp}/repro",
}
#: valid values of flags whose BASE_ARGV value alone would leave their range unswept
VALID = {
    "--material": ("KDP", "BBO", "KTP", "CALCITE", "kdp"), "--lambda-nm": ("830", "1566", "400"),
    "--length-mm": ("20", "2", "1e-3"), "--pump-fwhm-nm": ("5", "1.5", "0.01"),
    "--theta-deg": ("0", "41.5", "90"), "--pump-chirp-ps2": ("0", "0.015", "-0.2"),
    "--span-factor": ("4", "0.5", "20"), "--filter-center-nm": ("830", "825"),
    "--filter-width-nm": ("3", "0.5"), "--window-lo-um": ("1.3", "0.6"),
    "--window-hi-um": ("2.0", "1.6"), "--n-crystals": ("1", "3", "30"), "--m": ("1", "5"),
    "--max-modes": ("1", "4"), "--n-modes": ("1", "8"), "--grid-n": GRID_NS,
}
#: values every number flag is also given: boundaries, far ends of float range, wrong types
BOUNDARY = ("0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "5e-324", "1" + "0" * 300)
WRONG_TYPE = ("abc", "", "1,5", "0x10", "[1]", "None", "1" * 400)


def _path_values(option, tmp):
    """Paths a file flag is given: all inside tmp, so nothing is written elsewhere."""
    if option == "--in":
        return (f"{tmp}/jsa.bjsa", f"{tmp}/jsa.csv", f"{tmp}/jsi.csv", f"{tmp}/missing.bjsa", tmp,
                f"{tmp}/good.json")
    return (f"{tmp}/out", f"{tmp}/jsa.bjsa/under_a_file", tmp, f"{tmp}/out/modes.csv")


def _flag_value(action, rng, tmp):
    """A value for one flag: valid, a boundary or a wrong type. --grid-n stays at
    most 256 and no value asks for a large allocation."""
    option = action.option_strings[-1]
    if option in ("--in", "--out-dir", "--modes-csv"):
        pool = _path_values(option, tmp)
    elif action.choices:
        pool = (*action.choices, "ANGLE", "x", "")
    elif option in ("--material", "--crystal", "--spacer"):
        pool = (*VALID["--material"], "UNOBTAINIUM", "")
    elif option in VALID and rng.random() < 0.5:
        pool = VALID[option]
    else:
        pool = (*BOUNDARY, *WRONG_TYPE)
    value = pool[rng.integers(len(pool))]
    if option == "--grid-n" and value.lstrip("-").isdigit() and int(value) > 256:
        value = GRID_NS[-1]
    return value


def _config_file(flags, rng, tmp):
    """A --config file holding flags, or one of the broken files the parser refuses."""
    path = Path(tmp) / "flags.json"
    kind = rng.integers(10)
    if kind == 0:
        path.write_text("{not json")
    elif kind == 1:
        path.write_bytes(b"\xff\xfe")
    elif kind == 2:
        path.write_text(json.dumps([*flags]))
    elif kind == 3:
        path.write_text(json.dumps({"grid-n": [64], "material": None, "m": True}))
    elif kind == 4:
        return f"{tmp}/missing.json"
    else:
        cfg = {}
        for option, value in flags.items():
            try:  # a number as a JSON number where it reads as one
                number = json.loads(value)
            except ValueError:
                number = None
            cfg[option[2:]] = number if isinstance(number, (int, float)) else value
        path.write_text(json.dumps(cfg))
    return str(path)


def flag_sweep(seed, tmp):
    """FLAG_CALLS seeded command lines through assert_contract, each a subcommand's
    BASE_ARGV with one to three flags given drawn values or dropped, some of them
    moved into a --config file; paper-repro runs at most once. tmp is a directory
    that the sweep fills with the files it reads and writes. A broken contract
    raises AssertionError naming the seed and the command line.

    -h/--help is never drawn: argparse prints usage and exits 0 by design, which
    is not a report."""
    rng = np.random.default_rng(seed)
    tmp = str(tmp)
    assert_contract(["analyze", *BASE_ARGV["analyze"].split(), "--out-dir", tmp], expected=(0,))
    Path(tmp, "good.json").write_text(json.dumps({"lambda-nm": 830}))
    subparsers = next(a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    commands = sorted(subparsers.choices)
    for _ in range(FLAG_CALLS):
        command = commands[rng.integers(len(commands))]
        if command == "paper-repro":
            commands.remove(command)
        actions = [a for a in subparsers.choices[command]._actions
                   if a.option_strings and a.dest not in ("help", "config")]
        flags = dict(zip(*[iter(BASE_ARGV[command].format(tmp=tmp).split())] * 2))
        for j in rng.choice(len(actions), size=min(len(actions), rng.integers(1, 4)), replace=False):
            option = actions[j].option_strings[-1]
            if rng.random() < 0.15:
                flags.pop(option, None)
            else:
                flags[option] = _flag_value(actions[j], rng, tmp)
        argv = [command]
        if rng.random() < 0.3:
            moved = {k: flags.pop(k) for k in list(flags) if rng.random() < 0.5}
            argv += ["--config", _config_file(moved, rng, tmp)]
        for option, value in flags.items():
            argv += [f"{option}={value}"] if rng.random() < 0.5 else [option, value]
        try:
            assert_contract(argv)
        except Exception as exc:
            raise AssertionError(f"flag sweep seed {seed}: argv {argv}") from exc


def test_seeded_flag_sweep_keeps_the_exit_contract(tmp_path):
    flag_sweep(FLAG_SEED, tmp_path)
