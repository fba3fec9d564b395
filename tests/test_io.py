"""Round trips and failure modes of the CSV and BJSA grid formats."""

from __future__ import annotations

import math
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import biphoton as bp
from biphoton import io
from biphoton.cli import main
from biphoton.jsa import joint_temporal_intensity

from conftest import correlated_gaussian


def _reference_table(path, comment, header, blocks):
    """The one-%-per-block writer the package used before its grid tables formatted
    each axis value once: every cell of every 2-D float block goes through %.17g."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n{header}\n")
        for block in blocks:
            rows, cols = block.shape
            fh.write((",".join(["%.17g"] * cols) + "\n") * rows % tuple(block.ravel().tolist()))


def _reference_grid_rows(axis, *planes):
    for j, a in enumerate(axis):
        yield np.column_stack([np.full(axis.size, a), axis, *(p[j] for p in planes)])


def _sample_amplitude(n=64):
    return correlated_gaussian(
        20.0, 10.0, n=n, phase=lambda vs, vi: 0.01 * vs * vs - 0.02 * vs * vi
    )


def test_bjsa_round_trip_is_bit_exact(tmp_path):
    ja = _sample_amplitude()
    path = tmp_path / "amp.bjsa"
    io.write_bjsa(ja, path)
    back = io.read_bjsa(path)
    assert back.grid.n == ja.grid.n
    assert back.grid.omega0 == ja.grid.omega0
    assert back.grid.half_span == ja.grid.half_span
    assert isinstance(back.grid, bp.FrequencyGrid)
    assert np.array_equal(back.values, ja.values)


def test_csv_round_trip_is_exact(tmp_path):
    ja = _sample_amplitude(n=32)
    path = tmp_path / "amp.csv"
    io.write_csv(ja, path)
    back = io.read_csv(path)
    assert back.grid.n == ja.grid.n
    assert back.grid.omega0 == ja.grid.omega0
    assert back.grid.half_span == ja.grid.half_span
    assert np.array_equal(back.values, ja.values)


def test_csv_rows_in_any_order_read_back_the_same_grid(tmp_path):
    ja = _sample_amplitude(n=32)
    path = tmp_path / "amp.csv"
    io.write_csv(ja, path)
    comment, header, *rows = path.read_text().splitlines()
    n = ja.grid.n
    shuffled = [rows[k] for k in np.random.default_rng(3).permutation(n * n)]
    nu_i_slowest = [rows[j * n + k] for k in range(n) for j in range(n)]
    for order in (shuffled, nu_i_slowest):
        path.write_text("\n".join([comment, header, *order]) + "\n")
        back = io.read_csv(path)
        assert back.grid == ja.grid
        assert np.array_equal(back.values, ja.values)


def test_csv_grid_comes_from_the_header_alone(tmp_path):
    """The comment line is the grid: without it, or with a field missing, the file
    is refused, and rows that do not sample the half span it names are refused
    even when they would form some other centred uniform grid."""
    ja = _sample_amplitude(n=32)
    path = tmp_path / "amp.csv"
    io.write_csv(ja, path)
    comment, rest = path.read_text().split("\n", 1)
    h = repr(float(ja.grid.half_span))
    for head, message in (
        (None, "grid comment"),
        (comment.replace(" n=32", ""), "grid comment"),
        (comment.replace(h, repr(2.0 * float(h))), "not the centred uniform"),
    ):
        path.write_text(rest if head is None else f"{head}\n{rest}")
        with pytest.raises(bp.ConfigError, match=message):
            io.read_csv(path)


def test_csv_header_fields_are_numeric(tmp_path):
    ja = _sample_amplitude(n=32)
    assert isinstance(ja.grid.half_span, np.floating)
    path = tmp_path / "amp.csv"
    io.write_csv(ja, path)
    fields = path.read_text().splitlines()[0].lstrip("#").split()
    assert [f.split("=", 1)[0] for f in fields] == ["omega0_rad_ps", "half_span_rad_ps", "n"]
    for field in fields:
        float(field.split("=", 1)[1])


def test_writers_refuse_temporal_domain(tmp_path):
    jti = joint_temporal_intensity(_sample_amplitude())
    with pytest.raises(bp.ConfigError):
        io.write_bjsa(jti, tmp_path / "t.bjsa")
    with pytest.raises(bp.ConfigError):
        io.write_csv(jti, tmp_path / "t.csv")


def test_bjsa_rejects_wrong_magic(tmp_path):
    ja = _sample_amplitude(n=32)
    path = tmp_path / "bad.bjsa"
    io.write_bjsa(ja, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XJSA"
    path.write_bytes(bytes(raw))
    with pytest.raises(bp.ConfigError, match="not a BJSA"):
        io.read_bjsa(path)


def test_bjsa_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.bjsa"
    path.write_bytes(b"BJSA\x01")
    with pytest.raises(bp.ConfigError, match="truncated"):
        io.read_bjsa(path)


def test_bjsa_rejects_unknown_version(tmp_path):
    ja = _sample_amplitude(n=32)
    g = ja.grid
    path = tmp_path / "v9.bjsa"
    with open(path, "wb") as fh:
        fh.write(io._HEADER.pack(io.MAGIC, 9, float(g.n), g.omega0, g.half_span))
        fh.write(np.ascontiguousarray(ja.values, dtype="<c16").tobytes())
    with pytest.raises(bp.ConfigError, match="version"):
        io.read_bjsa(path)


def test_bjsa_rejects_payload_size_mismatch(tmp_path):
    ja = _sample_amplitude(n=32)
    path = tmp_path / "cut.bjsa"
    io.write_bjsa(ja, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(bp.ConfigError, match="payload"):
        io.read_bjsa(path)


#: a valid grid comment line, for hand-written CSV inputs
GRID_COMMENT = "# omega0_rad_ps=2000 half_span_rad_ps=10 n=32\n"


def test_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text(GRID_COMMENT + "1.0,2.0,3.0,4.0\n")
    with pytest.raises(bp.ConfigError, match="header"):
        io.read_csv(path)


def test_csv_rejects_non_square_grid(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        GRID_COMMENT +
        "nu_s,nu_i,re_f,im_f\n"
        "-1.0,-1.0,0.1,0.0\n"
        "-1.0,1.0,0.2,0.0\n"
        "1.0,-1.0,0.3,0.0\n"
    )
    with pytest.raises(bp.ConfigError, match="square"):
        io.read_csv(path)


def test_csv_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "threecol.csv"
    path.write_text(GRID_COMMENT + "nu_s,nu_i,re_f,im_f\n0.0,0.0,1.0\n1.0,1.0,2.0\n")
    with pytest.raises(bp.ConfigError, match="four columns"):
        io.read_csv(path)


@pytest.mark.parametrize("n_header", [float("nan"), float("inf"), 32.5])
def test_bjsa_header_n_must_be_an_integer(tmp_path, n_header):
    path = tmp_path / "bad_n.bjsa"
    head = struct.pack("<4sH3d", b"BJSA", 1, n_header, bp.omega_from_lambda(0.83), 10.0)
    path.write_bytes(head + np.ones(32 * 32, dtype="<c16").tobytes())
    with pytest.raises(bp.ConfigError, match="not an integer"):
        io.read_bjsa(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bjsa_rejects_non_finite_samples(tmp_path, bad):
    ja = _sample_amplitude(n=32)
    ja.values[3, 5] = bad
    path = tmp_path / "bad.bjsa"
    io.write_bjsa(ja, path)
    with pytest.raises(bp.ConfigError, match="NaN or infinite"):
        io.read_bjsa(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_csv_rejects_non_finite_cells(tmp_path, bad):
    ja = _sample_amplitude(n=32)
    ja.values[3, 5] = bad
    path = tmp_path / "bad.csv"
    io.write_csv(ja, path)
    with pytest.raises(bp.ConfigError, match="NaN or infinite"):
        io.read_csv(path)


def _assert_matches_reference(path, blocks):
    """The file's bytes equal the reference writer's on its own comment and header."""
    comment, header = path.read_text().splitlines()[:2]
    ref = path.with_name("ref_" + path.name)
    _reference_table(ref, comment[2:], header, blocks)
    assert path.read_bytes() == ref.read_bytes(), path.name


@pytest.mark.parametrize("n", [32, 256])
def test_exports_match_reference_writer(tmp_path, capsys, n):
    out = tmp_path / "out"
    size = ["--grid-n", str(n), "--out-dir", str(out)]
    kdp = ["--material", "KDP", "--lambda-nm", "830", "--length-mm", "20", "--pump-fwhm-nm", "5"]
    assert main(["analyze", *kdp, *size]) == 0
    assert main(["schmidt", "--in", str(out / "jsa.bjsa"), "--modes-csv", str(out / "modes.csv")]) == 0
    stack = ["--crystal", "BBO", "--spacer", "CALCITE", "--lambda-nm", "800",
             "--n-crystals", "10", "--m", "10"]
    assert main(["design-assembly", *stack, *size]) == 0
    capsys.readouterr()

    ja = io.read_bjsa(out / "jsa.bjsa")
    jti = joint_temporal_intensity(ja)
    stack_ja = io.read_bjsa(out / "assembly_jsa.bjsa")
    spectrum = bp.schmidt_decompose(ja)
    k = min(4, spectrum.lambdas.size)
    modes = np.stack([spectrum.signal_modes[:, :k], spectrum.idler_modes[:, :k]], axis=2)
    cells = (modes / np.sqrt(ja.grid.spacing)).view(float).reshape(n, 4 * k)
    axis = ja.grid.axis()
    expected = {
        "jsa.csv": _reference_grid_rows(axis, ja.values.real, ja.values.imag),
        "jsi.csv": _reference_grid_rows(axis, np.abs(ja.values) ** 2),
        "jti.csv": _reference_grid_rows(jti.grid.axis(), np.abs(jti.values) ** 2),
        "assembly_jsa.csv": _reference_grid_rows(
            stack_ja.grid.axis(), stack_ja.values.real, stack_ja.values.imag
        ),
        "modes.csv": [np.column_stack([axis, cells])],
    }
    for name, blocks in expected.items():
        _assert_matches_reference(out / name, blocks)


def test_special_cells_match_reference_writer(tmp_path):
    """NaN, infinities, signed zeros, subnormals and exponent-form cells, in the
    plane values and in the axis, come out as the reference writer's bytes."""
    ja = _sample_amplitude(n=32)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300,
               -1.2345678901234567e-20, 6.02214076e23, 1e16, 0.1, 1 / 3]
    ja.values.real.ravel()[: len(special)] = special
    ja.values.imag.ravel()[-len(special):] = special[::-1]
    path = tmp_path / "special.csv"
    io.write_csv(ja, path)
    _assert_matches_reference(path, _reference_grid_rows(ja.grid.axis(), ja.values.real, ja.values.imag))

    axis = ja.grid.axis().copy()
    axis[: len(special)] = special
    path = tmp_path / "special_axis.csv"
    io.write_table(path, "c", "x_row,x_col,intensity", io.grid_rows(axis, ja.values.real))
    _assert_matches_reference(path, _reference_grid_rows(axis, ja.values.real))

    path = tmp_path / "special_modes.csv"
    io.write_table(path, "c", "x,a,b", [io.axis_rows(axis, ja.values.real[:, :2])])
    _assert_matches_reference(path, [np.column_stack([axis, ja.values.real[:, :2]])])


# ------------------------------------------------------------ %.17g cells

#: seed and size of the tier-1 formatter comparison; CI runs seeds 1-10 at 10^6 values
FORMAT_SEED, FORMAT_VALUES = 20261022, 300_000

#: (value, "%.17g" % value) for the cases the fast path must get exactly right
PINNED_CELLS = [
    (2.0**50 + 0.25, "1125899906842624.2"),  # exact 17-digit ties round half to even
    (2.0**50 + 0.75, "1125899906842624.8"),
    (1e-299, "9.9999999999999999e-300"),  # the double is below 10^-299
    (1e98, "1e+98"),  # below 10^98, its 17 digits round up into the next decade
    (-1e220, "-1e+220"),
    (1e-5, "1.0000000000000001e-05"),
    (1e100, "1e+100"),
    (1e-308, "9.9999999999999991e-309"),
    (2.2250738585072014e-308, "2.2250738585072014e-308"),
    (5e-324, "4.9406564584124654e-324"),
    (-2.5e-310, "-2.5000000000000171e-310"),
    (0.0001, "0.0001"),
    (-0.00012345678901234567, "-0.00012345678901234567"),
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
    (0.1, "0.10000000000000001"),
    (0.0, "0"),
    (-0.0, "-0"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
]


def random_bit_patterns(seed, count):
    """count float64 from seeded random 64-bit patterns: every exponent equally
    likely, so subnormals, NaNs and infinities come up among them."""
    return np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64).view(float)


def near_ties():
    """Doubles x = m 2^e in [10^(q + 16), 10^(q + 17)) with x mod 10^q equal to
    10^q / 2 + 2^(q - 1) t for a small odd t: x / 10^q lies t / (2 5^q) from a
    17-digit decimal tie, closer than the formatter's double-double product resolves,
    so only the exact formatting of such lanes gets their last digit right."""
    ties = []
    for q in range(22, 60):
        five = 5**q
        lo_x, hi_x = 10 ** (q + 16), 10 ** (q + 17)
        for e in range(lo_x.bit_length() - 54, hi_x.bit_length() - 52):
            lo, hi = max(2**52, -(-lo_x // 2**e)), min(2**53, -(-hi_x // 2**e))
            for t in (-3, -1, 1, 3):
                m = t * pow(2, q - 1 - e, five) % five  # m 2^(e - q + 1) = t mod 5^q
                m += max(0, -(-(lo - m) // five)) * five
                if m < hi:
                    ties.append(math.ldexp(m, e))
    return ties


def format_disagreement(values):
    """(value, cell, "%.17g" % value) for the first value whose CSV cell differs
    from Python's, or None when every cell agrees."""
    cells = io.axis_rows(values, np.empty((values.size, 0))).split(b"\n")
    assert len(cells) == values.size + 1 and cells[-1] == b""
    for v, cell in zip(values.tolist(), cells):
        if cell != b"%.17g" % v:
            return v, cell, b"%.17g" % v
    return None


def test_cells_are_percent_17g():
    """Every CSV cell is "%.17g" % value byte for byte: seeded random bit patterns,
    every power of ten in float range with the double on either side of it (which
    holds every exponent width), values within 1e-15 of a 17-digit tie, and the
    pinned ties, decade round-ups and specials."""
    assert Fraction(1e98) < 10**98 and Fraction(1e-299) < Fraction(1, 10**299)
    values, texts = zip(*PINNED_CELLS)
    assert ["%.17g" % v for v in values] == list(texts)
    ties = near_ties()
    for x in ties:
        gap = abs(Fraction(x) / 10 ** (math.floor(math.log10(x)) - 16) % 1 - Fraction(1, 2))
        assert 0 < gap < 1e-15
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), ties])
    values = np.concatenate([random_bit_patterns(FORMAT_SEED, FORMAT_VALUES), near, -near, values])
    assert format_disagreement(values) is None


def test_importing_the_package_builds_no_formatter_table():
    """The formatter's tables are built on the first CSV write, so importing the
    package, and with it a cold CLI start, costs what it did without them."""
    code = "import biphoton, biphoton.cli; print(biphoton.io._tables.cache_info().misses)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def _rewrite_axes(path, nu_s, nu_i):
    rows = np.loadtxt(path, delimiter=",", skiprows=2)
    rows[:, 0] = nu_s(rows[:, 0])
    rows[:, 1] = nu_i(rows[:, 1])
    lines = path.read_text().splitlines(keepends=True)[:2]
    path.write_text("".join(lines) + "".join("%.17g,%.17g,%.17g,%.17g\n" % tuple(r) for r in rows))


def _duplicate_one_pair(path):
    lines = path.read_text().splitlines(keepends=True)
    # row 3 is (nu_s[0], nu_i[1]); make it a second (nu_s[0], nu_i[0])
    lines[3] = ",".join(lines[2].split(",")[:2] + lines[3].split(",")[2:])
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: _rewrite_axes(p, lambda s: s + 1.0, lambda i: i + 1.0),
        lambda p: _rewrite_axes(p, lambda s: s, lambda i: 3.0 * i),
        lambda p: _rewrite_axes(p, lambda s: s + 1e-5 * s**3, lambda i: i + 1e-5 * i**3),
        _duplicate_one_pair,
    ],
    ids=["shifted", "nu_i-3x", "non-uniform", "duplicate-pair"],
)
def test_csv_rejects_axes_off_the_grid(tmp_path, capsys, corrupt):
    path = tmp_path / "amp.csv"
    io.write_csv(_sample_amplitude(n=32), path)
    corrupt(path)
    with pytest.raises(bp.ConfigError, match="not the centred uniform"):
        io.read_csv(path)
    assert main(["schmidt", "--in", str(path)]) == 2
    assert "not the centred uniform" in capsys.readouterr().err
