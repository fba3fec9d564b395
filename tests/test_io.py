"""Round trips and failure modes of the CSV and BJSA grid formats."""

from __future__ import annotations

import struct

import numpy as np
import pytest

import biphoton as bp
from biphoton import io
from biphoton.jsa import joint_temporal_intensity

from conftest import correlated_gaussian


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
    assert back.domain == "spectral"
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


def test_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("1.0,2.0,3.0,4.0\n")
    with pytest.raises(bp.ConfigError, match="header"):
        io.read_csv(path)


def test_csv_rejects_non_square_grid(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "nu_s,nu_i,re_f,im_f\n"
        "-1.0,-1.0,0.1,0.0\n"
        "-1.0,1.0,0.2,0.0\n"
        "1.0,-1.0,0.3,0.0\n"
    )
    with pytest.raises(bp.ConfigError, match="square"):
        io.read_csv(path)


def test_csv_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "threecol.csv"
    path.write_text("nu_s,nu_i,re_f,im_f\n0.0,0.0,1.0\n1.0,1.0,2.0\n")
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
