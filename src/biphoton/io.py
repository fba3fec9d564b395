"""Grid amplitude import/export: CSV tables and the compact BJSA binary format.

BJSA layout, all little-endian: 4-byte magic "BJSA", uint16 version, then
three float64 (n, omega0, half_span), then the n x n complex amplitude
row-major as interleaved (Re, Im) float64 pairs.

Every CSV the package writes has one layout, produced by `write_table`: a
`# comment` line, a comma-separated header line, then rows of %.17g cells, so
each float64 parses back bit for bit. There are three tables:

- amplitude (`write_csv`, `read_csv`): header `nu_s,nu_i,re_f,im_f`, one row
  per grid point with the signal detuning varying slowest; the comment holds
  `omega0_rad_ps=... half_span_rad_ps=... n=...`.
- intensity (`jsi.csv`, `jti.csv`): header `<axis>_row,<axis>_col,intensity`
  with axis `nu_rad_ps` or `t_ps`, rows in the same order.
- modes (`schmidt --modes-csv`): header `nu_rad_ps` then
  `re_psi_j,im_psi_j,re_phi_j,im_phi_j` per Schmidt mode j, one row per
  detuning, modes as amplitude densities in 1/sqrt(rad/ps).
"""

import struct

import numpy as np

from .errors import ConfigError
from .jsa import FrequencyGrid, JointAmplitude

MAGIC = b"BJSA"
VERSION = 1

_HEADER = struct.Struct("<4sH3d")


def write_bjsa(ja, path):
    if ja.domain != "spectral":
        raise ConfigError("BJSA stores spectral-domain amplitudes only")
    g = ja.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, float(g.n), g.omega0, g.half_span))
        fh.write(np.ascontiguousarray(ja.values, dtype="<c16").tobytes())


def read_bjsa(path):
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ConfigError("truncated BJSA header")
        magic, version, n_f, omega0, half_span = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ConfigError("not a BJSA file")
        if version != VERSION:
            raise ConfigError(f"unsupported BJSA version {version}")
        if not n_f.is_integer():
            raise ConfigError(f"BJSA header n = {n_f} is not an integer")
        n = int(n_f)
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != n * n:
        raise ConfigError(f"BJSA payload has {data.size} samples, expected {n * n}")
    grid = FrequencyGrid(omega0=omega0, half_span=half_span, n=n)
    return JointAmplitude(grid, data.reshape(n, n).copy(), domain="spectral")


def write_table(path, comment, header, blocks):
    """`# comment`, the header, then each 2-D float block's rows in C order as %.17g
    cells, one % on a row template per block, so large tables stream block by block."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    with fh:
        fh.write(f"# {comment}\n{header}\n")
        for block in blocks:
            rows, cols = block.shape
            fh.write((",".join(["%.17g"] * cols) + "\n") * rows % tuple(block.ravel().tolist()))


def grid_rows(axis, *planes):
    """write_table blocks (row axis, column axis, *planes[j]), one per grid row j."""
    for j, a in enumerate(axis):
        yield np.column_stack([np.full(axis.size, a), axis, *(p[j] for p in planes)])


def write_csv(ja, path):
    """Four columns (nu_s, nu_i, Re f, Im f) at 17 significant digits."""
    if ja.domain != "spectral":
        raise ConfigError("CSV export is for spectral-domain amplitudes")
    g = ja.grid
    comment = f"omega0_rad_ps={float(g.omega0)!r} half_span_rad_ps={float(g.half_span)!r} n={g.n}"
    rows = grid_rows(g.axis(), ja.values.real, ja.values.imag)
    write_table(path, comment, "nu_s,nu_i,re_f,im_f", rows)


def read_csv(path):
    omega0 = 0.0
    # a non-numeric cell or header value, a ragged row, or bytes that are not
    # UTF-8 all surface as ValueError
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if first.startswith("#"):
                for tok in first[1:].split():
                    if tok.startswith("omega0_rad_ps="):
                        omega0 = float(tok.split("=", 1)[1])
                header = fh.readline()
            else:
                header = first
            if not header.lower().lstrip().startswith("nu_s"):
                raise ConfigError("CSV missing nu_s,nu_i,re_f,im_f header")
            data = np.loadtxt(fh, delimiter=",", dtype=float)
    except ValueError as exc:
        raise ConfigError(f"malformed CSV: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 4:
        raise ConfigError("CSV must have exactly four columns")
    nu_s = np.unique(data[:, 0])
    n = nu_s.size
    if n * n != data.shape[0]:
        raise ConfigError("CSV rows do not form a square grid")
    # the canonical axis starts at exactly -half_span, so -nu_min restores the
    # stored width bit for bit; 0.5 n (nu[1] - nu[0]) would pick up ulp noise
    grid = FrequencyGrid(omega0=omega0, half_span=-float(nu_s[0]), n=n)
    order = np.lexsort((data[:, 1], data[:, 0]))
    vals = (data[order, 2] + 1j * data[order, 3]).reshape(n, n)
    return JointAmplitude(grid, vals, domain="spectral")
