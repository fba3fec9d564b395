"""Grid amplitude import/export: CSV tables and the compact BJSA binary format.

BJSA layout, all little-endian: 4-byte magic "BJSA", uint16 version, then
three float64 (n, omega0, half_span), then the n x n complex amplitude
row-major as interleaved (Re, Im) float64 pairs.

Every CSV the package writes has one layout, produced by `write_table`: a
`# comment` line, a comma-separated header line, then rows of %.17g cells, so
each float64 parses back bit for bit. The grid tables (`grid_rows`) format each
axis value once per table and reuse the text in every row, so only the plane
values cost a %.17g conversion per grid point. There are three tables:

- amplitude (`write_csv`, `read_csv`): header `nu_s,nu_i,re_f,im_f`, one row
  per grid point with the signal detuning varying slowest; the comment holds
  `omega0_rad_ps=... half_span_rad_ps=... n=...`. `read_csv` accepts rows in any
  order but requires both detuning columns to sample the centred uniform grid
  to 1e-6 of its step.
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


def open_for_writing(path, mode, **kwargs):
    """open(path, mode, **kwargs) for output; an unwritable path is a ConfigError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_bjsa(ja, path):
    if ja.domain != "spectral":
        raise ConfigError("BJSA stores spectral-domain amplitudes only")
    g = ja.grid
    with open_for_writing(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, float(g.n), g.omega0, g.half_span))
        fh.write(np.ascontiguousarray(ja.values, dtype="<c16").data)


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
    if not np.isfinite(data).all():
        raise ConfigError("BJSA payload holds a NaN or infinite sample")
    grid = FrequencyGrid(omega0=omega0, half_span=half_span, n=n)
    return JointAmplitude(grid, data.reshape(n, n).copy(), domain="spectral")


def write_table(path, comment, header, blocks):
    """`# comment`, the header, then each text block in turn, so large tables stream
    block by block. Lines end in a bare newline on every platform."""
    with open_for_writing(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n{header}\n")
        fh.writelines(blocks)


def axis_rows(axis, cells):
    """One write_table block: line k holds axis[k], then the cells of row k, all %.17g."""
    tail = ",%.17g" * cells.shape[1] + "\n"
    return "".join(["%.17g" % v + tail for v in axis.tolist()]) % tuple(cells.ravel().tolist())


def grid_rows(axis, *planes):
    """write_table blocks, one per grid row j: line k holds axis[j], axis[k], then
    planes[0][j, k], planes[1][j, k], ... as %.17g cells.

    Each axis value is formatted once per table. The column cells sit in one line
    template; a grid row joins the template on its row cell and applies one % to
    its own plane values."""
    cells = ["%.17g" % v for v in axis.tolist()]
    tail = ",%.17g" * len(planes) + "\n"
    template = ["", *(c + tail for c in cells)]
    for cell, *values in zip(cells, *planes):
        yield (cell + ",").join(template) % tuple(np.column_stack(values).ravel().tolist())


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
    if not np.isfinite(data).all():
        raise ConfigError("CSV holds a NaN or infinite cell")
    nu_s = np.unique(data[:, 0])
    n = nu_s.size
    if n * n != data.shape[0]:
        raise ConfigError("CSV rows do not form a square grid")
    # the canonical axis starts at exactly -half_span, so -nu_min restores the
    # stored width bit for bit; 0.5 n (nu[1] - nu[0]) would pick up ulp noise
    grid = FrequencyGrid(omega0=omega0, half_span=-float(nu_s[0]), n=n)
    data = data[np.lexsort((data[:, 1], data[:, 0]))]
    # both columns must sample that grid to 1e-6 of its step, nu_s in blocks of n
    # and nu_i repeating within each block; package-written files match it exactly
    axis = grid.axis()
    tol = 1e-6 * grid.spacing
    if (
        np.abs(data[:, 0].reshape(n, n) - axis[:, None]).max() > tol
        or np.abs(data[:, 1].reshape(n, n) - axis).max() > tol
    ):
        raise ConfigError(
            f"CSV nu_s, nu_i columns are not the centred uniform {n} x {n} grid "
            f"of half span {grid.half_span!r} rad/ps"
        )
    vals = (data[:, 2] + 1j * data[:, 3]).reshape(n, n)
    return JointAmplitude(grid, vals, domain="spectral")
