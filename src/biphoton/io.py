"""Grid amplitude import/export: CSV tables and the compact BJSA binary format.

BJSA layout, all little-endian: 4-byte magic "BJSA", uint16 version, then
three float64 (n, omega0, half_span), then the n x n complex amplitude
row-major as interleaved (Re, Im) float64 pairs.

In both formats the header is the grid: each reader builds its FrequencyGrid
from the header's n, omega0 and half span alone (`_header_grid`), and checks the
data against that grid before it allocates anything from it.

Every CSV the package writes has one layout, produced by `write_table`: a
`# comment` line, a comma-separated header line, then rows of %.17g cells, so
each float64 parses back bit for bit. The grid tables (`grid_rows`) format each
axis value once per table and reuse the text in every row, so only the plane
values cost a %.17g conversion per grid point. There are three tables:

- amplitude (`write_csv`, `read_csv`): header `nu_s,nu_i,re_f,im_f`, one row
  per grid point with the signal detuning varying slowest; the comment holds
  `omega0_rad_ps=... half_span_rad_ps=... n=...`, and `read_csv` requires it.
  Rows may come in any order: each goes to the grid point its two detunings
  name, to 1e-6 of the step, and every point must appear exactly once.
- intensity (`jsi.csv`, `jti.csv`): header `<axis>_row,<axis>_col,intensity`
  with axis `nu_rad_ps` or `t_ps`, rows in the same order.
- modes (`schmidt --modes-csv`): header `nu_rad_ps` then
  `re_psi_j,im_psi_j,re_phi_j,im_phi_j` per Schmidt mode j, one row per
  detuning, modes as amplitude densities in 1/sqrt(rad/ps).
"""

import struct
import warnings

import numpy as np

from .errors import ConfigError
from .jsa import FrequencyGrid, JointAmplitude

MAGIC = b"BJSA"
VERSION = 1

_HEADER = struct.Struct("<4sH3d")
#: the amplitude CSV comment's fields, in _header_grid's order
_CSV_GRID_FIELDS = ("n", "omega0_rad_ps", "half_span_rad_ps")


def open_for_writing(path, mode, **kwargs):
    """open(path, mode, **kwargs) for output; an unwritable path is a ConfigError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_bjsa(ja, path):
    if not isinstance(ja.grid, FrequencyGrid):
        raise ConfigError("BJSA stores spectral-domain amplitudes only")
    g = ja.grid
    with open_for_writing(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, float(g.n), g.omega0, g.half_span))
        fh.write(np.ascontiguousarray(ja.values, dtype="<c16").data)


def _header_grid(n, omega0, half_span):
    """The FrequencyGrid a file header names: n, omega0 and half_span as floats or
    their text, n a whole number. Both readers take their grid from here alone."""
    n, omega0, half_span = float(n), float(omega0), float(half_span)
    if not n.is_integer():
        raise ConfigError(f"header n = {n} is not an integer")
    return FrequencyGrid(omega0=omega0, half_span=half_span, n=int(n))


def read_bjsa(path):
    with open(path, "rb") as fh:
        head, payload = fh.read(_HEADER.size), fh.read()
    if len(head) < _HEADER.size:
        raise ConfigError("truncated BJSA header")
    magic, version, *fields = _HEADER.unpack(head)
    if magic != MAGIC:
        raise ConfigError("not a BJSA file")
    if version != VERSION:
        raise ConfigError(f"unsupported BJSA version {version}")
    grid = _header_grid(*fields)
    if len(payload) != 16 * grid.n**2:
        raise ConfigError(f"BJSA payload has {len(payload)} bytes, not 16 n^2 for n = {grid.n}")
    data = np.frombuffer(payload, dtype="<c16")
    if not np.isfinite(data).all():
        raise ConfigError("BJSA payload holds a NaN or infinite sample")
    return JointAmplitude(grid, data.reshape(grid.n, grid.n).copy())


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
    if not isinstance(ja.grid, FrequencyGrid):
        raise ConfigError("CSV export is for spectral-domain amplitudes")
    g = ja.grid
    comment = f"omega0_rad_ps={float(g.omega0)!r} half_span_rad_ps={float(g.half_span)!r} n={g.n}"
    rows = grid_rows(g.axis(), ja.values.real, ja.values.imag)
    write_table(path, comment, "nu_s,nu_i,re_f,im_f", rows)


def read_csv(path):
    # a non-numeric cell or header value, a ragged row, or bytes that are not
    # UTF-8 all surface as ValueError
    try:
        with open(path, "r", encoding="utf-8") as fh:
            comment, header = fh.readline(), fh.readline()
            fields = dict(tok.split("=", 1) for tok in comment[1:].split() if "=" in tok)
            if not (comment.startswith("#") and all(k in fields for k in _CSV_GRID_FIELDS)):
                raise ConfigError("CSV does not open with its grid comment "
                                  "'# omega0_rad_ps=... half_span_rad_ps=... n=...'")
            grid = _header_grid(*(fields[k] for k in _CSV_GRID_FIELDS))
            if not header.lower().lstrip().startswith("nu_s"):
                raise ConfigError("CSV missing nu_s,nu_i,re_f,im_f header")
            with warnings.catch_warnings():
                # rows that are all blank: an error here, not loadtxt's warning
                warnings.simplefilter("error", UserWarning)
                data = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
    except (ValueError, UserWarning) as exc:
        raise ConfigError(f"malformed CSV: {exc}") from exc
    if data.shape[1] != 4:
        raise ConfigError("CSV must have exactly four columns")
    if not np.isfinite(data).all():
        raise ConfigError("CSV holds a NaN or infinite cell")
    n, h, step = grid.n, grid.half_span, grid.spacing
    if data.shape[0] != n * n:
        raise ConfigError(f"CSV has {data.shape[0]} rows, not those of a square {n} x {n} grid")
    # each row goes to the grid point its two detunings name, to 1e-6 of the step,
    # and every point takes exactly one row; clipped to the span, nu / step
    # cannot overflow, and +h rounds to index n
    nu = data[:, :2]
    k = np.minimum(np.rint(np.clip(nu, -h, h) / step).astype(np.intp) + n // 2, n - 1)
    cell = k[:, 0] * n + k[:, 1]
    if np.abs(grid.axis()[k] - nu).max() > 1e-6 * step or np.bincount(cell).max() > 1:
        raise ConfigError(f"CSV nu_s, nu_i columns are not the centred uniform {n} x {n} "
                          f"grid of half span {h!r} rad/ps")
    vals = np.empty(n * n, dtype=complex)
    vals[cell] = data[:, 2] + 1j * data[:, 3]
    return JointAmplitude(grid, vals.reshape(n, n))
