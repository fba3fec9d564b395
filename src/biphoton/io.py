"""Grid amplitude import/export: CSV tables and the compact BJSA binary format.

BJSA layout, all little-endian: 4-byte magic "BJSA", uint16 version, then
three float64 (n, omega0, half_span), then the n x n complex amplitude
row-major as interleaved (Re, Im) float64 pairs.

In both formats the header is the grid: each reader builds its FrequencyGrid
from the header's n, omega0 and half span alone (`_header_grid`), and checks the
data against that grid before it allocates anything from it.

Every CSV the package writes has one layout, produced by `write_table`: a
`# comment` line, a comma-separated header line, then rows of cells that are
byte for byte `"%.17g" % v`, so each float64 parses back bit for bit. One numpy
formatter, `_format_cells`, makes every cell: it rounds each value to 17 digits
with a double-double product and assembles the text by table lookups. Only
subnormal, NaN and infinite values, and values within 1e-6 of a 17-digit
decimal tie, go through Python's `%`. The grid tables (`grid_rows`) format each
axis value once per table and reuse the text in every row. `write_table` writes
the bytes in binary mode, a block of a few thousand values at a time. There are
three tables:

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

import functools
import struct
import warnings
from types import SimpleNamespace

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
    """`# comment`, the header, then each block of line bytes in turn, so large
    tables stream block by block. Lines end in a bare newline on every platform."""
    with open_for_writing(path, "wb") as fh:
        fh.write(f"# {comment}\n{header}\n".encode())
        fh.writelines(blocks)


def axis_rows(axis, cells):
    """One write_table block: line k holds axis[k], then the cells of row k, all %.17g."""
    table = np.column_stack([axis, cells])
    step = max(1, _BLOCK_CELLS // table.shape[1])
    return b"".join(_lines(*_format_cells(table[i:i + step])) for i in range(0, len(table), step))


def grid_rows(axis, *planes):
    """write_table blocks of whole grid rows j: line k holds axis[j], axis[k], then
    planes[0][j, k], planes[1][j, k], ... as %.17g cells.

    Each axis value is formatted once per table; a block holds a few thousand
    plane values, so memory does not grow with the grid."""
    n = axis.size
    head, head_w = _format_cells(axis)
    step = max(1, _BLOCK_CELLS // (n * len(planes)))
    for j in range(0, n, step):
        rows = slice(j, j + step)
        cells, cells_w = _format_cells(np.stack([p[rows] for p in planes], axis=-1))
        text = np.empty((len(cells), n, 2 + len(planes), _W), np.uint8)
        widths = np.empty(text.shape[:-1], np.intp)
        text[:, :, 0], widths[:, :, 0] = head[rows, None], head_w[rows, None]
        text[:, :, 1], widths[:, :, 1] = head, head_w
        text[:, :, 2:], widths[:, :, 2:] = cells, cells_w
        yield _lines(text.reshape(-1, 2 + len(planes), _W), widths.reshape(-1, 2 + len(planes)))


# ------------------------------------------------------------ %.17g cells
#
# A finite normal x is |x| = f 2^k with f in [0.5, 1). With 10^(16 - e) = (H + L) 2^s,
# H + L a double-double, Dekker's exact product f H = P + E gives
# y = |x| 10^(16 - e) = (P + E + f L) 2^(k + s) to within 1e-14 for y < 1e17. The
# decade e is the one with 1e16 <= y < 1e17, taken from the unrounded y: rounding
# first would lose a digit below a power of ten. The 17 digits are y rounded to an
# integer; a y that rounds up to 1e17 moves the decimal exponent, as %e does. A lane
# whose y lies within 1e-6 of a half-integer, where %.17g rounds an exact tie half to
# even, is formatted by Python's %, as are subnormal, NaN and infinite lanes. The
# cell text is then one gather from a per-cell source row (its digits and the
# constant characters) through the pattern of its sign, notation and kept digits.

#: columns of one cell's text: the widest %.17g cell, "-1.2345678901234567e-308",
#: then its separator
_W = 25
#: plane values per write_table block
_BLOCK_CELLS = 4096
#: decimal exponents -_E10 .. _E10 span every normal double, with one to spare
_E10 = 309
#: Dekker's splitter for 53-bit doubles, 2^27 + 1
_SPLIT = 134217729.0
#: a cell's source row: the leading digit at _LEAD, the other sixteen as four
#: 4-digit groups on the 4-byte words after it, then at _TAIL "e", the exponent
#: sign, three exponent digits, "-", ".", "0" and ","
_ROW, _LEAD, _TAIL = 32, 3, 20
_MINUS, _DOT, _ZERO, _COMMA = range(_TAIL + 5, _TAIL + 9)
#: notations: fixed for decimal exponents -4 .. 16 (form = exponent + 4), then
#: exponent notation with two or three exponent digits
_FORMS = 23


def _cell_pattern(negative, form, kept):
    """The source-row columns of one cell's text and separator."""
    digit = list(range(_LEAD, _LEAD + 17))
    text = [_MINUS] if negative else []
    e = form - 4
    if form >= 21:
        text += [digit[0], *([_DOT, *digit[1:kept]] if kept > 1 else []), _TAIL, _TAIL + 1]
        text += [_TAIL + 3, _TAIL + 4] if form == 21 else [_TAIL + 2, _TAIL + 3, _TAIL + 4]
    elif e < 0:
        text += [_ZERO, _DOT, *[_ZERO] * (-e - 1), *digit[:kept]]
    elif kept <= e + 1:
        text += [*digit[:kept], *[_ZERO] * (e + 1 - kept)]
    else:
        text += [*digit[:e + 1], _DOT, *digit[e + 1:kept]]
    return text + [_COMMA]


@functools.cache
def _tables():
    """The formatter's constant tables, built on first use: importing the package
    builds none."""
    pow10 = []
    for e in range(-_E10, _E10 + 1):
        # 10^(16 - e) = (a / b) 2^s with a / b in [0.5, 1), from exact integers
        a, b = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        s = a.bit_length() - b.bit_length()
        a, b = (a, b << s) if s >= 0 else (a << -s, b)
        if a >= b:
            s, b = s + 1, b << 1
        hi = a / b
        hn, hd = hi.as_integer_ratio()
        lo = (a * hd - hn * b) / (b * hd)
        # Dekker's split of hi, for the exact product in _scaled
        c = _SPLIT * hi
        hi1 = c - (c - hi)
        pow10.append((hi, hi1, hi - hi1, lo, s))
    pow10 = np.array(pow10).T
    groups = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    nonzero = groups != 0
    # digits up to the group's last nonzero one; an all-zero group never sets the count
    kept = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), -64)
    exponents = range(-_E10, _E10 + 1)
    tails = b"".join(b"e%+04d-.0,   " % e for e in exponents)
    forms = [e + 4 if -4 <= e < 17 else 21 if abs(e) < 100 else 22 for e in exponents]
    patterns = [
        _cell_pattern(negative, form, digits)
        for negative in (0, 1) for form in range(_FORMS) for digits in range(1, 18)
    ]
    pattern = np.zeros((len(patterns), _W), np.int32)
    for row, p in zip(pattern, patterns):
        row[: len(p)] = p
    return SimpleNamespace(
        pow10=(*pow10[:4], pow10[4].astype(np.int32)),
        quads=np.ascontiguousarray(groups + ord("0"), np.uint8).view(np.uint32).ravel(),
        kept=kept,
        tails=np.frombuffer(tails, np.uint32).reshape(len(exponents), 3),
        form=np.array(forms) * 17,
        pattern=pattern,
        width=np.array([len(p) - 1 for p in patterns], np.intp),
        keep=np.arange(_W) <= np.arange(_W)[:, None],
    )


def _format_cells(x):
    """(text, widths): cell i of the float array x is text[i, :widths[i]], the bytes
    of "%.17g" % x[i], followed by a comma; text has a last axis of _W columns."""
    t = _tables()
    v = np.ascontiguousarray(x, dtype=float).ravel()
    ax = np.abs(v)
    zero = ax == 0
    slow = ~np.isfinite(ax) | (ax < np.finfo(float).tiny) & ~zero
    ax[zero | slow] = 1.0
    f, k = np.frexp(ax)
    e = np.floor(np.log10(ax)).astype(np.int64)
    y, r = _scaled(t.pow10, f, k, e)
    # log10 is within a decade: one step fixes it; a y within 0.01 below 1e16 gives
    # the same 17 digits in either decade
    step = ((y - 1e17) + r >= 0).astype(np.int64) - ((y - 1e16) + r < -0.01)
    if step.any():
        e += step
        y, r = _scaled(t.pow10, f, k, e)
    units = np.rint(r)
    slow |= np.abs(np.abs(r - units) - 0.5) < 1e-6
    d = y.astype(np.int64) + units.astype(np.int64)
    up = d == 10**17
    d[up] = 10**16
    e += up
    d[zero] = 0
    e[zero] = 0

    src = np.empty((v.size, _ROW), np.uint8)
    words = src.view(np.uint32)
    kept = np.ones(v.size, np.intp)
    for j in range(4, 0, -1):
        q = d // 10000
        g = d - q * 10000
        words[:, j] = t.quads.take(g)
        np.maximum(kept, t.kept.take(g) + (4 * j - 3), out=kept)
        d = q
    src[:, _LEAD] = d + ord("0")
    words[:, _TAIL // 4:] = t.tails.take(e + _E10, axis=0)
    key = t.form.take(e + _E10) + np.signbit(v) * (_FORMS * 17) + kept - 1
    index = t.pattern.take(key, axis=0)
    index += np.arange(0, v.size * _ROW, _ROW, dtype=np.int32)[:, None]
    text = src.ravel().take(index)
    widths = t.width.take(key)
    for i in np.flatnonzero(slow):
        cell = b"%.17g," % v[i]
        text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
        widths[i] = len(cell) - 1
    return text.reshape(*np.shape(x), _W), widths.reshape(np.shape(x))


def _scaled(pow10, f, k, e):
    """|x| 10^(16 - e) as an unevaluated sum y + r, for |x| = f 2^k."""
    i = e + _E10
    hi, hi1, hi2, lo, s = (a.take(i) for a in pow10)
    p = f * hi
    c = _SPLIT * f
    f1 = c - (c - f)
    f2 = f - f1
    err = ((f1 * hi1 - p) + f1 * hi2 + f2 * hi1) + f2 * hi2
    return np.ldexp(p, k + s), np.ldexp(err + f * lo, k + s)


def _lines(text, widths):
    """The bytes of lines of cells, from text (lines, cells, _W) and widths
    (lines, cells) as _format_cells gives them: the last cell of a line ends it."""
    text[np.arange(len(text)), -1, widths[:, -1]] = ord("\n")
    return text[_tables().keep.take(widths, axis=0)].tobytes()


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
