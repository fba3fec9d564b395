"""Spans around the calls into each layer of `biphoton`, kept in memory.

The package itself is not instrumented: `Tracer.install` replaces each public
function named in `FUNCTIONS` by a timing wrapper at every module attribute
that is bound to it (a function imported by name into several modules is
wrapped at each binding), and `uninstall` puts the originals back. A span's
self time is its duration minus the time covered by its direct child spans.
"""

import functools
import os
import sys
import time
from collections import defaultdict

#: (module, function) pairs whose calls are timed
FUNCTIONS = [
    ("cli", "main"),
    ("materials", "wavenumber"),
    ("materials", "inverse_group_velocity"),
    ("materials", "phasematching_angle"),
    ("jsa", "jsa_grid"),
    ("jsa", "joint_temporal_intensity"),
    ("jsa", "intensity_correlation"),
    ("schmidt", "schmidt_decompose"),
    ("schmidt", "heralded_state"),
    ("gvm_design", "gvm_wavelength_search"),
    ("gvm_design", "decorrelation_range"),
    ("gvm_design", "asymmetric_design"),
    ("assembly", "design_assembly"),
    ("assembly", "assembly_jsa_grid"),
    ("io", "write_bjsa"),
    ("io", "read_bjsa"),
    ("io", "write_csv"),
    ("io", "read_csv"),
]

#: spans kept verbatim for the trace file; later spans are only aggregated
MAX_KEPT_SPANS = 50_000

#: subcommands whose reports carry Schmidt metrics
SCHMIDT_COMMANDS = ("analyze", "schmidt")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self.span_count = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.schmidt_requests = 0
        self.kept_mode_fractions = []
        self.request = None
        self._stack = []
        self._bindings = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.span_count
            self.span_count += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((span_id, parent, self.request, name, t0, t0 + dt))
            self._after(name, args, result)
            return result

        return wrapper

    def _after(self, name, args, result):
        """Work counters measured where the work happens."""
        if name == "cli.main":
            argv = args[0] if args else None
            if argv and argv[0] in SCHMIDT_COMMANDS:
                self.schmidt_requests += 1
        elif name == "schmidt.schmidt_decompose":
            self.kept_mode_fractions.append(result.lambdas.size / args[0].grid.n)
        elif name in ("io.write_bjsa", "io.write_csv"):
            self.bytes_written += os.path.getsize(args[1])
        elif name in ("io.read_bjsa", "io.read_csv"):
            self.bytes_read += os.path.getsize(args[0])

    def install(self):
        """Wrap every binding of every traced function in the loaded package."""
        if not self._bindings:
            modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "biphoton" and m]
            for modname, fname in FUNCTIONS:
                orig = getattr(sys.modules["biphoton." + modname], fname)
                wrapper = self._wrap(f"{modname}.{fname}", orig)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is orig:
                            self._bindings.append((mod, attr, orig, wrapper))
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _ in self._bindings:
            setattr(mod, attr, orig)

    # -------------------------------------------------------------- report

    def metrics(self, traced_ops):
        out = {}
        for modname, fname in FUNCTIONS:
            key = f"{modname}.{fname}"
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_ms"] = (self.self_s[key] * 1e3, "ms")
        svd = self.calls["schmidt.schmidt_decompose"]
        out["io.bytes_written"] = (self.bytes_written, "bytes")
        out["io.bytes_read"] = (self.bytes_read, "bytes")
        out["schmidt.svd_per_request"] = (
            svd / self.schmidt_requests if self.schmidt_requests else 0.0,
            "ratio",
        )
        fr = self.kept_mode_fractions
        out["schmidt.kept_modes_fraction"] = (sum(fr) / len(fr) if fr else 0.0, "ratio")
        out["materials.wavenumber.calls_per_op"] = (
            self.calls["materials.wavenumber"] / traced_ops if traced_ops else 0.0,
            "count/op",
        )
        return out

    def dump(self):
        """Kept spans as JSON-ready rows, start and end in ms."""
        t0 = self.spans[0][4] if self.spans else 0.0
        return [
            {
                "id": sid,
                "parent": parent,
                "request": req,
                "name": name,
                "start_ms": (a - t0) * 1e3,
                "end_ms": (b - t0) * 1e3,
            }
            for sid, parent, req, name, a, b in self.spans
        ]


def parse_importtime(stderr_text):
    """(biphoton_ms, scipy_ms) from `python -X importtime` output, or None.

    biphoton_ms is the cumulative time of the `biphoton` package import;
    scipy_ms adds up the cumulative times of the outermost `scipy` imports.
    """
    entries = []
    for line in stderr_text.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the column header
        raw = parts[2].rstrip()
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), cumulative))
    biphoton_us = None
    scipy_us = 0
    # a module is printed after its imports, which sit one level deeper; read
    # backwards, every entry comes after its parent
    stack = []  # (depth, inside a scipy import)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not inside:
            scipy_us += cumulative
        if name == "biphoton":
            biphoton_us = cumulative
        stack.append((depth, inside or is_scipy))
    if biphoton_us is None:
        return None
    return biphoton_us / 1e3, scipy_us / 1e3
