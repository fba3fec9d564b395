"""The four workloads: seeded inputs, rounds of CLI calls, and output checks.

A workload is a closed loop with one client: each operation is one CLI
invocation (`biphoton.cli.main` in process, or `python -m biphoton` as a
child process for cli-cold) and starts only after the previous one returned.
Operations come in cycles whose make-up is the same for every seed; the seed
only draws the physical parameters. A run always ends on a whole cycle, so
the mix of operation kinds is exactly the same in every run.

Checks compare each output with `physics` (computed apart from the package)
or with properties the method must have. Each check returns a list of
error strings; an empty list means the outputs passed.
"""

import io
import json
import math
import random
import struct
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import physics as P

# --------------------------------------------------------------- tolerances

#: relative agreement of quantities that both sides compute exactly
TIGHT = 1e-9
#: unfiltered purity * K and herald rate of a normalized amplitude
UNIT_TOL = 1e-9
#: Gaussian-model purity against the closed-form integral (absolute)
GAUSS_PURITY_TOL = 1e-4
#: |group-velocity condition| / k_p' at a refined root (the package's brentq
#: tolerance and finite-difference derivatives leave ~1e-10)
ROOT_TOL = 1e-8
#: package GVD is a numerical second derivative: absolute error ~3e-12 ps^2/um,
GVD_ABS_TOL = 5e-11  # against typical values of 1e-7 ps^2/um
#: finite-difference Taylor coefficients against analytic ones, relative to
#: the larger of the two coefficients of the same order (first, second order)
TAYLOR_TOL = {"tau": 1e-6, "beta": 1e-4}
#: acceptance tolerances for the paper's matched wavelengths and ranges
PAPER = {
    ("KTP", "qpm"): (1.568, 1.207, 2.364),
    ("BBO", "angle"): (1.514, 1.169, 1.949),
}
PAPER_REL = (0.01, 0.02, 0.02)
#: how far an unrefined end of the decorrelation range may lie from the
#: window's edge or from a wavelength without a phasematching angle, as a
#: share of the window's width: about one step of a coarse scan
SCAN_STEP = 0.03
#: how far inside a Sellmeier edge (relative) a scan may start, as a margin
EDGE_MARGIN = 0.025

#: matched wavelength (um) and the span with a phasematching angle inside
#: the package's scan window, used only to place seeded windows around roots
GVM_ROOTS = {
    ("KTP", "qpm"): (1.566, 0.82, 3.33),
    ("BBO", "angle"): (1.5147, 0.53, 2.45),
    ("KDP", "angle"): (1.1027, 0.75, 1.71),
    ("KDP", "qpm"): (1.0148, 0.37, 4.9),
    ("BBO", "qpm"): (0.8322, 0.41, 2.45),
    ("KTP", "angle"): (1.8964, 1.10, 3.2),
}


@dataclass
class Op:
    """One CLI call. `argv` is a list, or a function of the round's earlier
    records for calls whose flags depend on an earlier output."""

    kind: str
    argv: object
    #: a fault of the package this call shows on every run; a call whose
    #: output fails its checks with it is counted in `failed`, not in errors
    fault: str = ""

    def resolve(self, earlier):
        return list(self.argv(earlier) if callable(self.argv) else self.argv)


@dataclass
class Record:
    op: Op
    argv: list
    rc: int
    out: str
    err: str
    wall_s: float
    cpu_s: float
    cycle: int
    round_id: int
    traced: bool = False
    #: place of the call in its round
    pos: int = 0

    def report(self):
        return json.loads(self.out)


def call_inprocess(cli, argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _f(x, digits):
    return f"{x:.{digits}f}"


def _u(rng, lo, hi, digits=3):
    return _f(rng.uniform(lo, hi), digits)


def _rng(seed, name, index):
    return random.Random(f"{name}/{seed}/{index}")


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ------------------------------------------------------------- base class


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed, root, tmp_dir, small=False):
        self.seed = seed
        self.root = Path(root)
        self.tmp = Path(tmp_dir)
        self.small = small
        self.mats = P.load_materials(self.root / "src/biphoton/data/materials.json")

    def n(self, size):
        """Grid size; the reduced size keeps each code path at n/4."""
        return max(32, size // 4) if self.small else size

    def cycle(self, index, variant=""):
        """Rounds (lists of Ops) of cycle `index`; index -1 is the warm-up.
        A `variant` repeats the same inputs with outputs written elsewhere."""
        raise NotImplementedError

    def warmup_ops(self):
        """One untimed operation of each kind, drawn apart from the timed ones."""
        seen, ops = set(), []
        for rnd in self.cycle(-1):
            for op in rnd:
                if op.kind not in seen:
                    seen.add(op.kind)
                    ops.append(op)
        return [ops]

    def check(self, bp, records):
        """Errors found in the outputs of successful calls."""
        raise NotImplementedError


# ------------------------------------------------------------- analyze-mix


def _source(rng, family):
    """Seeded analyze flags of one source family."""
    if family == "kdp":
        return ["--material", "KDP", "--lambda-nm", _u(rng, 815, 845, 2),
                "--length-mm", _u(rng, 10, 30, 2), "--pump-fwhm-nm", _u(rng, 3, 8)]
    if family == "bbo":
        return ["--material", "BBO", "--lambda-nm", _u(rng, 700, 900, 2),
                "--length-mm", _u(rng, 1, 6), "--pump-fwhm-nm", _u(rng, 0.5, 3)]
    if family == "ktp":
        # KTP quasi-phasematched at its group-velocity-matched wavelength
        return ["--material", "KTP", "--scheme", "qpm", "--lambda-nm", "1566.00",
                "--length-mm", _u(rng, 5, 30, 2), "--pump-fwhm-nm", _u(rng, 0.5, 3)]
    raise ValueError(family)


CANONICAL_KDP = ["--material", "KDP", "--lambda-nm", "830", "--length-mm", "20",
                 "--pump-fwhm-nm", "5"]

#: Gaussian-model sources, the same for every seed. Whether `jsa.default_grid`
#: resolves the model depends on the source, so seeded Gaussian sources would
#: pass the closed-form check on some seeds and fail it on others. The first
#: three pass it at every grid size from 64 to 512; "fault" fails it on all.
GAUSSIAN_SOURCES = {
    "kdp": ["--material", "KDP", "--lambda-nm", "830", "--length-mm", "5",
            "--pump-fwhm-nm", "3"],
    "bbo": ["--material", "BBO", "--lambda-nm", "800", "--length-mm", "2",
            "--pump-fwhm-nm", "1"],
    "ktp": ["--material", "KTP", "--scheme", "qpm", "--lambda-nm", "1566.00",
            "--length-mm", "20", "--pump-fwhm-nm", "1.5"],
    # `jsa.default_grid` sizes the span from the model's slice at the other
    # frequency = 0, not from its marginal, and clips this source: purity
    # 0.2350 at every n against 0.1823 from the closed form
    "fault": ["--material", "BBO", "--lambda-nm", "732.67", "--length-mm", "4.708",
              "--pump-fwhm-nm", "2.751"],
}
GAUSSIAN_FAULT = "jsa.default_grid clips the Gaussian model: purity misses the closed form"


class AnalyzeMix(Workload):
    """In-process `analyze` over a mix of sources, no exports."""

    name = "analyze-mix"
    FAMILIES = ("kdp", "bbo", "ktp")
    #: (family, model, chirped, n); the last slot rotates through FAMILIES
    PLAN = [
        ("canonical", "full_sinc", False, 256),
        ("kdp", "full_sinc", False, 256),
        ("bbo", "full_sinc", False, 256),
        ("ktp", "full_sinc", False, 256),
        ("kdp", "gaussian", False, 256),
        ("fault", "gaussian", False, 256),
        ("ktp", "gaussian", False, 256),
        ("kdp", "full_sinc", True, 256),
        ("bbo", "full_sinc", True, 256),
        ("bbo", "full_sinc", False, 256),
        ("kdp", "full_sinc", False, 512),
        ("bbo", "gaussian", False, 512),
        ("kdp", "full_sinc", True, 512),
        ("rotate", "full_sinc", False, 1024),
    ]

    def cycle(self, index, variant=""):
        rng = _rng(self.seed, self.name, index)
        ops = []
        for family, model, chirped, size in self.PLAN:
            if family == "rotate":
                family = self.FAMILIES[index % len(self.FAMILIES)]
            n = self.n(size)
            if model == "gaussian":
                argv = ["analyze"] + GAUSSIAN_SOURCES[family] + ["--model", "gaussian"]
            elif family == "canonical":
                argv = ["analyze"] + CANONICAL_KDP
            else:
                argv = ["analyze"] + _source(rng, family)
            if chirped:
                argv += ["--pump-chirp-ps2", _u(rng, -0.02, 0.02, 4)]
            argv += ["--grid-n", str(n)]
            kind = f"analyze/{family}/{model}{'/chirp' if chirped else ''}/{n}"
            ops.append(Op(kind, argv, GAUSSIAN_FAULT if family == "fault" else ""))
        return [ops]

    def check(self, bp, records):
        errors = []
        for rec in records:
            r = rec.report()
            errors += check_analyze(self.mats, r, rec.argv)
            # the reference eigendecomposition runs on a sample of cycles
            if r["model"] == "full_sinc" and rec.cycle % 3 == 0 and r["grid"]["n"] <= 256:
                errors += check_schmidt_eig(self.mats, r)
        return errors


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_analyze(mats, r, argv):
    """Checks on one analyze report (no filter)."""
    errors = []
    tag = " ".join(argv)
    m = r["metrics"]
    if abs(m["purity"] * m["K"] - 1.0) > UNIT_TOL:
        errors.append(f"purity*K = {m['purity'] * m['K']!r} != 1: {tag}")
    if abs(m["herald_rate"] - 1.0) > UNIT_TOL:
        errors.append(f"unfiltered herald_rate {m['herald_rate']!r} != 1: {tag}")
    if r["grid"]["n"] != int(_flag(argv, "--grid-n", 256)):
        errors.append(f"grid n {r['grid']['n']} differs from the request: {tag}")
    mat = mats[r["material"]]
    lam = float(_flag(argv, "--lambda-nm")) * 1e-3
    if r["lambda_nm"] != float(_flag(argv, "--lambda-nm")):
        errors.append(f"lambda_nm not echoed: {tag}")
    theta = math.radians(r["theta_deg"])
    if r["scheme"] == "angle":
        ref = P.phasematching_angle(mat, lam)
        if ref is None or abs(math.degrees(ref) - r["theta_deg"]) > 1e-9:
            errors.append(f"theta {r['theta_deg']!r} deg is not the phasematching angle: {tag}")
    t = P.taylor(mat, theta, lam, r["length_mm"] * 1e3)
    errors += _check_taylor(r["taylor"], t, tag)
    if r["model"] == "gaussian":
        errors += check_gaussian(r, tag)
    if argv[1:len(CANONICAL_KDP) + 1] == CANONICAL_KDP:
        if abs(r["theta_deg"] - 67.77) > 0.5 or not m["K"] < 1.1:
            errors.append(f"KDP 830 nm source: theta {r['theta_deg']!r}, K {m['K']!r}")
    return errors


def _check_taylor(got, ref, tag):
    errors = []
    for a, b in (("tau_s", "tau_i"), ("beta_s", "beta_i")):
        scale = max(abs(ref[a]), abs(ref[b])) * TAYLOR_TOL[a.split("_")[0]]
        for key in (a, b):
            if abs(got[key] - ref[key]) > scale:
                errors.append(f"taylor {key} {got[key]!r} vs {ref[key]!r}: {tag}")
    return errors


def check_gaussian(r, tag):
    """Gaussian-model purity: against the closed-form integral, and exactly
    against the same grid built apart from the package."""
    m, g, pump = r["metrics"], r["grid"], r["pump"]
    f, dnu = P.gaussian_jsa(r["taylor"], pump["sigma_rad_ps"], pump["chirp_ps2"],
                            g["n"], g["half_span_rad_ps"])
    lam = P.schmidt_weights_eig(f, dnu)
    purity = float(np.sum(lam**2))
    errors = []
    if abs(m["purity"] - purity) > TIGHT:
        errors.append(f"Gaussian-model purity {m['purity']!r} vs {purity!r} on the same grid: {tag}")
    ref = P.gaussian_purity(r["taylor"], pump["sigma_rad_ps"], pump["chirp_ps2"])
    if abs(m["purity"] - ref) > GAUSS_PURITY_TOL:
        resolves = P.gaussian_grid_resolves(r["taylor"], pump["sigma_rad_ps"], pump["chirp_ps2"],
                                            g["n"], g["half_span_rad_ps"])
        errors.append(f"Gaussian-model purity {m['purity']!r} vs closed form {ref!r} "
                      f"(grid {'resolves' if resolves else 'does not resolve'} the model): {tag}")
    return errors


def check_schmidt_eig(mats, r):
    """K against eigenvalues of A A^H of an independently built amplitude."""
    mat = mats[r["material"]]
    f, dnu = P.full_sinc_jsa(
        mat, math.radians(r["theta_deg"]), r["lambda_nm"] * 1e-3, r["length_mm"] * 1e3,
        r["pump"]["sigma_rad_ps"], r["pump"]["chirp_ps2"], r["grid"]["n"],
        r["grid"]["half_span_rad_ps"], r["qpm_period_um"],
    )
    ref = 1.0 / float(np.sum(P.schmidt_weights_eig(f, dnu) ** 2))
    if _rel(r["metrics"]["K"], ref) > TIGHT:
        return [f"K {r['metrics']['K']!r} vs eigvalsh {ref!r} ({r['material']} {r['lambda_nm']} nm)"]
    return []


# ------------------------------------------------------------- design-scan


def _materials_op(rng, mats):
    name = rng.choice(sorted(mats))
    lo, hi = mats[name].valid_range
    return ["materials", "--material", name, "--ray", rng.choice("oe"),
            "--theta-deg", _u(rng, 0, 90, 4),
            "--lambda-nm", _u(rng, 1000 * lo * 1.05, 1000 * hi * 0.95, 2)]


def _asymmetric_op(rng):
    return ["design-asymmetric", "--material", "KDP", "--lambda-nm", _u(rng, 815, 845, 2),
            "--length-mm", _u(rng, 10, 30, 2), "--pump-fwhm-nm", _u(rng, 3, 8)]


def _assembly_op(rng):
    return ["design-assembly", "--crystal", "BBO", "--spacer", "CALCITE",
            "--lambda-nm", _u(rng, 780, 820, 2),
            "--n-crystals", str(rng.randint(5, 15)), "--m", str(rng.randint(5, 15))]


def _gvm_op(rng, material, scheme, windowed):
    argv = ["design-gvm", "--material", material, "--scheme", scheme]
    if windowed:
        root, lo, hi = GVM_ROOTS[(material, scheme)]
        argv += ["--window-lo-um", _f(root - rng.uniform(0.1, 0.6) * (root - lo), 4),
                 "--window-hi-um", _f(root + rng.uniform(0.1, 0.6) * (hi - root), 4)]
    return argv


class DesignScan(Workload):
    """In-process design solves and dispersion lookups; no grid, no SVD."""

    name = "design-scan"
    #: counts per cycle put the median on design-asymmetric and the 90th
    #: percentile inside the three angle-scheme scans
    GVM = [("KTP", "qpm", False), ("BBO", "angle", False), ("KDP", "angle", True),
           ("KTP", "angle", True), ("KDP", "qpm", True), ("BBO", "qpm", True)]

    def cycle(self, index, variant=""):
        rng = _rng(self.seed, self.name, index)
        ops = [Op(f"design-gvm/{m}/{s}", _gvm_op(rng, m, s, w)) for m, s, w in self.GVM]
        ops += [Op("design-asymmetric", _asymmetric_op(rng)) for _ in range(4)]
        ops += [Op("design-assembly", _assembly_op(rng)) for _ in range(2)]
        ops += [Op("materials", _materials_op(rng, self.mats)) for _ in range(4)]
        return [ops]

    def check(self, bp, records):
        errors = []
        for rec in records:
            r = rec.report()
            errors += CHECKS[r["command"]](self.mats, r, rec.argv)
        return errors


def check_materials(mats, r, argv):
    mat = mats[r["material"]]
    lam = r["lambda_nm"] * 1e-3
    theta = math.radians(r["theta_deg"])
    ray = r["ray"]
    tag = " ".join(argv)
    errors = []
    for key, ref, tol in (
        ("n", P.index(mat, ray, theta, lam), TIGHT),
        ("k_rad_um", P.wavenumber(mat, ray, theta, P.omega(lam)), TIGHT),
        ("k_prime_ps_um", P.k1(mat, ray, theta, lam), TIGHT),
        ("walkoff_deg", P.walkoff_deg(mat, theta, lam), TIGHT),
    ):
        if _rel(r[key], ref) > tol:
            errors.append(f"{key} {r[key]!r} vs {ref!r}: {tag}")
    gvd = P.k2(mat, ray, theta, lam)
    if abs(r["k_double_prime_ps2_um"] - gvd) > GVD_ABS_TOL:
        errors.append(f"GVD {r['k_double_prime_ps2_um']!r} vs {gvd!r}: {tag}")
    return errors


def check_design_gvm(mats, r, argv):
    mat = mats[r["material"]]
    scheme = r["scheme"]
    tag = " ".join(argv)
    window = None
    if "--window-lo-um" in argv:
        window = (float(_flag(argv, "--window-lo-um")), float(_flag(argv, "--window-hi-um")))
    lam, lo, hi = r["gvm_wavelength_um"], r["decorrelation_lo_um"], r["decorrelation_hi_um"]
    if lam is None or lo is None or hi is None:
        return [f"no matched wavelength or range: {tag}"]
    errors = []
    paper = PAPER.get((mat.name, scheme))
    if paper and window is None:
        for got, want, rel in zip((lam, lo, hi), paper, PAPER_REL):
            if abs(got - want) > rel * want:
                errors.append(f"{got!r} um outside {rel:.0%} of the paper's {want} um: {tag}")
    g = P.gv_mismatches(mat, scheme, lam)
    scale = abs(P.k1(mat, P.PUMP, math.pi / 2, lam / 2))
    if g is None or abs(g[0] + g[1]) > ROOT_TOL * scale:
        errors.append(f"k_s' + k_i' - 2 k_p' not zero at {lam!r} um: {tag}")
    if not lo <= lam <= hi:
        errors.append(f"matched wavelength outside its decorrelation range: {tag}")
    # (edge, margin) of the window a degenerate pair can use: signal and idler
    # below the top of the Sellmeier range, the pump (at half the wavelength)
    # above its bottom; a scan may start a margin inside a Sellmeier edge
    low = (2.0 * mat.valid_range[0], EDGE_MARGIN * 2.0 * mat.valid_range[0])
    high = (mat.valid_range[1], EDGE_MARGIN * mat.valid_range[1])
    if window is not None:
        low = max(low, (window[0], 0.0))
        high = min(high, (window[1], 0.0))
    step = SCAN_STEP * (high[0] - low[0])
    for end, (edge, margin), outward in ((lo, low, -1), (hi, high, +1)):
        g = P.gv_mismatches(mat, scheme, end)
        if g is not None and min(abs(g[0]), abs(g[1])) <= ROOT_TOL * scale:
            continue  # a refined zero of one mismatch
        # otherwise the range may stop only at the window's edge or where
        # the phasematching angle ends
        if abs(end - edge) <= step + margin:
            continue
        if P.gv_mismatches(mat, scheme, end + outward * step) is not None:
            errors.append(f"range end {end!r} um is neither a zero of a mismatch, nor the window's "
                          f"edge, nor next to a wavelength without a phasematching angle: {tag}")
    return errors


def check_design_asymmetric(mats, r, argv):
    mat = mats[r["material"]]
    lam = r["lambda_nm"] * 1e-3
    tag = " ".join(argv)
    errors = []
    theta = P.phasematching_angle(mat, lam)
    if theta is None or abs(math.degrees(theta) - r["theta_deg"]) > 1e-9:
        return [f"theta {r['theta_deg']!r} deg is not the phasematching angle: {tag}"]
    t = P.taylor(mat, theta, lam, r["length_mm"] * 1e3)
    errors += _check_taylor(r["taylor"], t, tag)
    fz = r["factorizability"]
    ts, ti = r["taylor"]["tau_s"], r["taylor"]["tau_i"]
    if _rel(fz["gvm_residual"], ts + ti) > TIGHT:
        errors.append(f"gvm_residual is not tau_s + tau_i: {tag}")
    sigma = P.sigma_from_fwhm_nm(r["pump_fwhm_nm"], lam / 2.0)
    base = 4.0 / sigma**2
    cond1 = (base + P.GAMMA_SINC * ts * ti) / base
    if abs(fz["cond1_residual"] - cond1) > TIGHT * max(1.0, abs(cond1)):
        errors.append(f"cond1_residual {fz['cond1_residual']!r} vs {cond1!r}: {tag}")
    if min(abs(ts), abs(ti)) >= 0.05 * max(abs(ts), abs(ti)):
        errors.append(f"not in the asymmetric regime: {tag}")
    return errors


def check_design_assembly(mats, r, argv):
    d = r["design"]
    tag = " ".join(argv)
    errors = []
    if _rel(d["h_um"], d["m_integer"] * d["h_min_um"]) > TIGHT:
        errors.append(f"h {d['h_um']!r} is not m h_min: {tag}")
    if abs(d["gen_gvm_residual_ps"]) > TIGHT * abs(d["t_s_ps"]):
        errors.append(f"generalized GVM residual {d['gen_gvm_residual_ps']!r} ps: {tag}")
    lam = d["lambda0_um"]
    spacer = mats[d["spacer_material_id"]]
    h_min = 2.0 * math.pi / abs(P.mismatch(spacer, math.pi / 2, lam))
    if _rel(d["h_min_um"], h_min) > TIGHT:
        errors.append(f"h_min {d['h_min_um']!r} vs 2 pi / |dk| = {h_min!r}: {tag}")
    theta = P.phasematching_angle(mats[d["crystal_material_id"]], lam)
    if theta is None or abs(theta - d["theta_c_rad"]) > 1e-12:
        errors.append(f"crystal angle {d['theta_c_rad']!r} is not phasematched: {tag}")
    return errors


CHECKS = {
    "materials": check_materials,
    "design-gvm": check_design_gvm,
    "design-asymmetric": check_design_asymmetric,
    "design-assembly": check_design_assembly,
}


# ------------------------------------------------------------ export-roundtrip


def _span_nm(lam_um, half_span_rad_ps):
    """Full grid width in nm at carrier wavelength lam_um."""
    return 2.0 * half_span_rad_ps * lam_um**2 / (2.0 * math.pi * P.C_UM_PS) * 1e3


FILTERS = ("unit", "gaussian", "tophat")
#: calls in one export-roundtrip round
ROUND_OPS = 2 * (2 + len(FILTERS))


def _schmidt_argv(path, kind, lam_nm, span_nm, rng_state, modes_csv=None):
    argv = ["schmidt", "--in", str(path), "--filter-kind", kind]
    if kind == "gaussian":
        u, w = rng_state
        argv += ["--filter-center-nm", _f(lam_nm + (u - 0.5) * 0.2 * span_nm, 4),
                 "--filter-width-nm", _f((0.05 + 0.25 * w) * span_nm, 4)]
    elif kind == "tophat":
        # four times the grid width: passes everything
        argv += ["--filter-center-nm", _f(lam_nm, 4), "--filter-width-nm", _f(4 * span_nm, 4)]
    if modes_csv:
        argv += ["--modes-csv", str(modes_csv)]
    return argv


class ExportRoundtrip(Workload):
    """Exports at n = 256 and 512, then `schmidt --in` on the written files."""

    name = "export-roundtrip"
    #: grid size of each round of a cycle
    SIZES = (256, 256, 256, 256, 512)
    FAMILIES = ("kdp", "bbo", "ktp")

    def cycle(self, index, variant=""):
        return [self._round(index, k, size, variant) for k, size in enumerate(self.SIZES)]

    def warmup_ops(self):
        return [self._round(-1, 0, self.SIZES[0], "")]

    def _round(self, index, k, size, variant):
        rng = _rng(self.seed, f"{self.name}/{k}", index)
        n = self.n(size)
        # every round writes to new directories: rewriting a file frees its
        # blocks, and on a disk with online discard that stalls later writes
        d = self.tmp / f"c{index}-r{k}{variant}-analyze"
        e = self.tmp / f"c{index}-r{k}{variant}-assembly"
        csv_filter = FILTERS[index % len(FILTERS)]
        family = self.FAMILIES[(index * len(self.SIZES) + k) % len(self.FAMILIES)]
        analyze = ["analyze"] + _source(rng, family) + ["--grid-n", str(n), "--out-dir", str(d)]
        lam_a = float(_flag(analyze, "--lambda-nm"))
        assembly = _assembly_op(rng) + ["--grid-n", str(n), "--out-dir", str(e)]
        lam_e = float(_flag(assembly, "--lambda-nm"))
        draws = {arm: (rng.random(), rng.random()) for arm in ("a", "e")}

        def span_a(earlier):
            return _span_nm(lam_a * 1e-3, earlier[0].report()["grid"]["half_span_rad_ps"])

        def span_e(earlier):
            spacing = earlier[5].report()["design"]["delta_lambda_ridge_spacing_nm"]
            return spacing / math.sqrt(2.0)

        def schmidt(path, kind, lam, span, draw, modes=None):
            return lambda earlier: _schmidt_argv(path, kind, lam, span(earlier), draw, modes)

        ops = [Op(f"export/analyze/{n}", analyze)]
        for kind in FILTERS:
            modes = d / "modes.csv" if kind == "unit" else None
            ops.append(Op(f"schmidt/bjsa/{kind}/{n}",
                          schmidt(d / "jsa.bjsa", kind, lam_a, span_a, draws["a"], modes)))
        ops.append(Op(f"schmidt/csv/{n}",
                      schmidt(d / "jsa.csv", csv_filter, lam_a, span_a, draws["a"])))
        ops.append(Op(f"export/assembly/{n}", assembly))
        for kind in FILTERS:
            modes = e / "modes.csv" if kind == "unit" else None
            ops.append(Op(f"schmidt/assembly-bjsa/{kind}/{n}",
                          schmidt(e / "assembly_jsa.bjsa", kind, lam_e, span_e, draws["e"], modes)))
        ops.append(Op(f"schmidt/assembly-csv/{n}",
                      schmidt(e / "assembly_jsa.csv", csv_filter, lam_e, span_e, draws["e"])))
        return ops

    def check(self, bp, records):
        errors = []
        rounds = {}
        for rec in records:
            rounds.setdefault(rec.round_id, [None] * ROUND_OPS)[rec.pos] = rec
        csv_checked = set()
        for slots in rounds.values():
            # a failed call (None) is counted in `failed`; the checks that
            # need only the other calls still run
            errors += check_export_round(self.mats, slots)
            for first, build, stem in ((0, analyze_grid, "jsa"), (5, assembly_grid, "assembly_jsa")):
                rec = slots[first]
                if rec is None:
                    continue
                ja = build(bp, rec.argv)
                d = Path(_flag(rec.argv, "--out-dir"))
                errors += check_bjsa_file(d / f"{stem}.bjsa", ja)
                # the files stay until the run ends; the CSVs take ~0.1 s per
                # 65k rows to parse, so one pair is read per grid size
                if (first, ja.grid.n) not in csv_checked:
                    csv_checked.add((first, ja.grid.n))
                    errors += check_csv_file(d / f"{stem}.csv", ja)
                if slots[first + 1] is not None:  # the call that wrote modes.csv
                    errors += check_modes_csv(d / "modes.csv", ja.grid)
        return errors


def analyze_grid(bp, argv):
    """The in-memory amplitude `analyze` builds for these flags."""
    material = bp.get_material(_flag(argv, "--material"))
    lam = float(_flag(argv, "--lambda-nm")) * 1e-3
    length = float(_flag(argv, "--length-mm")) * 1e3
    if _flag(argv, "--scheme") == "qpm":
        crystal = bp.qpm_matched_crystal(material, lam, length)
    else:
        crystal = bp.angle_matched_crystal(material, lam, length)
    sigma = bp.sigma_from_fwhm_nm(float(_flag(argv, "--pump-fwhm-nm")), lam / 2.0)
    pump = bp.PumpConfig(omega_p0=2.0 * crystal.omega0, sigma=sigma)
    coeffs = bp.taylor_coefficients(crystal)
    grid = bp.default_grid(pump, coeffs, n=int(_flag(argv, "--grid-n")))
    return bp.jsa_grid(pump, crystal, grid)


def assembly_grid(bp, argv):
    """The in-memory amplitude `design-assembly --out-dir` builds."""
    db = bp.load_database()
    c, s = db[_flag(argv, "--crystal")], db[_flag(argv, "--spacer")]
    design = bp.design_assembly(
        c, s, float(_flag(argv, "--lambda-nm")) * 1e-3,
        int(_flag(argv, "--n-crystals")), int(_flag(argv, "--m")),
    )
    cfg = bp.assembly_config_from_design(design, c, s)
    pump = bp.PumpConfig(omega_p0=2.0 * cfg.crystal.omega0, sigma=design.sigma_pump_rad_ps)
    return bp.assembly_jsa_grid(pump, cfg, bp.central_ridge_grid(design, n=int(_flag(argv, "--grid-n"))))


def check_bjsa_file(path, ja):
    """Header and payload of a BJSA file against the in-memory grid, bit for bit."""
    data = Path(path).read_bytes()
    head = struct.Struct("<4sH3d")
    magic, version, n, omega0, half_span = head.unpack_from(data)
    g = ja.grid
    want = struct.pack("<3d", float(g.n), g.omega0, g.half_span)
    if magic != b"BJSA" or version != 1 or struct.pack("<3d", n, omega0, half_span) != want:
        return [f"{path}: header differs from the grid"]
    if data[head.size:] != ja.values.astype("<c16").tobytes():
        return [f"{path}: payload differs from the in-memory grid"]
    return []


def check_csv_file(path, ja):
    """Every CSV value parsed with float() equals the in-memory grid exactly."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    g = ja.grid
    # the header's half_span is not read back (the reader takes the first
    # axis value), so only the carrier and n are compared
    head = dict(tok.split("=", 1) for tok in lines[0][1:].split())
    if (float(head["omega0_rad_ps"]) != g.omega0 or int(head["n"]) != g.n
            or lines[1] != "nu_s,nu_i,re_f,im_f"):
        return [f"{path}: header differs from the grid"]
    rows = lines[2:]
    if len(rows) != g.n * g.n:
        return [f"{path}: {len(rows)} rows for a {g.n} x {g.n} grid"]
    nu = g.axis().tolist()
    vals = ja.values
    for j in range(g.n):
        vj = vals[j].tolist()
        for k in range(g.n):
            a, b, re, im = map(float, rows[j * g.n + k].split(","))
            v = vj[k]
            if a != nu[j] or b != nu[k] or re != v.real or im != v.imag:
                return [f"{path}: row {j * g.n + k} differs from the in-memory grid"]
    return []


def check_modes_csv(path, grid):
    """The leading signal and idler modes are unit-norm amplitude densities."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    cols = lines[1].split(",")
    rows = [list(map(float, ln.split(","))) for ln in lines[2:]]
    if len(rows) != grid.n or cols[:5] != ["nu_rad_ps", "re_psi_0", "im_psi_0", "re_phi_0", "im_phi_0"]:
        return [f"{path}: unexpected layout"]
    dnu = grid.spacing
    errors = []
    for c in (1, 3):
        norm = sum(r[c] ** 2 + r[c + 1] ** 2 for r in rows) * dnu
        if abs(norm - 1.0) > UNIT_TOL:
            errors.append(f"{path}: mode column {cols[c]} has norm {norm!r}")
    return errors


def check_export_round(mats, recs):
    """JSON checks on one round, in call order: 1 analyze, 4 schmidt,
    1 assembly, 4 schmidt. A failed call is None; only the checks that need
    its output are skipped."""
    errors = []
    analyze, assembly = recs[0], recs[5]
    if analyze is not None:
        errors += check_analyze(mats, analyze.report(), analyze.argv)
    if assembly is not None:
        errors += check_design_assembly(mats, assembly.report(), assembly.argv)
    for first in (1, 6):
        group = recs[first:first + 4]
        done = [rec for rec in group if rec is not None]
        if not done:
            continue
        if first == 1 and analyze is not None:
            K_ref = analyze.report()["metrics"]["K"]
        else:
            K_ref = done[0].report()["K"]
        by_filter = {}
        for rec in done:
            r = rec.report()
            tag = " ".join(rec.argv)
            if rec is not group[3]:
                by_filter[r["filter"]["kind"]] = r
            if _rel(r["K"], K_ref) > 1e-12:
                errors.append(f"schmidt K {r['K']!r} differs from {K_ref!r} on the same grid: {tag}")
            if not (0.0 < r["purity"] <= 1.0 + 1e-12 and 0.0 < r["herald_rate"] <= 1.0 + 1e-12):
                errors.append(f"purity {r['purity']!r} or rate {r['herald_rate']!r} outside (0, 1]: {tag}")
            if r["filter"]["kind"] in ("unit", "tophat"):
                if abs(r["herald_rate"] - 1.0) > UNIT_TOL or abs(r["purity"] * r["K"] - 1.0) > UNIT_TOL:
                    errors.append(f"all-pass filter: rate {r['herald_rate']!r}, purity*K "
                                  f"{r['purity'] * r['K']!r}: {tag}")
        if group[3] is not None:
            csv = group[3].report()
            twin = by_filter.get(csv["filter"]["kind"])
            if twin is not None and {**twin, "infile": None} != {**csv, "infile": None}:
                errors.append(f"schmidt on the CSV differs from the BJSA: {' '.join(group[3].argv)}")
    return errors


# -------------------------------------------------------------------- cli-cold


class CliCold(Workload):
    """One `python -m biphoton` child process at a time, light subcommands."""

    name = "cli-cold"
    in_process = False

    def cycle(self, index, variant=""):
        rng = _rng(self.seed, self.name, index)
        return [[
            Op("cold/materials", _materials_op(rng, self.mats)),
            Op("cold/design-asymmetric", _asymmetric_op(rng)),
            Op("cold/design-assembly", _assembly_op(rng)),
            Op("cold/design-gvm", ["design-gvm", "--material", "KTP", "--scheme", "qpm"]),
        ]]

    def check(self, bp, records):
        from biphoton import cli

        errors = []
        for rec in records:
            rc, out, _ = call_inprocess(cli, rec.argv)
            if rec.out != out:
                errors.append(f"child stdout differs from in-process cli.main: {' '.join(rec.argv)}")
        return errors


WORKLOADS = {w.name: w for w in (AnalyzeMix, DesignScan, ExportRoundtrip, CliCold)}


def load_schema_validator(root):
    import jsonschema

    schema = json.loads(
        (Path(root) / "src/biphoton/schemas/cli_output.schema.json").read_text(encoding="utf-8")
    )
    return jsonschema.Draft202012Validator(schema)


def check_records(workload, bp, records, validator):
    """Schema, exit codes and the workload's own checks.

    Returns (errors, faults): the errors found in calls that should pass,
    and (record, its errors) for each call of an operation with a known
    fault whose output fails its checks; those calls count as failed.
    """
    errors = []
    ok = []
    for rec in records:
        if rec.rc != 0:
            continue  # counted in `failed`
        try:
            doc = rec.report()
        except ValueError:
            errors.append(f"stdout is not JSON: {' '.join(rec.argv)}")
            continue
        invalid = [f"schema: {e.message}: {' '.join(rec.argv)}" for e in validator.iter_errors(doc)]
        errors += invalid
        if not invalid:
            ok.append(rec)
    errors += workload.check(bp, [rec for rec in ok if not rec.op.fault])
    faults = [(rec, workload.check(bp, [rec])) for rec in ok if rec.op.fault]
    return errors, [(rec, errs) for rec, errs in faults if errs]

