"""Command-line front end: human units in, deterministic JSON out.

All boundary conversions (nm, mm, degrees, nm-FWHM bandwidths) happen in this
module; everything below it speaks um, ps, rad/ps. Reports are emitted as JSON
with sorted keys so identical configs produce bit-identical output, and every
report validates against schemas/cli_output.schema.json. Domain errors exit 2
(configuration) or 3 (numerical) with a one-line error JSON on stderr.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .assembly import (
    assembly_config_from_design,
    assembly_jsa_grid,
    assembly_phasematching,
    central_ridge_grid,
    design_assembly,
    isolate_central_ridge,
    ridge_slope,
    upsilon,
)
from .constants import (
    GAMMA_SINC,
    fwhm_nm_from_sigma,
    omega_from_lambda,
    sigma_from_fwhm_nm,
)
from .errors import ConfigError, SolverError
from .gvm_design import (
    asymmetric_design,
    decorrelation_range,
    factorizability_report,
    gvm_wavelength_search,
    temporal_report,
)
from .io import grid_rows, read_bjsa, read_csv, write_bjsa, write_csv, write_table
from .jsa import (
    CrystalConfig,
    FrequencyGrid,
    JointAmplitude,
    PumpConfig,
    TaylorCoefficients,
    _normalized,
    angle_matched_crystal,
    default_grid,
    gaussian_model,
    intensity_correlation,
    joint_temporal_intensity,
    jsa_grid,
    qpm_matched_crystal,
    taylor_coefficients,
)
from .materials import (
    Pol,
    RaySpec,
    get_material,
    gvd,
    inverse_group_velocity,
    load_database,
    refractive_index,
    walkoff_angle,
    wavenumber,
)
from .schmidt import SpectralFilter, cooperativity, herald_metrics, schmidt_decompose

# ---------------------------------------------------------------- unit layer


def um_from_nm(nm):
    return float(nm) * 1e-3


def um_from_mm(mm):
    return float(mm) * 1e3


def rad_from_deg(deg):
    return float(deg) * np.pi / 180.0


def deg_from_rad(rad):
    return float(rad) * 180.0 / np.pi


def _tolist(obj):
    """json.dumps hook: numpy arrays and non-float scalars become plain Python
    (np.float64 is a float and needs none)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_tolist) + "\n"


def _emit(obj):
    sys.stdout.write(_dumps(obj))


def _out_dir(path):
    """Create the export directory; a path through a regular file is bad input."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return out


def _write_json(path, obj):
    Path(path).write_text(_dumps(obj), encoding="utf-8")


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """argparse that keeps the usual usage text but adds an error JSON line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(
            json.dumps({"error": "ConfigError", "message": message}, sort_keys=True)
            + "\n"
        )
        raise SystemExit(2)


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ConfigError(f"missing required flag(s): {flags}")


def _config_flags(path):
    """The JSON object in `path` as `--key=value` flags, for argparse to parse like
    the command line; the `=` form keeps a value such as -1e-3 from reading as a flag."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, val in cfg.items():
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise ConfigError(f"config value of {key!r} must be a string or a number")
    return [f"--{key}={val}" for key, val in cfg.items()]


def build_parser():
    p = _Parser(prog="biphoton", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name, run, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=run)
        sp.add_argument("--config", help="JSON file of flag values; explicit flags win")
        return sp

    sp = add("materials", _cmd_materials, "refractive index, group delay, GVD, walkoff as JSON")
    sp.add_argument("--material")
    sp.add_argument("--ray", choices=["o", "e"])
    sp.add_argument("--theta-deg", type=float, default=90.0)
    sp.add_argument("--lambda-nm", type=float)

    sp = add("analyze", _cmd_analyze,
             "full source analysis: coefficients, widths, Schmidt metrics")
    sp.add_argument("--material")
    sp.add_argument("--lambda-nm", type=float, help="degenerate PDC wavelength")
    sp.add_argument("--length-mm", type=float)
    sp.add_argument("--pump-fwhm-nm", type=float)
    sp.add_argument("--pump-chirp-ps2", type=float, default=0.0)
    sp.add_argument("--scheme", choices=["angle", "qpm"], default="angle")
    sp.add_argument("--theta-deg", type=float, help="override the solved cut angle")
    sp.add_argument("--grid-n", type=int, default=256)
    sp.add_argument("--span-factor", type=float, default=4.0)
    sp.add_argument("--model", choices=["full_sinc", "gaussian"], default="full_sinc")
    sp.add_argument("--out-dir", help="export jsa.bjsa, jsa.csv, jsi.csv, jti.csv here")

    sp = add("schmidt", _cmd_schmidt, "Schmidt metrics of a stored amplitude grid")
    sp.add_argument("--in", dest="infile", help="input .bjsa or .csv grid")
    sp.add_argument("--filter-kind", choices=["unit", "gaussian", "tophat"], default="unit")
    sp.add_argument("--filter-center-nm", type=float, help="idler filter center wavelength")
    sp.add_argument("--filter-width-nm", type=float, help="intensity FWHM / full width")
    sp.add_argument("--max-modes", type=int, default=32, help="lambdas listed in JSON")
    sp.add_argument("--modes-csv", help="write leading mode functions here")
    sp.add_argument("--n-modes", type=int, default=4, help="modes in the CSV")

    sp = add("design-gvm", _cmd_design_gvm,
             "group-velocity-matched wavelength and decorrelation range")
    sp.add_argument("--material")
    sp.add_argument("--scheme", choices=["angle", "qpm"], default="angle")
    sp.add_argument("--window-lo-um", type=float)
    sp.add_argument("--window-hi-um", type=float)

    sp = add("design-asymmetric", _cmd_design_asymmetric,
             "single-matched-photon factorable source report")
    sp.add_argument("--material")
    sp.add_argument("--lambda-nm", type=float)
    sp.add_argument("--length-mm", type=float)
    sp.add_argument("--pump-fwhm-nm", type=float)
    sp.add_argument("--scheme", choices=["angle", "qpm"], default="angle")

    sp = add("design-assembly", _cmd_design_assembly,
             "crystal/spacer stack with a separable central ridge")
    sp.add_argument("--crystal")
    sp.add_argument("--spacer")
    sp.add_argument("--lambda-nm", type=float)
    sp.add_argument("--n-crystals", type=int)
    sp.add_argument("--m", type=int, help="spacer thickness quantum number")
    sp.add_argument("--grid-n", type=int, default=256)
    sp.add_argument("--out-dir", help="export the central-ridge JSA grid here")

    sp = add("paper-repro", _cmd_paper_repro,
             "run every acceptance scenario, write a pass/fail table")
    sp.add_argument("--out-dir")

    return p


# --------------------------------------------------------------- subcommands


def _cmd_materials(args):
    _require(args, "material", "ray", "lambda_nm")
    model = get_material(args.material)
    lam = um_from_nm(args.lambda_nm)
    ray = RaySpec(Pol(args.ray), rad_from_deg(args.theta_deg))
    w = omega_from_lambda(lam)
    n = refractive_index(model, ray, lam)
    return {
        "command": "materials",
        "material": model.material_id,
        "ray": args.ray,
        "theta_deg": args.theta_deg,
        "lambda_nm": args.lambda_nm,
        "n": float(n),
        "k_rad_um": float(wavenumber(model, ray, w)),
        "k_prime_ps_um": float(inverse_group_velocity(model, ray, w)),
        "k_double_prime_ps2_um": float(gvd(model, ray, w)),
        "walkoff_deg": float(walkoff_angle(model, ray.theta, lam)),
    }


def _build_crystal(args, material, lam_um, length_um):
    if args.theta_deg is not None:
        return CrystalConfig(
            material=material,
            length_um=length_um,
            theta=rad_from_deg(args.theta_deg),
            omega0=omega_from_lambda(lam_um),
        )
    if args.scheme == "qpm":
        return qpm_matched_crystal(material, lam_um, length_um)
    return angle_matched_crystal(material, lam_um, length_um)


def _cmd_analyze(args):
    _require(args, "material", "lambda_nm", "length_mm", "pump_fwhm_nm")
    material = get_material(args.material)
    lam = um_from_nm(args.lambda_nm)
    crystal = _build_crystal(args, material, lam, um_from_mm(args.length_mm))
    sigma = sigma_from_fwhm_nm(args.pump_fwhm_nm, lam / 2.0)
    pump = PumpConfig(
        omega_p0=2.0 * crystal.omega0, sigma=sigma, beta_t=args.pump_chirp_ps2
    )
    coeffs = taylor_coefficients(crystal)
    grid = default_grid(pump, coeffs, n=args.grid_n, span_factor=args.span_factor)
    ja = jsa_grid(pump, crystal, grid, model=args.model)
    metrics = herald_metrics(ja)
    jti = joint_temporal_intensity(ja)
    report = {
        "command": "analyze",
        "material": material.material_id,
        "scheme": args.scheme if args.theta_deg is None else "fixed-angle",
        "theta_deg": deg_from_rad(crystal.theta),
        "qpm_period_um": crystal.qpm_period_um,
        "lambda_nm": args.lambda_nm,
        "length_mm": args.length_mm,
        "model": args.model,
        "pump": {
            "fwhm_nm": args.pump_fwhm_nm,
            "sigma_rad_ps": sigma,
            "chirp_ps2": args.pump_chirp_ps2,
        },
        "taylor": asdict(coeffs),
        "factorizability": asdict(factorizability_report(pump, coeffs)),
        "temporal": asdict(temporal_report(pump, coeffs)),
        "grid": {"n": grid.n, "half_span_rad_ps": grid.half_span},
        "metrics": {
            "K": metrics.cooperativity_K,
            "S_bits": metrics.entropy_S,
            "purity": metrics.purity,
            "herald_rate": metrics.herald_rate,
            "jsi_correlation": intensity_correlation(ja),
            "jti_correlation": intensity_correlation(jti),
        },
    }
    if args.out_dir:
        out = _out_dir(args.out_dir)
        write_bjsa(ja, out / "jsa.bjsa")
        write_csv(ja, out / "jsa.csv")
        for name, axis, amp, comment in (
            ("jsi", "nu_rad_ps", ja, f"joint spectral intensity, omega0_rad_ps={grid.omega0!r}"),
            ("jti", "t_ps", jti, "joint temporal intensity"),
        ):
            rows = grid_rows(amp.grid.axis(), np.abs(amp.values) ** 2)
            write_table(out / f"{name}.csv", comment, f"{axis}_row,{axis}_col,intensity", rows)
        report["exports"] = sorted(
            str(out / name) for name in ("jsa.bjsa", "jsa.csv", "jsi.csv", "jti.csv")
        )
    return report


def _load_amplitude(path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"input grid file not found: {path}")
    if p.suffix.lower() == ".bjsa":
        return read_bjsa(p)
    return read_csv(p)


def _build_filter(args):
    if args.filter_kind == "unit":
        return SpectralFilter.unit()
    _require(args, "filter_center_nm", "filter_width_nm")
    if not (0 < args.filter_center_nm < np.inf and 0 < args.filter_width_nm < np.inf):
        raise ConfigError("--filter-center-nm and --filter-width-nm must be positive and finite")
    lam_c = um_from_nm(args.filter_center_nm)
    center = omega_from_lambda(lam_c)
    # d omega = 2 pi c d lambda / lambda^2 at the filter center
    width = center / lam_c * um_from_nm(args.filter_width_nm)
    if args.filter_kind == "gaussian":
        return SpectralFilter.gaussian(center, width)
    return SpectralFilter.tophat(center, width)


def _cmd_schmidt(args):
    if args.infile is None:  # the flag is --in, not the attribute name
        raise ConfigError("missing required flag(s): --in")
    if args.max_modes < 1 or args.n_modes < 1:
        raise ConfigError("--max-modes and --n-modes must be at least 1")
    ja = _load_amplitude(args.infile)
    filt = _build_filter(args)
    metrics = herald_metrics(ja, filt)
    spectrum = metrics.spectrum
    lambdas = spectrum.lambdas[: args.max_modes]
    if args.modes_csv:
        # amplitude densities u_kj / sqrt(d nu), (Re, Im) of psi_j then phi_j
        n = min(args.n_modes, spectrum.lambdas.size)
        modes = np.stack([spectrum.signal_modes[:, :n], spectrum.idler_modes[:, :n]], axis=2)
        cells = (modes / np.sqrt(ja.grid.spacing)).view(float).reshape(ja.grid.n, 4 * n)
        names = [f"{p}_{w}_{j}" for j in range(n) for w in ("psi", "phi") for p in ("re", "im")]
        write_table(
            args.modes_csv,
            "mode functions as amplitude densities (1/sqrt(rad/ps))",
            ",".join(["nu_rad_ps", *names]),
            [np.column_stack([ja.grid.axis(), cells])],
        )
    return {
        "command": "schmidt",
        "infile": str(args.infile),
        "filter": {
            "kind": args.filter_kind,
            "center_nm": args.filter_center_nm,
            "width_nm": args.filter_width_nm,
        },
        "lambdas": [float(v) for v in lambdas],
        "n_modes_kept": int(spectrum.lambdas.size),
        "K": metrics.cooperativity_K,
        "S_bits": metrics.entropy_S,
        "purity": metrics.purity,
        "herald_rate": metrics.herald_rate,
    }


def _cmd_design_gvm(args):
    _require(args, "material")
    material = get_material(args.material)
    window = None
    if (args.window_lo_um is None) != (args.window_hi_um is None):
        raise ConfigError("--window-lo-um and --window-hi-um go together")
    if args.window_lo_um is not None:
        window = (args.window_lo_um, args.window_hi_um)
    lam = gvm_wavelength_search(material, scheme=args.scheme, window=window)
    rng = decorrelation_range(material, scheme=args.scheme, window=window)
    return {
        "command": "design-gvm",
        "material": material.material_id,
        "scheme": args.scheme,
        "gvm_wavelength_um": None if lam is None else float(lam),
        "decorrelation_lo_um": None if rng is None else float(rng[0]),
        "decorrelation_hi_um": None if rng is None else float(rng[1]),
    }


def _cmd_design_asymmetric(args):
    _require(args, "material", "lambda_nm", "length_mm", "pump_fwhm_nm")
    material = get_material(args.material)
    lam = um_from_nm(args.lambda_nm)
    length = um_from_mm(args.length_mm)
    report, long_crystal, crystal, pump, coeffs = asymmetric_design(
        material, lam, length, args.pump_fwhm_nm, scheme=args.scheme
    )
    return {
        "command": "design-asymmetric",
        "material": material.material_id,
        "scheme": args.scheme,
        "theta_deg": deg_from_rad(crystal.theta),
        "lambda_nm": args.lambda_nm,
        "length_mm": args.length_mm,
        "pump_fwhm_nm": args.pump_fwhm_nm,
        "taylor": asdict(coeffs),
        "factorizability": asdict(report),
        "temporal": asdict(temporal_report(pump, coeffs)),
        "long_crystal_regime": bool(long_crystal),
    }


def _cmd_design_assembly(args):
    _require(args, "crystal", "spacer", "lambda_nm", "n_crystals", "m")
    crystal_material = get_material(args.crystal)
    spacer_material = get_material(args.spacer)
    lam = um_from_nm(args.lambda_nm)
    design = design_assembly(
        crystal_material, spacer_material, lam, args.n_crystals, args.m
    )
    report = {
        "command": "design-assembly",
        "theta_c_deg": deg_from_rad(design.theta_c_rad),
        "pump_fwhm_nm": fwhm_nm_from_sigma(design.sigma_pump_rad_ps, lam / 2.0),
        "design": asdict(design),
    }
    if args.out_dir:
        out = _out_dir(args.out_dir)
        cfg = assembly_config_from_design(design, crystal_material, spacer_material)
        pump = PumpConfig(
            omega_p0=2.0 * cfg.crystal.omega0, sigma=design.sigma_pump_rad_ps
        )
        grid = central_ridge_grid(design, n=args.grid_n)
        ja = assembly_jsa_grid(pump, cfg, grid)
        write_bjsa(ja, out / "assembly_jsa.bjsa")
        write_csv(ja, out / "assembly_jsa.csv")
        report["exports"] = sorted(
            str(out / name) for name in ("assembly_jsa.bjsa", "assembly_jsa.csv")
        )
    return report


# ------------------------------------------------------------ reproduction


def _check(label, value, target, rel=None, abs_tol=None, upper=None):
    """One table row: band checks use rel/abs tolerances, bounds use upper."""
    if upper is not None:
        return {"label": label, "value": value, "bound": upper, "pass": bool(value < upper)}
    row = {"label": label, "value": value, "target": target}
    if rel is not None:
        row["rel_tol"], ok = rel, abs(value - target) <= rel * abs(target)
    else:
        row["abs_tol"], ok = abs_tol, abs(value - target) <= abs_tol
    return {**row, "pass": bool(ok)}


def _criterion(name, budget_s, fn):
    t0 = time.perf_counter()
    checks = fn()
    dt = time.perf_counter() - t0
    checks.append(_check("runtime_s", dt, None, upper=budget_s))
    return {
        "name": name,
        "pass": bool(all(c["pass"] for c in checks)),
        "runtime_s": dt,
        "checks": checks,
    }


def _repro_gvm(material_name, scheme, lam_t, lo_t, hi_t):
    def fn():
        material = get_material(material_name)
        lam = gvm_wavelength_search(material, scheme=scheme)
        rng = decorrelation_range(material, scheme=scheme)
        if lam is None or rng is None:
            raise SolverError(f"no matched wavelength found for {material_name}")
        return [
            _check("gvm_wavelength_um", float(lam), lam_t, rel=0.01),
            _check("decorrelation_lo_um", float(rng[0]), lo_t, rel=0.02),
            _check("decorrelation_hi_um", float(rng[1]), hi_t, rel=0.02),
        ]

    return fn


def _repro_assembly_numbers():
    db = load_database()
    design = design_assembly(db["BBO"], db["CALCITE"], 0.8, 10, 10)
    return [
        _check(
            "mismatch_sum_crystal_ps_um",
            design.mismatch_sum_crystal_ps_um,
            3.535e-4,
            rel=0.02,
        ),
        _check(
            "mismatch_sum_spacer_ps_um",
            design.mismatch_sum_spacer_ps_um,
            -2.936e-4,
            rel=0.02,
        ),
        _check("ratio_h_over_l", design.ratio_h_over_l, 1.204, rel=0.02),
        _check("h_min_um", design.h_min_um, 5.88, rel=0.02),
        _check("h_um", design.h_um, 58.83, rel=0.02),
        _check("length_um", design.length_um, 48.85, rel=0.02),
        _check(
            "ridge_spacing_nm", design.delta_lambda_ridge_spacing_nm, 67.05, rel=0.03
        ),
        _check(
            "per_axis_spacing_nm",
            design.delta_lambda_ridge_spacing_nm / np.sqrt(2.0),
            47.41,
            rel=0.03,
        ),
        _check(
            "pump_fwhm_nm_at_400",
            fwhm_nm_from_sigma(design.sigma_pump_rad_ps, 0.4),
            1.48,
            rel=0.05,
        ),
    ]


def _kdp_source():
    """The 2 cm KDP crystal at 830 nm, its 5 nm pump, coefficients and 256-point JSA."""
    crystal = angle_matched_crystal(get_material("KDP"), 0.83, 20000.0)
    pump = PumpConfig(omega_p0=2.0 * crystal.omega0, sigma=sigma_from_fwhm_nm(5.0, 0.415))
    coeffs = taylor_coefficients(crystal)
    return crystal, pump, coeffs, jsa_grid(pump, crystal, default_grid(pump, coeffs, n=256))


def _repro_kdp():
    crystal, _, coeffs, ja = _kdp_source()
    K = cooperativity(schmidt_decompose(ja))
    tau_e, tau_o = coeffs.tau_s, coeffs.tau_i
    return [
        _check("theta_c_deg", deg_from_rad(crystal.theta), 67.77, abs_tol=0.5),
        _check("walkoff_ratio", abs(tau_o) / abs(tau_e), None, upper=0.05),
        _check("cooperativity_K", float(K), None, upper=1.1),
    ]


def _repro_assembly_pipeline():
    db = load_database()
    design = design_assembly(db["BBO"], db["CALCITE"], 0.8, 10, 10)
    cfg = assembly_config_from_design(design, db["BBO"], db["CALCITE"])
    pump = PumpConfig(
        omega_p0=2.0 * cfg.crystal.omega0, sigma=design.sigma_pump_rad_ps
    )
    half_w = omega_from_lambda(design.lambda0_um) / design.lambda0_um * 0.020
    grid = FrequencyGrid(omega0=cfg.crystal.omega0, half_span=half_w, n=256)
    ja = assembly_jsa_grid(pump, cfg, grid)
    iso = isolate_central_ridge(ja, design, half_width_nm=20.0)
    K = cooperativity(schmidt_decompose(iso))
    nu = grid.axis()
    pm = JointAmplitude(grid, assembly_phasematching(cfg, nu[:, None], nu[None, :]))
    slope = ridge_slope(pm)
    return [
        _check("central_ridge_K", float(K), None, upper=1.15),
        _check("ridge_slope", float(slope), 1.0, rel=0.02),
    ]


def _repro_properties():
    checks = []
    rng = np.random.default_rng(20260819)

    # (a) spectrum normalization and unit-filter purity on random Gaussians
    worst_sum, worst_pk = 0.0, 0.0
    for _ in range(10):
        sigma = rng.uniform(10.0, 60.0)
        tau_s = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        tau_i = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        coeffs = TaylorCoefficients(
            tau_s=tau_s,
            tau_i=tau_i,
            beta_s=rng.uniform(-0.1, 0.1),
            beta_i=rng.uniform(-0.1, 0.1),
            beta_p=rng.uniform(-0.2, 0.2),
            residual_dk0=0.0,
        )
        pump = PumpConfig(omega_p0=2.0 * omega_from_lambda(0.8), sigma=sigma)
        grid = default_grid(pump, coeffs, n=128)
        nu = grid.axis()
        ja = _normalized(grid, gaussian_model(pump, coeffs, nu[:, None], nu[None, :]))
        m = herald_metrics(ja)
        worst_sum = max(worst_sum, abs(float(m.spectrum.lambdas.sum()) - 1.0))
        worst_pk = max(worst_pk, abs(m.purity * m.cooperativity_K - 1.0))
    checks.append(_check("sum_lambda_dev", worst_sum, None, upper=1e-9))
    checks.append(_check("purity_times_K_dev", worst_pk, None, upper=1e-6))

    # (b) analytic geometric Schmidt spectrum of correlated Gaussians; grid
    # half-span tracks the broad diagonal so nothing clips at high ratios
    worst = 0.0
    for ratio in (1.5, 2.0, 3.0, 4.0, 6.0):
        a, b = 10.0 * ratio, 10.0
        half_span = 5.0 * np.sqrt(0.5 * (a * a + b * b))
        grid = FrequencyGrid(
            omega0=omega_from_lambda(0.8), half_span=half_span, n=256
        )
        nu = grid.axis()
        vp = (nu[:, None] + nu[None, :]) ** 2 / (4.0 * a**2)
        vm = (nu[:, None] - nu[None, :]) ** 2 / (4.0 * b**2)
        spectrum = schmidt_decompose(_normalized(grid, np.exp(-vp - vm) + 0.0j))
        mu = ((a - b) / (a + b)) ** 2
        analytic = (1.0 - mu) * mu ** np.arange(spectrum.lambdas.size)
        worst = max(worst, float(np.max(np.abs(spectrum.lambdas - analytic))))
    checks.append(_check("mehler_lambda_dev", worst, None, upper=1e-4))

    # (c) Parseval through the temporal transform
    crystal, pump, _, ja = _kdp_source()
    jti = joint_temporal_intensity(ja)
    checks.append(
        _check("parseval_dev", abs(jti.norm_squared() - 1.0), None, upper=1e-9)
    )

    # (d) inverse-quadratic scaling of the mixed temporal coefficient
    ratios = []
    for length in (80000.0, 160000.0):
        c = taylor_coefficients(replace(crystal, length_um=length))
        ratios.append(temporal_report(pump, c).sigma_M_sq)
    checks.append(
        _check("sigma_M_sq_scaling", ratios[1] / ratios[0], 0.25, rel=0.10)
    )

    # (e) pump chirp beta_t = -beta_p/4 nulls the bilinear temporal term.
    # Amplitude-separable mismatches (tau_s tau_i = -4 / (gamma sigma^2)) put
    # the entire temporal correlation in the cross phase, so the chirp can
    # take it from ~0.65 to zero.
    sigma = 25.0
    tau = 2.0 / (np.sqrt(GAMMA_SINC) * sigma)
    chirp_coeffs = TaylorCoefficients(
        tau_s=tau, tau_i=-tau, beta_s=0.01, beta_i=0.01, beta_p=0.05, residual_dk0=0.0
    )
    w0 = omega_from_lambda(0.8)
    plain = PumpConfig(omega_p0=2.0 * w0, sigma=sigma)
    star = PumpConfig(
        omega_p0=2.0 * w0, sigma=sigma, beta_t=-chirp_coeffs.beta_p / 4.0
    )
    mixed = temporal_report(star, chirp_coeffs).sigma_M_sq
    grid = default_grid(plain, chirp_coeffs, n=256)
    nu = grid.axis()

    def jti_corr(p):
        vals = gaussian_model(p, chirp_coeffs, nu[:, None], nu[None, :])
        return intensity_correlation(joint_temporal_intensity(_normalized(grid, vals)))

    corr_plain = jti_corr(plain)
    corr_star = jti_corr(star)
    checks.append(_check("bilinear_coefficient", abs(mixed), None, upper=1e-12))
    # the unchirped case must start correlated for the reduction to mean anything
    checks.append(
        {
            "label": "jti_corr_unchirped",
            "value": abs(corr_plain),
            "bound_exceeds": 0.05,
            "pass": bool(abs(corr_plain) > 0.05),
        }
    )
    checks.append(_check("jti_corr_chirped", abs(corr_star), None, upper=0.05))

    # (f) removable singularities of the interference factor
    worst = 0.0
    for n_c in range(1, 13):
        for k in range(-3, 4):
            val = upsilon(n_c, k * np.pi)
            worst = max(worst, abs(float(val) - (-1.0) ** (k * (n_c - 1))))
    checks.append(_check("upsilon_peak_dev", worst, None, upper=1e-12))
    return checks


def acceptance_criteria():
    """(name, filename, runtime budget s, check runner) for every scenario."""
    return [
        (
            "1 KTP matched wavelength and range",
            "ktp_gvm.json",
            1.0,
            _repro_gvm("KTP", "qpm", 1.568, 1.207, 2.364),
        ),
        (
            "2 BBO matched wavelength and range",
            "bbo_gvm.json",
            1.0,
            _repro_gvm("BBO", "angle", 1.514, 1.169, 1.949),
        ),
        (
            "3 BBO/calcite assembly numbers",
            "assembly_design.json",
            5.0,
            _repro_assembly_numbers,
        ),
        ("4 KDP factorable source", "kdp_source.json", 30.0, _repro_kdp),
        (
            "5 assembly central ridge",
            "assembly_pipeline.json",
            60.0,
            _repro_assembly_pipeline,
        ),
        ("6 property suite", "properties.json", 120.0, _repro_properties),
    ]


def _cmd_paper_repro(args):
    _require(args, "out_dir")
    out = _out_dir(args.out_dir)
    rows = []
    for name, fname, budget, fn in acceptance_criteria():
        result = _criterion(name, budget, fn)
        _write_json(out / fname, result)
        rows.append(result)
    all_pass = all(r["pass"] for r in rows)
    width = max(len(r["name"]) for r in rows)
    lines = [f"{'criterion':<{width}}  status  runtime_s"]
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(f"{r['name']:<{width}}  {status:<6}  {r['runtime_s']:.2f}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {
        "command": "paper-repro",
        "out_dir": str(out),
        "all_pass": bool(all_pass),
        "criteria": [
            {"name": r["name"], "pass": r["pass"], "runtime_s": r["runtime_s"]}
            for r in rows
        ],
    }
    _write_json(out / "summary.json", summary)
    return summary


# --------------------------------------------------------------------- main


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config flags go first: argparse keeps the last value, so explicit flags win
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        report = args.run(args)
    except (ConfigError, SolverError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 2 if isinstance(exc, ConfigError) else 3
    _emit(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
