"""Command-line front end: human units in, deterministic JSON out.

All boundary conversions (nm, mm, degrees) happen in this module; everything
below it speaks um, ps, rad/ps. The one exception is a pump's nm-FWHM
bandwidth: jsa.matched_source, which builds every single-crystal source, turns
it into sigma. Reports are emitted as JSON with sorted keys so identical
configs produce bit-identical output, and every report validates against
schemas/cli_output.schema.json. Domain errors exit 2 (configuration) or 3
(numerical) with a one-line error JSON on stderr; a report float that is NaN or
infinite, which strict JSON cannot hold, is a numerical error.
"""

import argparse
import functools
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
from .constants import GAMMA_SINC, domega_from_dlambda, fwhm_nm_from_sigma, omega_from_lambda
from .errors import ConfigError, NumericalFailure, SolverError
from .gvm_design import (
    asymmetric_design,
    decorrelation_range,
    factorizability_report,
    gvm_scan,
    gvm_wavelength_search,
    temporal_report,
)
from .io import (
    axis_rows, grid_rows, open_for_writing, read_bjsa, read_csv, write_bjsa, write_csv, write_table
)
from .jsa import (
    FrequencyGrid,
    JointAmplitude,
    PumpConfig,
    TaylorCoefficients,
    _normalized,
    default_grid,
    gaussian_model,
    intensity_correlation,
    joint_temporal_intensity,
    jsa_grid,
    matched_source,
)
from .materials import (
    Pol,
    RaySpec,
    _check_range,
    get_material,
    gvd,
    inverse_group_velocity,
    load_database,
    refractive_index,
    walkoff_angle,
    wavenumber,
)
from .schmidt import (
    SpectralFilter, cooperativity, herald_metrics, schmidt_decompose, spectrum_metrics
)

# ---------------------------------------------------------------- unit layer


def um_from_nm(nm):
    return float(nm) * 1e-3


def um_from_mm(mm):
    return float(mm) * 1e3


def deg_from_rad(rad):
    return float(rad) * 180.0 / np.pi


def _wavelength_um(nm, *materials):
    """A wavelength flag in um, checked against each material's validity range
    before anything turns it into rad/ps, where 0 or inf would divide by zero."""
    lam = um_from_nm(nm)
    for model in materials:
        _check_range(model, lam)
    return lam


def _tolist(obj):
    """json.dumps hook: numpy arrays and non-float scalars become plain Python
    (np.float64 is a float and needs none)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(obj):
    """Sorted, indented strict JSON: a NaN or infinite float, which strict JSON
    cannot hold, is a NumericalFailure."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, default=_tolist, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalFailure(f"report holds a non-finite number: {exc}") from exc


def _out_dir(path):
    """Create the export directory; a path through a regular file is bad input."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return out


def _write_text(path, text):
    with open_for_writing(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """argparse that fails with a ConfigError whose message carries the usage
    text, so `main` ends a rejected command line with the same one-line error
    JSON as a bad request and prints nothing else."""

    def error(self, message):
        raise ConfigError(f"{message}; {' '.join(self.format_usage().split())}")


#: largest --grid-n: a request peaks at about GRID_BYTES_PER_POINT bytes per grid
#: point (306 MiB for analyze at n = 2048), so about 4.4 GiB at the cap
MAX_GRID_N, GRID_BYTES_PER_POINT = 8192, 70


def _grid_n(args):
    """--grid-n, refused above MAX_GRID_N before any n x n array is allocated."""
    n = args.grid_n
    if n > MAX_GRID_N:
        gib = GRID_BYTES_PER_POINT * n * n // 2**30
        raise ConfigError(f"--grid-n {n} is above the cap of {MAX_GRID_N}: at about "
                          f"{GRID_BYTES_PER_POINT} bytes per grid point it needs about {gib} GiB")
    return n


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


@functools.cache
def build_parser():
    """The one parser of the process; parsing leaves it unchanged."""
    p = _Parser(prog="biphoton", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name, run, help_text, *parents):
        sp = sub.add_parser(name, help=help_text, parents=parents)
        sp.set_defaults(run=run)
        sp.add_argument("--config", help="JSON file of flag values; explicit flags win")
        return sp

    crystal = argparse.ArgumentParser(add_help=False)
    crystal.add_argument("--material")
    crystal.add_argument("--scheme", choices=["angle", "qpm"], default="angle")
    source = argparse.ArgumentParser(add_help=False, parents=[crystal])
    source.add_argument("--lambda-nm", type=float, help="degenerate PDC wavelength")
    source.add_argument("--length-mm", type=float)
    source.add_argument("--pump-fwhm-nm", type=float)

    sp = add("materials", _cmd_materials, "refractive index, group delay, GVD, walkoff as JSON")
    sp.add_argument("--material")
    sp.add_argument("--ray", choices=["o", "e"])
    sp.add_argument("--theta-deg", type=float, default=90.0)
    sp.add_argument("--lambda-nm", type=float)

    sp = add("analyze", _cmd_analyze,
             "full source analysis: coefficients, widths, Schmidt metrics", source)
    sp.add_argument("--pump-chirp-ps2", type=float, default=0.0)
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
             "group-velocity-matched wavelength and decorrelation range", crystal)
    sp.add_argument("--window-lo-um", type=float)
    sp.add_argument("--window-hi-um", type=float)

    add("design-asymmetric", _cmd_design_asymmetric,
        "single-matched-photon factorable source report", source)

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
    lam = _wavelength_um(args.lambda_nm, model)
    ray = RaySpec(Pol(args.ray), float(args.theta_deg) * np.pi / 180.0)
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


def _source_request(args):
    """The first five arguments of matched_source and asymmetric_design, from a
    source's flags: material, wavelength (um), length (um), pump FWHM (nm), scheme."""
    _require(args, "material", "lambda_nm", "length_mm", "pump_fwhm_nm")
    material = get_material(args.material)
    lam, length = _wavelength_um(args.lambda_nm, material), um_from_mm(args.length_mm)
    return material, lam, length, args.pump_fwhm_nm, args.scheme


def _source_report(args, crystal, pump):
    """The keys `analyze` and `design-asymmetric` share: the request and the source."""
    coeffs = crystal.coeffs
    return {
        "command": args.command,
        "material": crystal.material.material_id,
        "scheme": args.scheme,
        "theta_deg": deg_from_rad(crystal.theta),
        "lambda_nm": args.lambda_nm,
        "length_mm": args.length_mm,
        "taylor": asdict(coeffs),
        "factorizability": asdict(factorizability_report(pump, coeffs)),
        "temporal": asdict(temporal_report(pump, coeffs)),
    }


def _herald_report(metrics):
    """The heralding keys `analyze` (under "metrics") and `schmidt` report."""
    return {"K": metrics.cooperativity_K, "S_bits": metrics.entropy_S,
            "purity": metrics.purity, "herald_rate": metrics.herald_rate}


def _export_amplitude(ja, out, stem):
    """Write ja to the directory out as <stem>.bjsa and <stem>.csv; the two paths."""
    paths = [out / f"{stem}.bjsa", out / f"{stem}.csv"]
    write_bjsa(ja, paths[0])
    write_csv(ja, paths[1])
    return paths


def _cmd_analyze(args):
    crystal, pump, coeffs = matched_source(*_source_request(args), args.pump_chirp_ps2)
    grid = default_grid(pump, coeffs, n=_grid_n(args), span_factor=args.span_factor)
    ja = jsa_grid(pump, crystal, grid, model=args.model)
    metrics = herald_metrics(ja)
    jti = joint_temporal_intensity(ja)
    report = {
        **_source_report(args, crystal, pump),
        "qpm_period_um": crystal.qpm_period_um,
        "model": args.model,
        "pump": {
            "fwhm_nm": args.pump_fwhm_nm,
            "sigma_rad_ps": pump.sigma,
            "chirp_ps2": args.pump_chirp_ps2,
        },
        "grid": {"n": grid.n, "half_span_rad_ps": grid.half_span},
        "metrics": {
            **_herald_report(metrics),
            "jsi_correlation": intensity_correlation(ja),
            "jti_correlation": intensity_correlation(jti),
        },
    }
    if args.out_dir:
        out = _out_dir(args.out_dir)
        paths = _export_amplitude(ja, out, "jsa")
        for name, axis, amp, comment in (
            ("jsi", "nu_rad_ps", ja, f"joint spectral intensity, omega0_rad_ps={grid.omega0!r}"),
            ("jti", "t_ps", jti, "joint temporal intensity"),
        ):
            paths.append(out / f"{name}.csv")
            rows = grid_rows(amp.grid.axis(), np.abs(amp.values) ** 2)
            write_table(paths[-1], comment, f"{axis}_row,{axis}_col,intensity", rows)
        report["exports"] = sorted(map(str, paths))
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
        return None
    _require(args, "filter_center_nm", "filter_width_nm")
    if not (0 < args.filter_center_nm < np.inf and 0 < args.filter_width_nm < np.inf):
        raise ConfigError("--filter-center-nm and --filter-width-nm must be positive and finite")
    lam_c = um_from_nm(args.filter_center_nm)
    try:  # lam_c^2 may overflow, or underflow to 0
        width = domega_from_dlambda(um_from_nm(args.filter_width_nm), lam_c)
    except (OverflowError, ZeroDivisionError) as exc:
        msg = f"--filter-center-nm {args.filter_center_nm}: its square in um^2 leaves float range"
        raise ConfigError(msg) from exc
    return SpectralFilter(args.filter_kind, omega_from_lambda(lam_c), width)


def _cmd_schmidt(args):
    if args.infile is None:  # the flag is --in, not the attribute name
        raise ConfigError("missing required flag(s): --in")
    if args.max_modes < 1 or args.n_modes < 1:
        raise ConfigError("--max-modes and --n-modes must be at least 1")
    ja = _load_amplitude(args.infile)
    filt = _build_filter(args)
    # always with modes, so that the lambdas printed do not depend on --modes-csv
    spectrum = schmidt_decompose(ja)
    metrics = spectrum_metrics(spectrum, ja.grid, filt)
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
            [axis_rows(ja.grid.axis(), cells)],
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
        **_herald_report(metrics),
    }


def _cmd_design_gvm(args):
    _require(args, "material")
    material = get_material(args.material)
    window = None
    if (args.window_lo_um is None) != (args.window_hi_um is None):
        raise ConfigError("--window-lo-um and --window-hi-um go together")
    if args.window_lo_um is not None:
        window = (args.window_lo_um, args.window_hi_um)
    scan = gvm_scan(material, scheme=args.scheme, window=window)
    lam = gvm_wavelength_search(scan)
    rng = decorrelation_range(scan)
    return {
        "command": "design-gvm",
        "material": material.material_id,
        "scheme": args.scheme,
        "gvm_wavelength_um": None if lam is None else float(lam),
        "decorrelation_lo_um": None if rng is None else float(rng[0]),
        "decorrelation_hi_um": None if rng is None else float(rng[1]),
    }


def _cmd_design_asymmetric(args):
    long_crystal, crystal, pump, _ = asymmetric_design(*_source_request(args))
    return {
        **_source_report(args, crystal, pump),
        "pump_fwhm_nm": args.pump_fwhm_nm,
        "long_crystal_regime": bool(long_crystal),
    }


def _cmd_design_assembly(args):
    _require(args, "crystal", "spacer", "lambda_nm", "n_crystals", "m")
    db = load_database()
    crystal_material = get_material(args.crystal, db)
    spacer_material = get_material(args.spacer, db)
    lam = _wavelength_um(args.lambda_nm, crystal_material, spacer_material)
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
        n = _grid_n(args)
        out = _out_dir(args.out_dir)
        cfg = assembly_config_from_design(design, crystal_material, spacer_material)
        grid = central_ridge_grid(design, n=n)
        ja = assembly_jsa_grid(design.pump, cfg, grid)
        report["exports"] = sorted(map(str, _export_amplitude(ja, out, "assembly_jsa")))
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


def _report(*argv):
    """The report a subcommand prints for these command-line words, built in process."""
    args = build_parser().parse_args(argv)
    return args.run(args)


def _repro_gvm(material_name, scheme, lam_t, lo_t, hi_t):
    def fn():
        r = _report("design-gvm", "--material", material_name, "--scheme", scheme)
        keys = ("gvm_wavelength_um", "decorrelation_lo_um", "decorrelation_hi_um")
        if any(r[k] is None for k in keys):
            raise SolverError(f"no matched wavelength found for {material_name}")
        return [
            _check(key, r[key], target, rel=rel)
            for key, target, rel in zip(keys, (lam_t, lo_t, hi_t), (0.01, 0.02, 0.02))
        ]

    return fn


def _repro_assembly_numbers():
    r = _report(
        "design-assembly", "--crystal", "BBO", "--spacer", "CALCITE", "--lambda-nm", "800",
        "--n-crystals", "10", "--m", "10",
    )
    d = r["design"]
    bands = [
        ("mismatch_sum_crystal_ps_um", 3.535e-4), ("mismatch_sum_spacer_ps_um", -2.936e-4),
        ("ratio_h_over_l", 1.204), ("h_min_um", 5.88), ("h_um", 58.83), ("length_um", 48.85),
    ]
    spacing = d["delta_lambda_ridge_spacing_nm"]
    return [
        *(_check(key, d[key], target, rel=0.02) for key, target in bands),
        _check("ridge_spacing_nm", spacing, 67.05, rel=0.03),
        _check("per_axis_spacing_nm", spacing / np.sqrt(2.0), 47.41, rel=0.03),
        _check("pump_fwhm_nm_at_400", r["pump_fwhm_nm"], 1.48, rel=0.05),
    ]


def _repro_kdp():
    r = _report(
        "analyze", "--material", "KDP", "--lambda-nm", "830", "--length-mm", "20",
        "--pump-fwhm-nm", "5",
    )
    tau_e, tau_o = r["taylor"]["tau_s"], r["taylor"]["tau_i"]
    return [
        _check("theta_c_deg", r["theta_deg"], 67.77, abs_tol=0.5),
        _check("walkoff_ratio", abs(tau_o) / abs(tau_e), None, upper=0.05),
        _check("cooperativity_K", r["metrics"]["K"], None, upper=1.1),
    ]


def _repro_assembly_pipeline():
    db = load_database()
    design = design_assembly(db["BBO"], db["CALCITE"], 0.8, 10, 10)
    cfg = assembly_config_from_design(design, db["BBO"], db["CALCITE"])
    half_w = domega_from_dlambda(0.020, design.lambda0_um)
    grid = FrequencyGrid(omega0=cfg.crystal.omega0, half_span=half_w, n=256)
    ja = assembly_jsa_grid(design.pump, cfg, grid)
    iso = isolate_central_ridge(ja, design)
    K = cooperativity(schmidt_decompose(iso, modes=False))
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

    # (a) spectrum normalization and unfiltered purity on random Gaussians
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
        spectrum = schmidt_decompose(_normalized(grid, np.exp(-vp - vm) + 0.0j), modes=False)
        mu = ((a - b) / (a + b)) ** 2
        analytic = (1.0 - mu) * mu ** np.arange(spectrum.lambdas.size)
        worst = max(worst, float(np.max(np.abs(spectrum.lambdas - analytic))))
    checks.append(_check("mehler_lambda_dev", worst, None, upper=1e-4))

    # (c) Parseval through the temporal transform, on the 2 cm KDP crystal at
    # 830 nm with its 5 nm pump
    crystal, pump, _ = matched_source(get_material("KDP"), 0.83, 20000.0, 5.0)
    jti = joint_temporal_intensity(jsa_grid(pump, crystal))
    checks.append(
        _check("parseval_dev", abs(jti.norm_squared() - 1.0), None, upper=1e-9)
    )

    # (d) inverse-quadratic scaling of the mixed temporal coefficient
    ratios = []
    for length in (80000.0, 160000.0):
        c = replace(crystal, length_um=length).coeffs
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
        _write_text(out / fname, _dumps(result))
        rows.append(result)
    all_pass = all(r["pass"] for r in rows)
    width = max(len(r["name"]) for r in rows)
    lines = [f"{'criterion':<{width}}  status  runtime_s"]
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(f"{r['name']:<{width}}  {status:<6}  {r['runtime_s']:.2f}")
    _write_text(out / "summary.txt", "\n".join(lines) + "\n")
    summary = {
        "command": "paper-repro",
        "out_dir": str(out),
        "all_pass": bool(all_pass),
        "criteria": [
            {"name": r["name"], "pass": r["pass"], "runtime_s": r["runtime_s"]}
            for r in rows
        ],
    }
    _write_text(out / "summary.json", _dumps(summary))
    return summary


# --------------------------------------------------------------------- main


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config flags go first: argparse keeps the last value, so explicit flags win
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        text = _dumps(args.run(args))
    except (ConfigError, SolverError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 2 if isinstance(exc, ConfigError) else 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
