"""Tests of the benchmark itself: workloads at reduced size, output checks
fed perturbed outputs, the tracer, and the command's protocol.

    python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import biphoton as bp  # noqa: E402
from biphoton import cli  # noqa: E402

from perfbench import physics as P  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.worker import Runner  # noqa: E402

VALIDATOR = W.load_schema_validator(ROOT)


def run_small(name, tmp_path, seed=5, cycles=1):
    """Warm-up plus `cycles` cycles of a workload at reduced grid sizes."""
    wl = W.WORKLOADS[name](seed, ROOT, tmp_path, small=True)
    runner = Runner(wl, cli, W)
    for rnd in wl.warmup_ops():
        runner.run_round(rnd, cycle=-1)
    records = []
    for c in range(cycles):
        for ops in wl.cycle(c):
            records += runner.run_round(ops, c)
    return wl, records


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Records of one reduced cycle of every workload."""
    out = {}
    for name in W.WORKLOADS:
        wl, records = run_small(name, tmp_path_factory.mktemp(name))
        out[name] = (wl, records)
    return out


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_workload_runs_to_its_end_at_reduced_size(outputs, name):
    wl, records = outputs[name]
    assert records and all(r.rc == 0 for r in records), [r.err for r in records if r.rc]
    errors, faults = W.check_records(wl, bp, records, VALIDATOR)
    assert errors == []
    # only the operation with a known fault fails its checks, on every call
    assert [rec for rec, _ in faults] == [rec for rec in records if rec.op.fault]
    for _, errs in faults:
        assert len(errs) == 1 and "closed form" in errs[0]


def test_known_fault_counts_only_when_its_check_fails(outputs):
    wl, records = outputs["analyze-mix"]
    passing = next(rec for rec in records if not rec.op.fault)
    marked = copy.copy(passing)
    marked.op = W.Op(passing.op.kind, passing.argv, fault="a fault")
    assert W.check_records(wl, bp, [marked], VALIDATOR) == ([], [])
    # a wrong output of an operation without a known fault is an error
    fault = next(rec for rec in records if rec.op.fault)
    plain = copy.copy(fault)
    plain.op = W.Op(fault.op.kind, fault.argv)
    errors, faults = W.check_records(wl, bp, [plain], VALIDATOR)
    assert faults == [] and any("closed form" in e for e in errors)


def test_inputs_follow_the_seed(tmp_path):
    a = W.DesignScan(1, ROOT, tmp_path).cycle(0)
    b = W.DesignScan(1, ROOT, tmp_path).cycle(0)
    c = W.DesignScan(2, ROOT, tmp_path).cycle(0)
    argv = lambda cyc: [op.argv for op in cyc[0]]  # noqa: E731
    assert argv(a) == argv(b) and argv(a) != argv(c)
    # the make-up of a cycle does not depend on the seed
    assert [op.kind for op in a[0]] == [op.kind for op in c[0]]


def _first(records, prefix, pred=lambda r: True):
    for rec in records:
        if " ".join(rec.argv).startswith(prefix) and pred(rec.report()):
            return rec.report(), rec.argv
    raise AssertionError(f"no {prefix} output")


def _perturbed(report, path, factor=None, delta=None):
    r = copy.deepcopy(report)
    node = r
    for key in path[:-1]:
        node = node[key]
    if factor is not None:
        node[path[-1]] *= factor
    else:
        node[path[-1]] += delta
    return r


# ------------------------------------------------------- analyze checks


@pytest.mark.parametrize("path,factor", [
    (("metrics", "purity"), 1 + 1e-6),
    (("metrics", "herald_rate"), 1 + 1e-6),
    (("theta_deg",), 1 + 1e-8),
    (("taylor", "tau_s"), 1 + 1e-5),
    (("taylor", "beta_i"), 1 + 1e-3),
])
def test_analyze_checks_catch_perturbations(outputs, path, factor):
    wl, records = outputs["analyze-mix"]
    r, argv = _first(records, "analyze --material BBO")
    assert W.check_analyze(wl.mats, r, argv) == []
    assert W.check_analyze(wl.mats, _perturbed(r, path, factor), argv)


def test_kdp_source_check(outputs):
    wl, records = outputs["analyze-mix"]
    r, argv = _first(records, "analyze " + " ".join(W.CANONICAL_KDP))
    bad = _perturbed(r, ("metrics", "K"), delta=0.1)
    bad["metrics"]["purity"] = 1.0 / bad["metrics"]["K"]
    assert any("KDP 830 nm" in e for e in W.check_analyze(wl.mats, bad, argv))


def test_schmidt_eigen_check(outputs):
    wl, records = outputs["analyze-mix"]
    r, _ = _first(records, "analyze --material KDP")
    assert W.check_schmidt_eig(wl.mats, r) == []
    assert W.check_schmidt_eig(wl.mats, _perturbed(r, ("metrics", "K"), 1 + 1e-6))


@pytest.mark.parametrize("family", ["kdp", "bbo", "ktp"])
@pytest.mark.parametrize("n", [64, 256, 512])
def test_gaussian_checks(family, n):
    # the fixed Gaussian-model sources of analyze-mix pass at every grid size
    argv = ["analyze", *W.GAUSSIAN_SOURCES[family], "--model", "gaussian", "--grid-n", str(n)]
    r = json.loads(W.call_inprocess(cli, argv)[1])
    assert W.check_gaussian(r, "") == []
    same_grid = W.check_gaussian(_perturbed(r, ("metrics", "purity"), 1 + 1e-6), "")
    assert any("same grid" in e for e in same_grid)
    closed = W.check_gaussian(_perturbed(r, ("metrics", "purity"), delta=-1e-3), "")
    assert any("closed form" in e for e in closed)


@pytest.mark.parametrize("n", [64, 256, 512])
def test_gaussian_check_reports_a_grid_that_misses_the_closed_form(n):
    # the default grid clips this source: purity 0.2350 against 0.1823
    argv = ["analyze", *W.GAUSSIAN_SOURCES["fault"], "--model", "gaussian", "--grid-n", str(n)]
    r = json.loads(W.call_inprocess(cli, argv)[1])
    errors = W.check_gaussian(r, "")
    assert len(errors) == 1 and "does not resolve the model" in errors[0]


def test_gaussian_closed_form_matches_a_converged_grid():
    t = {"tau_s": 0.8, "tau_i": -0.5, "beta_s": 0.01, "beta_i": -0.02, "beta_p": 0.03}
    sigma, chirp = 2.0, 0.05
    f, dnu = P.gaussian_jsa(t, sigma, chirp, 256, 12.0)
    assert P.gaussian_grid_resolves(t, sigma, chirp, 256, 12.0)
    lam = P.schmidt_weights_eig(f, dnu)
    assert abs(float((lam**2).sum()) - P.gaussian_purity(t, sigma, chirp)) < 1e-9
    # clipped at one width the grid no longer resolves the state
    assert not P.gaussian_grid_resolves(t, sigma, chirp, 256, 1.0)


# --------------------------------------------------- design-scan checks


@pytest.mark.parametrize("key,factor", [
    ("n", 1 + 1e-8), ("k_rad_um", 1 + 1e-8), ("k_prime_ps_um", 1 + 1e-8),
    ("k_double_prime_ps2_um", 1.01), ("walkoff_deg", 1 + 1e-8),
])
def test_materials_checks(outputs, key, factor):
    wl, records = outputs["design-scan"]
    r, argv = _first(records, "materials", lambda r: r["ray"] == "e" and r["theta_deg"] > 1)
    assert W.check_materials(wl.mats, r, argv) == []
    assert W.check_materials(wl.mats, _perturbed(r, (key,), factor), argv)


@pytest.mark.parametrize("key,factor", [
    ("gvm_wavelength_um", 1 + 1e-6),
    ("decorrelation_lo_um", 1 + 1e-6),
    ("decorrelation_hi_um", 1 - 1e-6),
])
def test_design_gvm_checks(outputs, key, factor):
    # KTP/QPM: both ends of the range are refined zeros of a mismatch
    wl, records = outputs["design-scan"]
    r, argv = _first(records, "design-gvm --material KTP --scheme qpm")
    assert W.check_design_gvm(wl.mats, r, argv) == []
    assert W.check_design_gvm(wl.mats, _perturbed(r, (key,), factor), argv)


@pytest.mark.parametrize("key,sign", [("decorrelation_lo_um", +1), ("decorrelation_hi_um", -1)])
def test_design_gvm_range_end_inside_the_window(outputs, key, sign):
    # a seeded window inside the range: its ends are the window's edges, and
    # an end moved a tenth of the window inwards is caught
    wl, records = outputs["design-scan"]
    r, argv = _first(records, "design-gvm --material KDP --scheme angle")
    assert W.check_design_gvm(wl.mats, r, argv) == []
    width = r["decorrelation_hi_um"] - r["decorrelation_lo_um"]
    bad = _perturbed(r, (key,), delta=sign * 0.1 * width)
    assert any("range end" in e for e in W.check_design_gvm(wl.mats, bad, argv))


def test_paper_values_check(outputs):
    wl, records = outputs["design-scan"]
    r, argv = _first(records, "design-gvm --material BBO --scheme angle")
    assert "--window-lo-um" not in argv
    bad = _perturbed(r, ("decorrelation_hi_um",), 1.03)
    assert any("paper" in e for e in W.check_design_gvm(wl.mats, bad, argv))


@pytest.mark.parametrize("path,factor", [
    (("theta_deg",), 1 + 1e-9),
    (("taylor", "tau_i"), 1 + 1e-3),
    (("factorizability", "gvm_residual"), 1 + 1e-6),
    (("factorizability", "cond1_residual"), 1 + 1e-6),
])
def test_design_asymmetric_checks(outputs, path, factor):
    wl, records = outputs["design-scan"]
    r, argv = _first(records, "design-asymmetric")
    assert W.check_design_asymmetric(wl.mats, r, argv) == []
    assert W.check_design_asymmetric(wl.mats, _perturbed(r, path, factor), argv)


@pytest.mark.parametrize("key,factor,delta", [
    ("h_um", 1 + 1e-8, None), ("h_min_um", 1 + 1e-8, None),
    ("gen_gvm_residual_ps", None, 1e-9), ("theta_c_rad", 1 + 1e-9, None),
])
def test_design_assembly_checks(outputs, key, factor, delta):
    wl, records = outputs["design-scan"]
    r, argv = _first(records, "design-assembly")
    assert W.check_design_assembly(wl.mats, r, argv) == []
    bad = _perturbed(r, ("design", key), factor, delta)
    if key == "h_min_um":
        bad["design"]["h_um"] = bad["design"]["m_integer"] * bad["design"]["h_min_um"]
    assert W.check_design_assembly(wl.mats, bad, argv)


# ----------------------------------------------- export-roundtrip checks


@pytest.fixture
def exported(tmp_path):
    argv = ["analyze", "--material", "KDP", "--lambda-nm", "830", "--length-mm", "20",
            "--pump-fwhm-nm", "5", "--grid-n", "64", "--out-dir", str(tmp_path)]
    assert W.call_inprocess(cli, argv)[0] == 0
    schmidt = ["schmidt", "--in", str(tmp_path / "jsa.bjsa"), "--modes-csv",
               str(tmp_path / "modes.csv")]
    assert W.call_inprocess(cli, schmidt)[0] == 0
    return tmp_path, W.analyze_grid(bp, argv)


def test_bjsa_check_catches_one_changed_byte(exported):
    d, ja = exported
    path = d / "jsa.bjsa"
    assert W.check_bjsa_file(path, ja) == []
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    assert W.check_bjsa_file(path, ja)


def test_csv_check_catches_one_changed_digit(exported):
    d, ja = exported
    path = d / "jsa.csv"
    assert W.check_csv_file(path, ja) == []
    lines = path.read_text().splitlines()
    row = lines[1000].split(",")
    # bump the leading significant digit of the real part
    i = next(k for k, ch in enumerate(row[2]) if ch in "12345678")
    row[2] = row[2][:i] + str(int(row[2][i]) + 1) + row[2][i + 1:]
    lines[1000] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert W.check_csv_file(path, ja)


def test_modes_csv_check(exported):
    d, ja = exported
    path = d / "modes.csv"
    assert W.check_modes_csv(path, ja.grid) == []
    lines = path.read_text().splitlines()
    scaled = [lines[0], lines[1]] + [
        ",".join([c[0]] + [repr(float(x) * 1.001) for x in c[1:]])
        for c in (ln.split(",") for ln in lines[2:])
    ]
    path.write_text("\n".join(scaled) + "\n")
    assert W.check_modes_csv(path, ja.grid)


def _round(outputs):
    wl, records = outputs["export-roundtrip"]
    return wl, [copy.copy(r) for r in records[:10]]


def test_export_round_checks_pass_and_catch_perturbations(outputs):
    wl, recs = _round(outputs)
    assert W.check_export_round(wl.mats, recs) == []
    # the CSV twin of a BJSA call must give identical JSON
    r = recs[4].report()
    r["lambdas"][0] *= 1 + 1e-12
    recs[4].out = json.dumps(r)
    assert any("CSV differs" in e for e in W.check_export_round(wl.mats, recs))


def test_export_round_checks_the_calls_left_by_a_failure(outputs):
    wl, recs = _round(outputs)
    # analyze and one BJSA call failed: the K of the others still agree, and
    # a top-hat purity off by 1e-6 is still caught
    recs[0] = recs[2] = None
    assert W.check_export_round(wl.mats, recs) == []
    r = recs[3].report()
    r["purity"] *= 1 + 1e-6
    recs[3].out = json.dumps(r)
    assert W.check_export_round(wl.mats, recs)
    # the whole check, files included, with the first analyze call missing
    _, records = outputs["export-roundtrip"]
    first = records[0].round_id
    assert wl.check(bp, [r for r in records if (r.round_id, r.pos) != (first, 0)]) == []


@pytest.mark.parametrize("index,key,factor", [
    (3, "purity", 1 + 1e-6),       # top-hat wider than the grid: purity = 1/K
    (3, "herald_rate", 1 + 1e-6),  # ... and rate 1
    (2, "herald_rate", 1e3),       # Gaussian filter: rate in (0, 1]
    (1, "K", 1 + 1e-9),            # K on the grid equals analyze's K
])
def test_filtered_schmidt_checks(outputs, index, key, factor):
    wl, recs = _round(outputs)
    r = recs[index].report()
    r[key] *= factor
    recs[index].out = json.dumps(r)
    assert W.check_export_round(wl.mats, recs)


# ------------------------------------------------------ cli-cold and schema


def test_cold_check_compares_bytes(outputs):
    wl, records = outputs["cli-cold"]
    recs = [copy.copy(r) for r in records]
    assert wl.check(bp, recs) == []
    recs[0].out = recs[0].out.replace("\n", " \n", 1)
    assert wl.check(bp, recs)


def test_schema_check(outputs):
    wl, records = outputs["design-scan"]
    rec = copy.copy(records[0])
    doc = rec.report()
    del doc["material"]
    rec.out = json.dumps(doc)
    assert any(e.startswith("schema") for e in W.check_records(wl, bp, [rec], VALIDATOR)[0])


# ------------------------------------------------------------------ tracer


def test_tracer_wraps_every_binding_and_restores():
    import biphoton.cli
    import biphoton.jsa
    import biphoton.materials

    orig = biphoton.materials.wavenumber
    t = tracing.Tracer()
    t.install()
    try:
        wrapped = biphoton.materials.wavenumber
        assert wrapped is not orig
        assert biphoton.jsa.wavenumber is wrapped and bp.wavenumber is wrapped
        rc, _, _ = W.call_inprocess(biphoton.cli, ["materials", "--material", "BBO", "--ray",
                                                   "e", "--lambda-nm", "800"])
    finally:
        t.uninstall()
    assert rc == 0 and biphoton.materials.wavenumber is orig and bp.wavenumber is orig
    m = t.metrics(traced_ops=1)
    assert m["cli.main.calls"][0] == 1
    assert m["materials.wavenumber.calls"][0] > 0
    spans = {s["id"]: s for s in t.dump()}
    main = [s for s in spans.values() if s["name"] == "cli.main"][0]
    children = [s for s in spans.values() if s["parent"] == main["id"]]
    covered = sum(s["end_ms"] - s["start_ms"] for s in children)
    assert m["cli.main.self_ms"][0] == pytest.approx(main["end_ms"] - main["start_ms"] - covered,
                                                     rel=1e-6, abs=1e-6)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       200 |        300 |       scipy",
        "import time:       400 |        700 |     scipy.optimize",
        "import time:        50 |         50 |     biphoton.errors",
        "import time:        10 |        760 |   biphoton",
        "import time:         5 |          5 | json",
    ])
    assert tracing.parse_importtime(text) == (0.76, 0.7)


# ----------------------------------------------------------------- command


def test_command_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0 and '"correct"' not in p.stdout


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    names = {m["name"] for m in spec["per_layer"]}
    traced = set(tracing.Tracer().metrics(1)) | {
        "trace.ops", "trace.overhead_pct", "import.biphoton_ms", "import.scipy_ms"}
    assert names == traced


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_one_result_line(trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-scan", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in spec["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert result["attempted"] >= 100
