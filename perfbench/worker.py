"""One benchmark process: set up, run a workload's timed loop, check, report.

Started by `run.py` as `python -m perfbench.worker` from the checkout root.
It writes `READY` on stdout once set-up is done (a `--probe` worker exits
there), then one JSON line with the run's counts, metrics and environment.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from perfbench.tracing import Tracer, parse_importtime

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100


def cpu_seconds(*who):
    total = 0.0
    for w in who:
        ru = resource.getrusage(w)
        total += ru.ru_utime + ru.ru_stime
    return total


class Runner:
    """Executes rounds of operations and keeps one Record per call."""

    def __init__(self, workload, cli, W, tracer=None):
        self.W = W
        self.tracer = tracer
        self.records = []
        self.rounds = 0
        self.import_ms = []  # (biphoton, scipy) per traced child process
        if workload.in_process:
            self.cpu_who = (resource.RUSAGE_SELF,)
            self._call = lambda argv, traced: W.call_inprocess(cli, argv)
        else:
            self.cpu_who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
            env = dict(os.environ)
            src = str(ROOT / "src")
            env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
            self.env = env
            self._call = self._child

    def _child(self, argv, traced):
        cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + ["-m", "biphoton", *argv]
        p = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60)
        if traced:
            parsed = parse_importtime(p.stderr)
            if parsed:
                self.import_ms.append(parsed)
        return p.returncode, p.stdout, p.stderr

    def run_round(self, ops, cycle, traced=False):
        recs = []
        for op in ops:
            if self.tracer is not None:
                self.tracer.request = len(self.records) + len(recs)
            c0, t0 = cpu_seconds(*self.cpu_who), time.perf_counter()
            argv = []
            try:
                argv = op.resolve(recs)
                rc, out, err = self._call(argv, traced)
            except Exception:  # a failed call is counted, and the loop goes on
                rc, out, err = -1, "", traceback.format_exc()
            t1, c1 = time.perf_counter(), cpu_seconds(*self.cpu_who)
            recs.append(self.W.Record(op, argv, rc, out, err, t1 - t0, c1 - c0, cycle, self.rounds,
                                      traced, len(recs)))
        self.rounds += 1
        return recs


def remove_tree(path):
    """Delete the run's scratch files and wait until the deletion is on disk,
    so that freeing their blocks does not stall the next run."""
    shutil.rmtree(path, ignore_errors=True)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def percentile(values, q):
    """Linear-interpolated q-th percentile (q in 1..99)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment():
    import importlib.util

    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):  # show_config differs between numpy versions
        pass
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": threads,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    proto = sys.stdout

    # the package under test is imported first, so that its import stands alone
    sys.path.insert(0, str(ROOT / "src"))
    import biphoton as bp
    from biphoton import cli

    if Path(bp.__file__).resolve().parent != (ROOT / "src" / "biphoton").resolve():
        sys.stderr.write(f"imported biphoton from {bp.__file__}, not from this checkout\n")
        return 2
    from perfbench import workloads as W

    bp.load_database()
    tmp = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = W.WORKLOADS[args.workload](args.seed, ROOT, tmp)
        tracer = Tracer() if args.trace else None
        runner = Runner(wl, cli, W, tracer)
        for rnd in wl.warmup_ops():
            warm = runner.run_round(rnd, cycle=-1)
            bad = [r for r in warm if r.rc != 0]
            if bad:
                sys.stderr.write(f"warm-up call failed: {' '.join(bad[0].argv)}\n{bad[0].err}")
                return 1
        proto.write("READY\n")
        proto.flush()
        if args.probe:
            return 0
        result = timed_run(args, wl, runner, tracer, bp)
    finally:
        remove_tree(tmp)
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


def timed_run(args, wl, runner, tracer, bp):
    W = runner.W
    loop_t0 = time.perf_counter()
    traced_s = untraced_s = 0.0
    cycle = 0
    while True:
        if tracer is None:
            for ops in wl.cycle(cycle):
                runner.records += runner.run_round(ops, cycle)
        else:
            # the same inputs twice: untraced, then traced, for the overhead
            for ops, twin in zip(wl.cycle(cycle), wl.cycle(cycle, variant="-traced")):
                plain = runner.run_round(ops, cycle)
                untraced_s += sum(r.wall_s for r in plain)
                tracer.install()
                try:
                    traced = runner.run_round(twin, cycle, traced=True)
                finally:
                    tracer.uninstall()
                traced_s += sum(r.wall_s for r in traced)
                runner.records += plain + traced
        cycle += 1
        elapsed = time.perf_counter() - loop_t0
        if elapsed >= args.seconds and (tracer is not None or len(runner.records) >= MIN_OPS):
            break
    loop_s = time.perf_counter() - loop_t0
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_kib = resource.getrusage(who).ru_maxrss

    records = runner.records
    errors, faults = W.check_records(wl, bp, records, W.load_schema_validator(ROOT))
    failed = sum(1 for r in records if r.rc != 0) + len(faults)
    walls = [r.wall_s for r in records]
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r.wall_s * 1e3)
    result = {
        "attempted": len(records),
        "failed": failed,
        "errors": errors[:20],
        "n_errors": len(errors),
        "cycles": cycle,
        "loop_s": loop_s,
        "env": environment(),
        "median_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "failures": [{"argv": r.argv, "rc": r.rc, "stderr": r.err[-2000:]}
                     for r in records if r.rc != 0][:5],
        "known_faults": [{"argv": r.argv, "fault": r.op.fault, "errors": errs[:3]}
                         for r, errs in faults][:5],
    }
    if tracer is None:
        ok = len(records) - failed
        result["metrics"] = {
            "ops_per_s": (ok / sum(walls), "ops/s"),
            "op_p50_ms": (percentile(walls, 50) * 1e3, "ms"),
            "op_p90_ms": (percentile(walls, 90) * 1e3, "ms"),
            "cpu_ms_per_op": (sum(r.cpu_s for r in records) / len(records) * 1e3, "ms"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        }
        return result
    traced_ops = sum(1 for r in records if r.traced)
    metrics = tracer.metrics(traced_ops)
    metrics["trace.ops"] = (traced_ops, "count")
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    if runner.import_ms:
        metrics["import.biphoton_ms"] = (statistics.median(b for b, _ in runner.import_ms), "ms")
        metrics["import.scipy_ms"] = (statistics.median(s for _, s in runner.import_ms), "ms")
    result["metrics"] = metrics
    trace_dir = ROOT / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.dump()}),
        encoding="utf-8",
    )
    return result


if __name__ == "__main__":
    raise SystemExit(main())
