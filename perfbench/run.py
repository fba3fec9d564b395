#!/usr/bin/env python3
"""End-to-end benchmark of the `biphoton` package: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/biphoton`. Set-up is repeated in
SETUP_RUNS fresh worker processes and `setup_s` is their median; the last
worker then runs the timed loop. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; with `--trace 1` the
metrics are the per-layer ones. A copy with the environment goes to
`.perfbench/results/`. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze-mix", "design-scan", "export-roundtrip", "cli-cold")
SETUP_RUNS = 3
#: every run must end within 180 s
DEADLINE_S = 170.0


def start_worker(args, probe, log_path):
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += ["-m", "perfbench.worker", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    # stderr goes to a file: importtime output would fill a pipe. The worker
    # leads its own process group, so a kill also reaches its children.
    with open(log_path, "w", encoding="utf-8") as log:
        return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True,
                                start_new_session=True)


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(args, probe, log_path, deadline):
    """(set-up seconds, the worker's final stdout line or None)."""
    t0 = time.perf_counter()
    proc = start_worker(args, probe, log_path)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc,))
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        _kill_group(proc)  # whatever is left of the group once the worker is done
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or rc != 0:
        tail = Path(log_path).read_text(encoding="utf-8", errors="replace")[-3000:]
        raise RuntimeError(f"worker exited with {rc} before finishing:\n{tail}")
    lines = rest.strip().splitlines()
    return setup_s, (lines[-1] if lines else None)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "biphoton" / "__init__.py").is_file():
        sys.stderr.write(f"no biphoton sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".perfbench"
    for sub in ("logs", "results"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    runs = 1 if args.trace else SETUP_RUNS
    setups = []
    line = None
    try:
        for i in range(runs):
            log = out_dir / "logs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{i}.log"
            setup_s, line = run_worker(args, i < runs - 1, log, deadline)
            setups.append(setup_s)
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    if line is None:
        sys.stderr.write("worker printed no result\n")
        return 1
    worker = json.loads(line)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in worker["metrics"].items()}
    if args.trace:
        if "import.biphoton_ms" not in metrics:
            from perfbench.tracing import parse_importtime

            parsed = parse_importtime(log.read_text(encoding="utf-8", errors="replace"))
            if parsed:
                metrics["import.biphoton_ms"] = {"value": parsed[0], "unit": "ms"}
                metrics["import.scipy_ms"] = {"value": parsed[1], "unit": "ms"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    result = {
        "correct": worker["n_errors"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **{k: worker[k] for k in ("env", "cycles", "loop_s", "errors", "n_errors",
                                  "median_ms_by_kind", "failures", "known_faults")},
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (out_dir / "results" / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for err in worker["errors"]:
        sys.stderr.write(f"check failed: {err}\n")
    for f in worker["known_faults"][:1]:
        sys.stderr.write(f"known fault, counted in failed: {f['fault']}: {' '.join(f['argv'])}\n")
    env = worker["env"]
    print(f"# {args.workload} seed={args.seed} cycles={worker['cycles']} "
          f"loop={worker['loop_s']:.1f}s python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"nproc={env['nproc']}")
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    raise SystemExit(main())
