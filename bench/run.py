"""Benchmark of nonlocal-spectra: runs one workload and prints its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {solve-1d,solve-2d,kernels} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  The lines before it are a readable report.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

RUN_DIR = ROOT / ".bench_run"
DEADLINE_S = 170.0
SETUP_PROBES = 3
# One thread everywhere: steadier timings on a shared two-core machine, and
# the sweep's --threads stays at its default of 1.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NONLOCAL_SPECTRA_THREADS")}
END_TO_END = (("pass_cal.p50", "cal"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_ratio", "ratio"), ("err_max", "rel"))


def _remaining(start):
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise TimeoutError("benchmark deadline reached")
    return left


def write_configs(workload, directory):
    directory.mkdir(parents=True)
    paths = []
    for op in operations(workload):
        if op.config is not None:
            path = directory / f"{op.name}.json"
            path.write_text(json.dumps(op.config))
            paths.append(str(path))
    return paths


def measure_setup(configs, env, start):
    """Median wall time of fresh interpreters importing the CLI and loading
    the configs; one unmeasured probe first fills the bytecode cache (where
    Python writes one)."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *configs],
                       env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=_remaining(start))
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def report(args, res, metrics, units):
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
             f"{len(res['pass_s'])} passes of {res['ops_per_pass']} operations, "
             f"{res['attempted']} attempted, {res['failed']} failed, "
             f"correct={res['correct']}"]
    lines.append(f"  pass seconds: {' '.join(f'{t:.3f}' for t in res['pass_s'])}"
                 + (f"; traced: {' '.join(f'{t:.3f}' for t in res['traced_pass_s'])}"
                    if "traced_pass_s" in res else "")
                 + f"; calibrated: {' '.join(f'{t:.2f}' for t in res['pass_cal'])}")
    lines.append(f"  {'pass_s.p50':52s} {statistics.median(res['pass_s'])!r} s "
                 f"({len(res['pass_s'])} passes)")
    fail_ratio = res["failed"] / res["attempted"]
    lines.append(f"  {'fail_ratio':52s} {fail_ratio!r} ratio ({res['failed']}/{res['attempted']})")
    if args.workload.startswith("solve"):
        lines.append(f"  {'residual_max':52s} {res['residual_max']!r} rel")
    else:
        lines.append(f"  {'oracle_err_max':52s} {res['oracle_err_max']!r} rel")
    if res["gap_ratio"] is not None:
        lines.append(f"  {'criterion10_final_gap / lambda_D (reported only)':52s} "
                     f"{res['gap_ratio']!r}")
    for name, value in metrics.items():
        lines.append(f"  {name:52s} {value!r} {units[name]}")
    for note in res["failures"][:20]:
        lines.append(f"  failure: {note}")
    print("\n".join(lines))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    # SystemExit inside subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "nonlocal_spectra" / "cli.py").is_file():
        print(f"error: no nonlocal_spectra sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RUN_DIR))
    env = dict(os.environ, **THREAD_ENV)
    try:
        configs = write_configs(args.workload, workdir / "configs")
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = measure_setup(configs, env, start)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
        if args.trace:
            cmd += ["--spans", str(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.npz")]
        subprocess.run(cmd, env=env, check=True, stdout=sys.stderr,
                       timeout=_remaining(start))
        res = json.loads((workdir / "result.json").read_text())
    except (subprocess.SubprocessError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = dict(LAYER_METRICS)
        metrics = {name: res["per_layer"][name] for name, _ in LAYER_METRICS}
    else:
        units = dict(END_TO_END)
        metrics.update({
            "pass_cal.p50": statistics.median(res["pass_cal"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_ratio": 1.0 - res["failed"] / res["attempted"],
            "err_max": max(res["residual_max"], res["oracle_err_max"]),
        })
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    report(args, res, metrics, units)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
