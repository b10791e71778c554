"""Closed-loop runner for one workload, started in a fresh process by run.py.

One client calls the CLI in-process through ``nonlocal_spectra.cli.main``
(the seminorm pair through ``spectral_core``), one operation after the
other, pass after pass.  Only the passes are timed; checks and artifact
hashing run between them.  Writes its result as JSON to <workdir>/result.json.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import struct
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy import fft as sfft  # noqa: E402

from checks import KernelOracles, check_cli, check_seminorm  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import operations  # noqa: E402

# Hard cap on the measuring phases, so a slow machine still ends the run
# well inside the 180 s a run may take.
PHASE_CAP_S = 120.0
MIN_PASSES = 3
CAL_FIRST_S = 0.3
CAL_SHARE = 0.05
CAL_GROUP_S = 0.25


def band_limited_field(d, n, L, seed, kmax_frac=0.25):
    """Unit-norm random real field with spectrum below kmax_frac * Nyquist.

    Same values as ``experiments.random_band_limited``, but kept here
    so that a change to the program cannot change the benchmark's inputs.
    """
    rng = np.random.default_rng(seed)
    shape = (n,) * (d - 1) + (n // 2 + 1,)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full = 2.0 * math.pi * np.fft.fftfreq(n, d=L / n)
    half = 2.0 * math.pi * np.fft.rfftfreq(n, d=L / n)
    mesh = np.meshgrid(*([full] * (d - 1) + [half]), indexing="ij")
    spec[np.sqrt(sum(k * k for k in mesh)) > kmax_frac * math.pi * n / L] = 0.0
    values = np.fft.irfftn(spec, s=(n,) * d, axes=tuple(range(d)))
    return values / math.sqrt((L / n) ** d * float(np.sum(values ** 2)))


def calibration_s(min_seconds):
    """Mean wall time of a fixed FFT-and-interpreter kernel (about 60 ms),
    repeated for at least ``min_seconds``.

    It runs none of the program's code and not the numpy.fft entry points
    the traced run wraps.  A shared virtual machine can change speed by up
    to half, from one tenth of a second to the next and for minutes at a
    time, so operation times are also divided by the calibrations just
    before and after them (see README.md).
    """
    runs, t0 = 0, time.perf_counter()
    while True:
        x = _CAL_FIELD
        for _ in range(1300):
            x = sfft.irfft(sfft.rfft(x) * 0.999, n=x.size)
        k = 0
        for i in range(150000):
            k += i * i
        runs += 1
        total = time.perf_counter() - t0
        if total >= min_seconds:
            return total / runs


_CAL_FIELD = np.cos(np.arange(2048.0))


def _digest(out):
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload, seed, workdir):
        from nonlocal_spectra import bernstein_kernels, cli, spectral_core
        self.cli, self.sc = cli, spectral_core
        self.seed = seed
        self.workdir = workdir
        self.ops = operations(workload)
        self.oracles = KernelOracles()
        self.inputs = {}
        for op in self.ops:
            if op.config is None:
                sym, d, n, L = op.seminorm
                grid = spectral_core.Grid(d=d, n=n, L=L)
                values = band_limited_field(d, n, L, seed)
                self.inputs[op.name] = (
                    bernstein_kernels.BernsteinSymbol.relativistic(sym["m"], sym["alpha"]),
                    spectral_core.Field(grid=grid, values=values))
            elif op.config["command"] == "kernel-table":
                kernel = op.config["kernel"]
                if kernel["id"] != "resolvent":
                    # Outside the timed region.
                    self.oracles.table(kernel["id"], op.config["grid"]["d"],
                                       op.config["symbol"])
        self.first_digest = {}
        self.attempted = self.failed = 0
        self.correct = True
        self.failures = []
        self.residual_max = self.oracle_err_max = 0.0
        self.gap_ratio = None
        self.passes = 0

    def run_pass(self, tracer=None):
        """Returns the pass's wall seconds (calibrations excluded) and the
        same in calibration units.  A calibration follows every group of
        consecutive operations that took at least CAL_GROUP_S."""
        out_root = self.workdir / f"pass{self.passes}"
        records = []
        wall = calibrated = group = 0.0
        cal_before = calibration_s(CAL_FIRST_S)
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            span = tracer.span("cli.main" if op.config else "seminorm") \
                if tracer else contextlib.nullcontext()
            with span:
                if op.config is not None:
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        rc = self.cli.main(["--config", str(self.workdir / "configs" / f"{op.name}.json"),
                                            "--output", str(out_root / op.name),
                                            "--seed", str(self.seed)])
                    records.append((op, rc, err.getvalue().strip(), None))
                else:
                    symbol, field = self.inputs[op.name]
                    try:
                        value = (self.sc.seminorm_direct(symbol, field),
                                 self.sc.seminorm_fourier(symbol, field))
                        records.append((op, 0, "", value))
                    except Exception as exc:
                        records.append((op, 1, f"{type(exc).__name__}: {exc}", None))
            elapsed = time.perf_counter() - t0
            wall += elapsed
            group += elapsed
            if group >= CAL_GROUP_S or i == len(self.ops) - 1:
                # Longer groups of operations get longer calibrations.
                cal_after = calibration_s(CAL_SHARE * group)
                calibrated += 2.0 * group / (cal_before + cal_after)
                cal_before, group = cal_after, 0.0
        if tracer:
            tracer.end_pass()
        for op, rc, message, value in records:
            self._account(op, rc, message, value, out_root / op.name)
        shutil.rmtree(out_root, ignore_errors=True)
        self.passes += 1
        return wall, calibrated

    def _fail(self, op, message, wrong_output):
        self.correct = self.correct and not wrong_output
        note = f"{op.name}: {message}"
        if note not in self.failures:
            self.failures.append(note)

    def _account(self, op, rc, message, value, out):
        self.attempted += 1
        problems = []
        if rc != 0:
            problems.append((f"exit {rc} {message}".strip(), False))
        outcome = None
        if rc != 1:
            try:
                if op.config is None:
                    outcome = check_seminorm(*value)
                    digest = struct.pack("<2d", *value).hex()
                else:
                    outcome = check_cli(op, out, self.oracles)
                    digest = _digest(out)
            except Exception as exc:  # unreadable or missing artifact
                problems.append((f"check raised {type(exc).__name__}: {exc}", True))
                digest = None
            first = self.first_digest.setdefault(op.name, digest)
            if digest != first:
                problems.append(("artifacts differ from the first pass's", True))
        if outcome is not None:
            problems += [(f, True) for f in outcome.failures]
            if outcome.residual is not None:
                self.residual_max = max(self.residual_max, outcome.residual)
            if outcome.oracle_err is not None:
                self.oracle_err_max = max(self.oracle_err_max, outcome.oracle_err)
            if outcome.gap_ratio is not None:
                self.gap_ratio = outcome.gap_ratio
        if problems:
            self.failed += 1
            for text, wrong in problems:
                self._fail(op, text, wrong)

    def run_phase(self, budget, min_passes, tracer=None):
        """Passes until the next one would end past ``budget`` seconds.

        Returns the pass wall times and the same in calibration units.
        """
        times, calibrated = [], []
        start = time.perf_counter()
        while True:
            if times:
                # Calibrations and checks included.
                next_end = (time.perf_counter() - start) * (len(times) + 1) / len(times)
                if next_end > PHASE_CAP_S or (len(times) >= min_passes
                                              and next_end > budget):
                    return times, calibrated
            wall, cal = self.run_pass(tracer)
            times.append(wall)
            calibrated.append(cal)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import nonlocal_spectra
    src = (ROOT / "src").resolve()
    if src not in Path(nonlocal_spectra.__file__).resolve().parents:
        raise SystemExit(f"nonlocal_spectra imported from outside {src}")

    runner = Runner(args.workload, args.seed, Path(args.workdir))
    # One untimed pass fills lazy imports, caches and the allocator's free
    # lists; its outputs are checked and are the byte-identity reference.
    runner.run_pass()
    result = {}
    if args.trace:
        # Untraced and traced halves of the same run give trace_overhead.
        plain, plain_cal = runner.run_phase(args.seconds / 2.0, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_cal = runner.run_phase(args.seconds / 2.0, 1, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.metrics(len(traced))
        layers["run.trace_overhead"] = \
            statistics.median(traced_cal) / statistics.median(plain_cal) - 1.0
        layers["run.pass_s.p50"] = statistics.median(plain)
        layers["run.pass_cal.p50"] = statistics.median(plain_cal)
        result.update(pass_s=plain, pass_cal=plain_cal, traced_pass_s=traced,
                      per_layer=layers)
        if args.spans:
            tracer.save(args.spans)
    else:
        result["pass_s"], result["pass_cal"] = runner.run_phase(args.seconds, MIN_PASSES)
    result.update(
        attempted=runner.attempted, failed=runner.failed, correct=runner.correct,
        failures=runner.failures, residual_max=runner.residual_max,
        oracle_err_max=runner.oracle_err_max, gap_ratio=runner.gap_ratio,
        ops_per_pass=len(runner.ops),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    (Path(args.workdir) / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
