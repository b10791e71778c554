"""Span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files on the names the
consuming modules bind (``cli.ground_state``, ``experiments.ground_state``,
``eigensolver.dirichlet_form``, ``BernsteinSymbol.evaluate``,
``numpy.fft.rfftn``, ...), so nothing under ``src/`` changes.  Spans
(name, start, end, parent) are kept in flat in-memory arrays and written
out when the run ends; self time is a span's duration minus its children's.
"""

import os
import resource
import sys
import time
from array import array
from collections import Counter

import numpy as np

PKG = "nonlocal_spectra"

# (module, attribute) -> span name.  Every module of the package that binds
# the same function object gets the same wrapper.
TARGETS = {
    ("special_functions", "bessel_k"): "special_functions.bessel_k",
    ("special_functions", "bessel_k_grid"): "special_functions.bessel_k_grid",
    ("bernstein_kernels", "sigma"): "bernstein_kernels.sigma",
    ("bernstein_kernels", "heat_kernel_profile"):
        "bernstein_kernels.heat_kernel_profile",
    ("bernstein_kernels", "resolvent_kernel"): "bernstein_kernels.resolvent_kernel",
    ("bernstein_kernels", "tanh_sinh_quadrature"):
        "bernstein_kernels.tanh_sinh_quadrature",
    ("bernstein_kernels", "build_kernel_table"): "bernstein_kernels.build_kernel_table",
    ("spectral_core", "dirichlet_form"): "spectral_core.dirichlet_form",
    ("spectral_core", "apply_multiplier"): "spectral_core.apply_multiplier",
    ("spectral_core", "multiplier_values"): "spectral_core.multiplier_values",
    ("spectral_core", "seminorm_direct"): "spectral_core.seminorm_direct",
    ("spectral_core", "seminorm_fourier"): "spectral_core.seminorm_fourier",
    ("potentials", "sharp_well"): "potentials.sharp_well",
    ("potentials", "mollified_well"): "potentials.mollified_well",
    ("potentials", "anharmonic"): "potentials.anharmonic",
    ("eigensolver", "ground_state"): "eigensolver.ground_state",
    ("eigensolver", "dirichlet_ground_state"): "eigensolver.dirichlet_ground_state",
    ("experiments", "stability_sweep"): "experiments.stability_sweep",
    ("experiments", "anharmonic_to_dirichlet"): "experiments.anharmonic_to_dirichlet",
    ("experiments", "symmetry_check"): "experiments.symmetry_check",
    ("experiments", "monotonicity_check"): "experiments.monotonicity_check",
    ("experiments", "antisymmetric_minimum_check"):
        "experiments.antisymmetric_minimum_check",
    ("experiments", "embedding_tail_check"): "experiments.embedding_tail_check",
    ("io_utils", "write_csv"): "io_utils.write_csv",
    ("io_utils", "write_json"): "io_utils.write_json",
    ("io_utils", "write_field"): "io_utils.write_field",
    ("io_utils", "write_manifest"): "io_utils.write_manifest",
    ("io_utils", "write_kernel_table"): "io_utils.write_kernel_table",
    ("io_utils", "write_radial_profile"): "io_utils.write_radial_profile",
    ("cli", "parse_config"): "cli.parse_config",
    ("cli", "dispatch"): "cli.dispatch",
}
FFT_NAMES = ("rfftn", "irfftn", "rfft", "irfft")
POTENTIAL_BUILDERS = ("potentials.sharp_well", "potentials.mollified_well",
                      "potentials.anharmonic")

# Per-layer metrics in the order they are printed, with units.  Counts and
# seconds are per traced pass.
LAYER_METRICS = (
    ("special_functions.bessel_k_grid.calls", "count"),
    ("special_functions.bessel_k_grid.points", "count"),
    ("special_functions.bessel_k_grid.s", "s"),
    ("special_functions.bessel_k.calls", "count"),
    ("special_functions.bessel_k.s", "s"),
    ("special_functions.quadrature_errors", "count"),
    ("bernstein_kernels.sigma.s", "s"),
    ("bernstein_kernels.sigma.radii", "count"),
    ("bernstein_kernels.heat_kernel_profile.s", "s"),
    ("bernstein_kernels.heat_kernel_profile.rss_growth_mb", "MB"),
    ("bernstein_kernels.resolvent_kernel.calls", "count"),
    ("bernstein_kernels.resolvent_kernel.failed", "count"),
    ("bernstein_kernels.resolvent_kernel.s", "s"),
    ("bernstein_kernels.tanh_sinh_quadrature.calls", "count"),
    ("bernstein_kernels.evaluate.calls", "count"),
    ("bernstein_kernels.evaluate.points", "count"),
    ("bernstein_kernels.evaluate.s", "s"),
    ("spectral_core.dirichlet_form.calls", "count"),
    ("spectral_core.dirichlet_form.self_s", "s"),
    ("spectral_core.dirichlet_form.share_of_ground_state", "ratio"),
    ("spectral_core.apply_multiplier.calls", "count"),
    ("spectral_core.apply_multiplier.self_s", "s"),
    ("spectral_core.multiplier_values.calls", "count"),
    ("spectral_core.multiplier_values.useful_ratio", "ratio"),
    ("spectral_core.seminorm_direct.s", "s"),
    ("spectral_core.seminorm_fourier.s", "s"),
    ("spectral_core.fft.calls", "count"),
    ("spectral_core.fft.s", "s"),
    ("spectral_core.fft.per_iter", "count/iter"),
    ("spectral_core.fft.bytes_computed", "B"),
    ("potentials.build.s", "s"),
    ("potentials.mollified_well.calls", "count"),
    ("eigensolver.ground_state.calls", "count"),
    ("eigensolver.ground_state.self_s", "s"),
    ("eigensolver.ground_state.iters", "count"),
    ("eigensolver.ground_state.us_per_iter", "us"),
    ("eigensolver.ground_state.converged_ratio", "ratio"),
    ("eigensolver.dirichlet_ground_state.calls", "count"),
    ("experiments.stability_sweep.self_s", "s"),
    ("experiments.anharmonic_to_dirichlet.self_s", "s"),
    ("experiments.symmetry_check.s", "s"),
    ("experiments.monotonicity_check.s", "s"),
    ("experiments.antisymmetric_minimum_check.s", "s"),
    ("experiments.embedding_tail_check.s", "s"),
    ("io_utils.write.calls", "count"),
    ("io_utils.write.bytes", "B"),
    ("io_utils.write.s", "s"),
    ("cli.parse_config.s", "s"),
    ("cli.dispatch.self_s", "s"),
    ("run.trace_overhead", "ratio"),
    ("run.pass_s.p50", "s"),
    ("run.pass_cal.p50", "cal"),
)

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _current_rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _peak_rss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _written_bytes(out):
    paths = out if isinstance(out, tuple) else (out,)
    return sum(p.stat().st_size for p in paths)


class Tracer:
    """Records spans around wrapped calls and the counts their hooks add."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.multiplier_keys = set()
        self._restore = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None, before=None):
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock, nan = self.stack, time.perf_counter, float("nan")

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(nan)
            stack.append(idx)
            pre = before() if before else None
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                self._failed(name, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if after:
                after(self, args, out, pre)
            return out

        return wrapper

    def span(self, name):
        return _Span(self, self.name_id(name))

    def _failed(self, name, exc):
        self.counts[name + ".failed"] += 1
        if type(exc).__name__ == "QuadratureError" \
                and not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.counts["quadrature_errors"] += 1

    def end_pass(self):
        self.counts["multiplier_values.distinct"] += len(self.multiplier_keys)
        self.multiplier_keys.clear()

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == PKG or k.startswith(PKG + ".")]
        for (mod, attr), name in TARGETS.items():
            orig = getattr(sys.modules[f"{PKG}.{mod}"], attr)
            wrapper = self.wrap(name, orig, after=_AFTER.get(name),
                                before=_BEFORE.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, key, wrapper)
        symbol_cls = sys.modules[f"{PKG}.bernstein_kernels"].BernsteinSymbol
        evaluate = self.wrap("bernstein_kernels.evaluate", symbol_cls.evaluate,
                             after=_after_evaluate)
        self._set(symbol_cls, "evaluate", evaluate)
        self._set(symbol_cls, "__call__", evaluate)
        for attr in FFT_NAMES:
            self._set(np.fft, attr, self.wrap(f"fft.{attr}", getattr(np.fft, attr),
                                              after=_after_fft))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output ---------------------------------------------------------

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))

    def metrics(self, passes):
        """Per-layer metrics per traced pass (``run.trace_overhead`` is
        added by the caller)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        k = len(self.names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)

        def ids(*names):
            return [self._ids[n] for n in names if n in self._ids]

        def pick(arr, *names):
            return float(sum(arr[i] for i in ids(*names)))

        fft = ids(*(f"fft.{a}" for a in FFT_NAMES))
        io = ids(*(n for n in TARGETS.values() if n.startswith("io_utils.")))
        outer_io = np.isin(name, io) & ~np.isin(parent_name, io)
        gs = self._ids.get("eigensolver.ground_state", -1)
        # A span's parent was opened before it, so one forward sweep marks
        # every span below a ground_state span.
        in_gs = np.zeros(len(name), dtype=bool)
        for i in np.flatnonzero(nested):
            p = parent[i]
            in_gs[i] = in_gs[p] or name[p] == gs
        fft_in_gs = int(np.count_nonzero(np.isin(name, fft) & in_gs))

        c = self.counts
        gs_s = pick(total, "eigensolver.ground_state")
        iters = c["ground_state.iters"]
        mv_calls = pick(calls, "spectral_core.multiplier_values")
        gs_calls = pick(calls, "eigensolver.ground_state")
        per_pass = {
            "special_functions.bessel_k_grid.calls": pick(calls, "special_functions.bessel_k_grid"),
            "special_functions.bessel_k_grid.points": c["bessel_k_grid.points"],
            "special_functions.bessel_k_grid.s": pick(total, "special_functions.bessel_k_grid"),
            "special_functions.bessel_k.calls": pick(calls, "special_functions.bessel_k"),
            "special_functions.bessel_k.s": pick(total, "special_functions.bessel_k"),
            "special_functions.quadrature_errors": c["quadrature_errors"],
            "bernstein_kernels.sigma.s": pick(total, "bernstein_kernels.sigma"),
            "bernstein_kernels.sigma.radii": c["sigma.radii"],
            "bernstein_kernels.heat_kernel_profile.s": pick(total, "bernstein_kernels.heat_kernel_profile"),
            "bernstein_kernels.resolvent_kernel.calls": pick(calls, "bernstein_kernels.resolvent_kernel"),
            "bernstein_kernels.resolvent_kernel.failed": c["bernstein_kernels.resolvent_kernel.failed"],
            "bernstein_kernels.resolvent_kernel.s": pick(total, "bernstein_kernels.resolvent_kernel"),
            "bernstein_kernels.tanh_sinh_quadrature.calls": pick(calls, "bernstein_kernels.tanh_sinh_quadrature"),
            "bernstein_kernels.evaluate.calls": pick(calls, "bernstein_kernels.evaluate"),
            "bernstein_kernels.evaluate.points": c["evaluate.points"],
            "bernstein_kernels.evaluate.s": pick(total, "bernstein_kernels.evaluate"),
            "spectral_core.dirichlet_form.calls": pick(calls, "spectral_core.dirichlet_form"),
            "spectral_core.dirichlet_form.self_s": pick(self_s, "spectral_core.dirichlet_form"),
            "spectral_core.apply_multiplier.calls": pick(calls, "spectral_core.apply_multiplier"),
            "spectral_core.apply_multiplier.self_s": pick(self_s, "spectral_core.apply_multiplier"),
            "spectral_core.multiplier_values.calls": mv_calls,
            "spectral_core.seminorm_direct.s": pick(total, "spectral_core.seminorm_direct"),
            "spectral_core.seminorm_fourier.s": pick(total, "spectral_core.seminorm_fourier"),
            "spectral_core.fft.calls": float(sum(calls[i] for i in fft)),
            "spectral_core.fft.s": float(sum(total[i] for i in fft)),
            "spectral_core.fft.bytes_computed": c["fft.bytes"],
            "potentials.build.s": pick(total, *POTENTIAL_BUILDERS),
            "potentials.mollified_well.calls": pick(calls, "potentials.mollified_well"),
            "eigensolver.ground_state.calls": gs_calls,
            "eigensolver.ground_state.self_s": pick(self_s, "eigensolver.ground_state"),
            "eigensolver.ground_state.iters": iters,
            "eigensolver.dirichlet_ground_state.calls": pick(calls, "eigensolver.dirichlet_ground_state"),
            "experiments.stability_sweep.self_s": pick(self_s, "experiments.stability_sweep"),
            "experiments.anharmonic_to_dirichlet.self_s": pick(self_s, "experiments.anharmonic_to_dirichlet"),
            "experiments.symmetry_check.s": pick(total, "experiments.symmetry_check"),
            "experiments.monotonicity_check.s": pick(total, "experiments.monotonicity_check"),
            "experiments.antisymmetric_minimum_check.s": pick(total, "experiments.antisymmetric_minimum_check"),
            "experiments.embedding_tail_check.s": pick(total, "experiments.embedding_tail_check"),
            "io_utils.write.calls": float(np.count_nonzero(outer_io)),
            "io_utils.write.bytes": c["write.bytes"],
            "io_utils.write.s": float(dur[outer_io].sum()),
            "cli.parse_config.s": pick(total, "cli.parse_config"),
            "cli.dispatch.self_s": pick(self_s, "cli.dispatch"),
        }
        out = {key: value / passes for key, value in per_pass.items()}
        # Ratios and maxima are not divided by the pass count.
        out["bernstein_kernels.heat_kernel_profile.rss_growth_mb"] = \
            c["heat.rss_growth_bytes"] / 1e6
        out["spectral_core.dirichlet_form.share_of_ground_state"] = \
            pick(total, "spectral_core.dirichlet_form") / gs_s if gs_s else 0.0
        out["spectral_core.multiplier_values.useful_ratio"] = \
            c["multiplier_values.distinct"] / mv_calls if mv_calls else 0.0
        out["spectral_core.fft.per_iter"] = fft_in_gs / iters if iters else 0.0
        out["eigensolver.ground_state.us_per_iter"] = 1e6 * gs_s / iters if iters else 0.0
        out["eigensolver.ground_state.converged_ratio"] = \
            c["ground_state.converged"] / gs_calls if gs_calls else 0.0
        return out


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.name)
        t.name.append(self.nid)
        t.parent.append(t.stack[-1])
        t.end.append(float("nan"))
        t.stack.append(self.idx)
        t.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.idx] = time.perf_counter()
        t.stack.pop()
        return False


def _after_bessel_grid(t, args, out, pre):
    t.counts["bessel_k_grid.points"] += np.size(args[1])


def _after_evaluate(t, args, out, pre):
    t.counts["evaluate.points"] += np.size(args[1])


def _after_sigma(t, args, out, pre):
    t.counts["sigma.radii"] += np.size(args[3])


def _after_multiplier(t, args, out, pre):
    symbol, grid = args[0], args[1]
    t.multiplier_keys.add((symbol.kind, symbol.m, symbol.alpha, grid))


def _after_ground_state(t, args, out, pre):
    t.counts["ground_state.iters"] += out.iters
    t.counts["ground_state.converged"] += bool(out.converged)


def _after_heat(t, args, out, pre):
    growth = _peak_rss_bytes() - pre
    t.counts["heat.rss_growth_bytes"] = max(t.counts["heat.rss_growth_bytes"], growth)


def _after_fft(t, args, out, pre):
    t.counts["fft.bytes"] += np.asarray(args[0]).nbytes + out.nbytes


def _after_write(t, args, out, pre):
    parent = t.stack[-1]
    if parent < 0 or not t.names[t.name[parent]].startswith("io_utils."):
        t.counts["write.bytes"] += _written_bytes(out)


_AFTER = {"special_functions.bessel_k_grid": _after_bessel_grid,
          "bernstein_kernels.sigma": _after_sigma,
          "spectral_core.multiplier_values": _after_multiplier,
          "eigensolver.ground_state": _after_ground_state,
          "bernstein_kernels.heat_kernel_profile": _after_heat}
_AFTER.update({name: _after_write for name in TARGETS.values()
               if name.startswith("io_utils.")})
_BEFORE = {"bernstein_kernels.heat_kernel_profile": _current_rss_bytes}
