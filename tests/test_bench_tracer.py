"""The traced benchmark run wraps functions by name; a deletion or rename
in the package must fail here rather than silently break that run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nonlocal_spectra.bernstein_kernels import BernsteinSymbol
from nonlocal_spectra.spectral_core import Grid

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    for mod, attr in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PKG}.{mod}")
        assert callable(getattr(module, attr, None)), f"{mod}.{attr}"
    for attr in tracer.FFT_NAMES:
        assert callable(getattr(np.fft, attr))


def test_symbol_exposes_traced_attributes():
    symbol = BernsteinSymbol.relativistic(1.0, 0.5)
    assert (symbol.kind, symbol.m, symbol.alpha) == ("relativistic", 1.0, 0.5)
    assert callable(BernsteinSymbol.__dict__["evaluate"])
    assert callable(BernsteinSymbol.__dict__["__call__"])


def test_install_traces_and_uninstall_restores(tracer):
    for mod, _ in tracer.TARGETS:
        importlib.import_module(f"{tracer.PKG}.{mod}")
    from nonlocal_spectra import spectral_core
    original = spectral_core.multiplier_values
    evaluate = BernsteinSymbol.__dict__["evaluate"]
    symbol, grid = BernsteinSymbol.relativistic(1.0, 1.0), Grid(d=1, n=16, L=4.0)
    t = tracer.Tracer()
    t.install()
    try:
        spectral_core.multiplier_values(symbol, grid)
        symbol(2.0)
    finally:
        t.uninstall()
    assert t.multiplier_keys == {("relativistic", 1.0, 1.0, grid)}
    assert t.counts["evaluate.points"] == 9 + 1
    assert spectral_core.multiplier_values is original
    assert BernsteinSymbol.__dict__["evaluate"] is evaluate
    assert BernsteinSymbol.__dict__["__call__"] is evaluate


def test_traced_kernel_table_counts_sigma_radii(tracer):
    for mod, _ in tracer.TARGETS:
        importlib.import_module(f"{tracer.PKG}.{mod}")
    from nonlocal_spectra import bernstein_kernels
    t = tracer.Tracer()
    t.install()
    try:
        bernstein_kernels.build_kernel_table(
            BernsteinSymbol.relativistic(1.0, 1.0), "sigma", 1,
            np.geomspace(0.1, 2.0, 5))
    finally:
        t.uninstall()
    assert t.counts["sigma.radii"] == 5
    names = {t.names[i] for i in t.name}
    assert "bernstein_kernels.sigma" in names
