"""Every public top-level function and class of the package has a caller:
library code outside its own definition, the benchmark (which wraps some
names by their strings), or the console-script entry point."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nonlocal_spectra"

# Kept without a caller: the planned moving-plane reports along the
# sweeps (ROADMAP.md) will call it.
EXCEPTIONS = {"experiments.moving_plane_min"}


def _read_names(node):
    """The identifiers that node reads, as names or attributes."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    bench = "\n".join(path.read_text()
                      for path in sorted((ROOT / "bench").glob("*.py")))
    # Console scripts, "nonlocal_spectra.<module>:<function>".
    pyproject = (ROOT / "pyproject.toml").read_text()
    entries = {".".join(entry) for entry
               in re.findall(r'"nonlocal_spectra\.(\w+):(\w+)"', pyproject)}
    # readers[name]: the top-level statements of the package that read name.
    names = {id(node): _read_names(node)
             for tree in trees.values() for node in tree.body}
    readers = Counter(name for read in names.values() for name in read)
    uncalled = {f"{module}.{node.name}"
                for module, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and readers[node.name] == (node.name in names[id(node)])
                and not re.search(rf"\b{node.name}\b", bench)}
    assert sorted(uncalled - entries - EXCEPTIONS) == []


# The functions of the package that call numpy.fft themselves: every other
# transform goes through spectral_core's SpectralOperator.
FFT_SITES = {"experiments.random_band_limited", "potentials.mollified_well"}


def test_fft_calls_only_at_known_sites():
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # Every transform is spelled np.fft.<name>: no other import of it.
        assert not any(isinstance(node, ast.ImportFrom)
                       and node.module in ("numpy", "numpy.fft")
                       for node in ast.walk(tree)), path.name
        for node in tree.body:
            calls = [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
                     and ast.unparse(sub.func).startswith("np.fft.")]
            if calls and path.stem != "spectral_core":
                sites.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert sites == FFT_SITES
