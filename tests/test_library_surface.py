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
