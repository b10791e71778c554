"""Set-up probe: import the CLI and load the given configs, then exit.

run.py times this script from process start to exit in a fresh
interpreter, which is what every CLI invocation pays before it computes.
Usage: python3 bench/setup_probe.py CONFIG...
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nonlocal_spectra import cli  # noqa: E402

for path in sys.argv[1:]:
    cli.parse_config(path)
