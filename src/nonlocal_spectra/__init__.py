"""Numerical library for non-local Schrodinger operators Phi(-Delta) + V.

Subpackages follow the layering of the build: special functions ->
Bernstein symbols and jump kernels -> periodic-grid spectral operators ->
potentials -> eigensolver (LOBPCG for wells and balls) -> experiment
drivers -> CLI.
"""

__version__ = "0.1.0"
