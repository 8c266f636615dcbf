"""Concentration landscapes and blow-up rate prediction on CSG domains.

The package computes the exterior inverse-power landscape of a domain, its
critical points, and the reduced-energy expansions that govern bubble
concentration for near-critical elliptic problems with indefinite weight:

* :mod:`bubblescape.geometry` - CSG solids, boundary queries, perturbations;
* :mod:`bubblescape.quadrature` - singular exterior quadrature;
* :mod:`bubblescape.landscape` - dimensional constants and reduced energies;
* :mod:`bubblescape.bubbles` - bubble ansatz, linearization checks, energies;
* :mod:`bubblescape.critpoints` - minima, mountain passes, Morse audits;
* :mod:`bubblescape.cli` - reproducible command-line workflows.
"""

import ctypes
import os

# The numeric libraries' thread pools gain no wall time here and only burn
# CPU (README, "Numerical notes"); a value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# psi's temporaries are arrays of about 0.2 MB (0.4 MB for a folded fan above
# the fan cache's cap); above glibc's mmap threshold each is a fresh mapping that
# every psi call page-faults in again (README, "Numerical notes").  Skipped without mallopt.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: 64 MiB

from .errors import ConvergenceError, PreconditionError

__version__ = "0.1.0"

__all__ = ["ConvergenceError", "PreconditionError", "__version__"]
