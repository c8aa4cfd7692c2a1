"""Numeric backend selection.

The compiled extension is preferred for the network integrator when
importable; the pure-numpy twin in _kernels_py is the fallback. Setting
ADAPTIVE_KURAMOTO_BACKEND=python forces the fallback (used by the benchmark
and for debugging). Both backends share one API and produce matching results
to rounding.

The torus sweep is the numpy kernel on both backends: it integrates from the
start points its caller passes (``points``, one per diagonal orbit of the
grid), which the compiled sweep cannot take.
"""

from __future__ import annotations

import os

from . import _kernels_py

try:
    from . import _kernels_cy as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _kernels_py

if os.environ.get("ADAPTIVE_KURAMOTO_BACKEND", "").strip().lower() == "python":
    _impl = _kernels_py

BACKEND = _impl.BACKEND_NAME
integrate_network = _impl.integrate_network
torus_sweep = _kernels_py.torus_sweep
