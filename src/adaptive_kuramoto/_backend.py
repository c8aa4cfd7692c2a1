"""Numeric backend selection and the adapter around the edge kernels.

The network integrator has one kernel contract, ``integrate_edges`` (see
``_kernels_py``): edge values in, preallocated (records, N) and (records, E)
arrays filled. The C extension ``_kernels_c`` is preferred when importable;
the numpy ``_kernels_py`` is the fallback. Setting
ADAPTIVE_KURAMOTO_BACKEND=python forces the fallback (used by the benchmark
and for debugging). The two give the same results to rounding.
``integrate_network`` is the one place that turns a dense adjacency and
coupling matrix into that contract; it returns the edge columns as they are.

The torus sweep is the numpy kernel on both backends.
"""

from __future__ import annotations

import os

import numpy as np

from . import _kernels_py

try:
    from . import _kernels_c as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _kernels_py

if os.environ.get("ADAPTIVE_KURAMOTO_BACKEND", "").strip().lower() == "python":
    _impl = _kernels_py

BACKEND = _impl.BACKEND_NAME
torus_sweep = _kernels_py.torus_sweep


def integrate_network(
    theta0, k0, adj, freqs, gamma, mu, rule_kind, rule_offset, rule_table, step, n_steps, record_stride
):
    """Fixed-step RK4 of the full adaptive network
        dtheta_i = w_i + sum_j a_ij k_ij sin(theta_j - theta_i)
        dk_ij    = -gamma k_ij + mu Gamma(theta_j - theta_i)   on edges only,
    with phases wrapped to [0, 2 pi) after every step and a record every
    ``record_stride`` steps (the initial state included). Returns (thetas,
    kes, n_valid): (n_records, N) phases, (n_records, E) couplings with one
    column per edge of ``adj`` in row-major order, and the count of finite
    records; the run ends at the first non-finite one. Non-edge entries of
    ``k0`` are never read."""
    if n_steps % record_stride != 0:
        raise ValueError("n_steps must be a multiple of record_stride")
    recv, src = (np.ascontiguousarray(a, dtype=np.int64) for a in np.nonzero(adj))
    theta = np.mod(np.asarray(theta0, dtype=np.float64), _kernels_py.TWO_PI)
    k_e = np.asarray(k0, dtype=np.float64)[recv, src]
    n_records = n_steps // record_stride + 1
    thetas = np.zeros((n_records, theta.shape[0]))
    kes = np.zeros((n_records, k_e.shape[0]))
    thetas[0], kes[0] = theta, k_e
    n_valid = _impl.integrate_edges(
        theta, k_e, recv, src, np.ascontiguousarray(freqs, dtype=np.float64),
        float(gamma), float(mu), int(rule_kind), float(rule_offset),
        np.ascontiguousarray(rule_table, dtype=np.float64),
        float(step), int(record_stride), thetas, kes,
    )
    return thetas, kes, n_valid
