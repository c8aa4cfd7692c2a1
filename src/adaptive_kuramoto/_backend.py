"""Numeric backend selection and the adapter around the edge kernels.

The network integrator has one kernel contract, ``integrate_edges`` (see
``_kernels_py``): edge values in, preallocated (records, N) and (records, E)
arrays filled. Its C twin, ``_kernels_c.c``, is compiled on first import by
``load_c_kernel`` into the package's ``__pycache__`` and loaded from there;
the numpy ``_kernels_py`` is the fallback when there is no C compiler, the
directory is not writable or the build fails. Setting
ADAPTIVE_KURAMOTO_BACKEND=python forces the fallback without attempting a
build (for debugging and timing the numpy kernel). The two give the same
results to rounding. ``integrate_network`` is the one place that turns a
dense adjacency and coupling matrix into that contract; it returns the edge
columns as they are.

The torus sweep is the numpy kernel on both backends.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import shlex
import sysconfig
from pathlib import Path

import numpy as np

from . import _kernels_py

C_SOURCE = Path(__file__).with_name("_kernels_c.c")
# A plain ``from . import _kernels_c`` never looks in __pycache__, so a build
# cached there is loaded only through ``load_c_kernel``.
CACHE_DIR = C_SOURCE.with_name("__pycache__")
CC = tuple(shlex.split(sysconfig.get_config_var("CC") or "cc"))
# No -march and no fast-math; -ffp-contract=off stops the compiler fusing
# multiply-adds (the default on FMA-baseline targets such as aarch64), which
# would break the bit-for-bit parity with the numpy kernel.
CFLAGS = ("-shared", "-fPIC", "-O3", "-ffp-contract=off")
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


def c_kernel_path(directory: Path = CACHE_DIR) -> Path:
    """Where the build of the current ``_kernels_c.c`` lives in ``directory``:
    the name carries the hash of the source bytes, the compiler and the flags
    (the 64-bit source hash of hash-based .pyc files, which needs no OpenSSL
    import), and ends in the interpreter's extension suffix."""
    key = C_SOURCE.read_bytes() + "\0".join(("", *CC, *CFLAGS)).encode()
    return directory / f"_kernels_c.{importlib.util.source_hash(key).hex()}{EXT_SUFFIX}"


def _compile(target: Path) -> None:
    """Compile ``_kernels_c.c`` to ``target`` through a temporary file in the
    same directory, renamed into place, so concurrent imports never load a
    partial file. Raises OSError when the compiler cannot be started or the
    directory cannot be written, and ImportError, with the compiler's
    messages, when the compile fails."""
    import subprocess

    target.parent.mkdir(exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    include = "-I" + sysconfig.get_paths()["include"]
    try:
        done = subprocess.run(
            [*CC, *CFLAGS, include, str(C_SOURCE), "-o", str(tmp)],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise ImportError(f"{' '.join(CC)} failed on {C_SOURCE.name}:\n{done.stderr}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def load_c_kernel(directory: Path = CACHE_DIR):
    """The C kernel module built from ``_kernels_c.c`` into ``directory``,
    compiled first if that build is not there yet; once a compile succeeds,
    older builds for this interpreter are removed. Raises OSError or
    ImportError when the kernel cannot be built or loaded (see ``_compile``)."""
    path = c_kernel_path(directory)
    if not path.is_file():
        _compile(path)
        for stale in path.parent.glob("_kernels_c.*" + EXT_SUFFIX):
            if stale != path:
                with contextlib.suppress(OSError):
                    stale.unlink()
    spec = importlib.util.spec_from_file_location("adaptive_kuramoto._kernels_c", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _select(directory: Path = CACHE_DIR):
    """The kernel module this process uses (see the module docstring)."""
    if os.environ.get("ADAPTIVE_KURAMOTO_BACKEND", "").strip().lower() == "python":
        return _kernels_py
    try:
        return load_c_kernel(directory)
    except (OSError, ImportError):
        return _kernels_py


_impl = _select()
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
