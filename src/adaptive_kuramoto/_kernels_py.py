"""NumPy numeric kernels: the edge-list network integrator and the torus sweep.

``integrate_edges``
    The one kernel contract of the network integrator; the C extension
    ``_kernels_c`` implements the same function. Fixed-step RK4 of
        dtheta_i = w_i + sum_e [recv_e = i] k_e sin(theta_src_e - theta_i)
        dk_e     = mu Gamma(theta_src_e - theta_recv_e) - gamma k_e
    on the E edges e = (recv[e], src[e]). Edge values go in (theta0 (N,),
    k_e0 (E,)); the kernel fills rows 1.. of the preallocated (records, N)
    and (records, E) outputs, one row every ``stride`` steps, wrapping the
    phases to [0, 2 pi) after every step, and returns the count of finite
    records; the first non-finite record is written and ends the run. Each
    stage (``edge_rhs``) evaluates sin and Gamma once per edge; the
    per-receiver sum starts at 0 and runs in edge order (``np.bincount``),
    then ``freqs +``. ``_backend.integrate_network`` is the adapter around
    it; ``dynamics._integrate`` builds the edge list, allocates the history,
    writes record 0 and keeps the (records, E) output as the coupling
    history.

``torus_sweep``
    One pass of the successive approximation for the invariant torus. From
    every start point phi it integrates the time-reversed drift
        dpsi/ds = -(wbar_s + sum_pairs agg_(s,r)(psi) sin(psi_r - psi_s))
    from psi(0) = phi over s in [0, horizon] while accumulating the quadrature
        I_p = int_0^horizon e^(-gamma s) mu Gamma(psi_r - psi_s) ds
    per ordered cluster pair p = (s, r), with RK4 on the augmented state so
    the quadrature weights are Simpson-consistent with the trajectory stages.
    The start points are the keyword-only ``points`` (P, m), by default every
    point of the uniform grid on [0, 2 pi)^m in row-major order; the result
    has one row per start point. ``agg`` holds the representative-received
    per-pair sums of the previous iterate on the grid and is evaluated by
    periodic multilinear interpolation.
    The interpolation is prepared once per sweep (``periodic_interpolator``)
    on a grid padded by one wrapped layer per axis: each stage reduces the
    cell index mod the grid once, builds the 2^m corner indices and weights
    axis by axis and gathers each corner with one ``take``. It gives the same
    bits as the per-corner form that reduces every corner index separately.

Rules are encoded as (kind, offset, table): kind 0 is cos(s), kind 1 is
cos(s - offset), kind 2 interpolates ``table`` linearly and periodically.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND_NAME = "python"
TWO_PI = 2.0 * np.pi


def wrap_to_2pi(x):
    """Wrap angles to [0, 2 pi). One np.mod can round a tiny negative angle
    up to exactly 2 pi; the second maps that to +0 and leaves the rest."""
    return np.mod(np.mod(x, TWO_PI), TWO_PI)


def rule_values(kind: int, offset: float, table: np.ndarray, s: np.ndarray) -> np.ndarray:
    if kind == 0:
        return np.cos(s)
    if kind == 1:
        return np.cos(s - offset)
    n = table.size
    t = wrap_to_2pi(s) * (n / TWO_PI)
    base = np.floor(t)
    i0 = base.astype(np.int64) % n
    frac = t - base
    return table[i0] * (1.0 - frac) + table[(i0 + 1) % n] * frac


# -- full network ------------------------------------------------------------


def edge_rhs(theta, k_e, recv, src, freqs, gamma, mu, kind, offset, table):
    """Right-hand side on the edge list e = (recv[e], src[e]):
    (dtheta (N,), dk (E,)) with d_e = theta[src[e]] - theta[recv[e]]."""
    d = theta[src] - theta[recv]
    dtheta = freqs + np.bincount(recv, weights=k_e * np.sin(d), minlength=theta.shape[0])
    dk = mu * rule_values(kind, offset, table, d) - gamma * k_e
    return dtheta, dk


def integrate_edges(
    theta0, k_e0, recv, src, freqs, gamma, mu, kind, offset, table, step, stride, thetas_out, kes_out
) -> int:
    """The integrator's kernel contract (module docstring): fills rows 1..
    of ``thetas_out`` / ``kes_out`` and returns the count of finite records."""
    theta, k_e = theta0, k_e0

    def rhs(th, kk):
        return edge_rhs(th, kk, recv, src, freqs, gamma, mu, kind, offset, table)

    h, h2, h6 = step, 0.5 * step, step / 6.0
    n_valid = 1
    # a blow-up is reported by the finiteness check below, silently, as in C
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in range(1, thetas_out.shape[0]):
            for _ in range(stride):
                t1, k1 = rhs(theta, k_e)
                t2, k2 = rhs(theta + h2 * t1, k_e + h2 * k1)
                t3, k3 = rhs(theta + h2 * t2, k_e + h2 * k2)
                t4, k4 = rhs(theta + h * t3, k_e + h * k3)
                theta = wrap_to_2pi(theta + h6 * (t1 + 2.0 * t2 + 2.0 * t3 + t4))
                k_e = k_e + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            thetas_out[rec], kes_out[rec] = theta, k_e
            if not (np.isfinite(theta).all() and np.isfinite(k_e).all()):
                break
            n_valid = rec + 1
    return n_valid


# -- torus iteration ----------------------------------------------------------


def grid_points(grid_shape) -> np.ndarray:
    """Coordinates of the uniform periodic grid, row-major: (G, m) array with
    axis a running over 2 pi k / R_a, k = 0..R_a-1."""
    axes = [TWO_PI * np.arange(r) / r for r in grid_shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=-1)


def periodic_interpolator(values: np.ndarray, grid_shape):
    """Prepare periodic multilinear interpolation of ``values``.

    values: (G, C) rows over the row-major grid of shape grid_shape. Returns
    an evaluator mapping pts (P, m) of arbitrary angles to (P, C).

    The grid is padded by one wrapped layer at the end of every axis, so the
    upper corner of a cell is base + 1 without a second reduction. Weights
    are products over axes in axis order and corners accumulate in the order
    corner = sum_a bit_a 2^a, as the per-corner form does, so the result is
    the same to the last bit.
    """
    shape = tuple(int(r) for r in grid_shape)
    m = len(shape)
    n_cols = values.shape[1]
    padded = np.pad(values.reshape(shape + (n_cols,)), [(0, 1)] * m + [(0, 0)], mode="wrap")
    table = padded.reshape(-1, n_cols)
    pad_strides = [math.prod(r + 1 for r in shape[a + 1:]) for a in range(m)]
    scale = np.array(shape, dtype=np.int64) / TWO_PI

    def evaluate(pts: np.ndarray) -> np.ndarray:
        # corner c = sum_a bit_a 2^a: axis a appends the bit_a = 1 corners
        for a in range(m):
            t = pts[:, a] * scale[a]
            base = np.floor(t)
            lo = (base.astype(np.int64) % shape[a]) * pad_strides[a]
            up = t - base
            axis = [(lo, 1.0 - up), (lo + pad_strides[a], up)]
            corners = axis if a == 0 else [(f + fa, w * wa) for fa, wa in axis for f, w in corners]
        (flat, weight), *rest = corners
        out = weight[:, None] * table.take(flat, axis=0)
        for flat, weight in rest:
            out += weight[:, None] * table.take(flat, axis=0)
        return out

    return evaluate


def torus_sweep(
    agg: np.ndarray,
    grid_shape,
    pair_s: np.ndarray,
    pair_r: np.ndarray,
    wbar: np.ndarray,
    gamma: float,
    mu: float,
    rule_kind: int,
    rule_offset: float,
    rule_table: np.ndarray,
    horizon: float,
    step: float,
    *,
    points: np.ndarray | None = None,
) -> np.ndarray:
    """One successive-approximation pass; returns the per-pair new iterate
    (P, n_pairs) at the start points, by default the whole grid (P = G)."""
    grid_shape = tuple(int(r) for r in grid_shape)
    n_pairs = pair_s.shape[0]
    psi = grid_points(grid_shape) if points is None else np.asarray(points, dtype=np.float64)
    quad = np.zeros((psi.shape[0], n_pairs))

    # scatter matrix: contribution of pair (s, r) lands in component s of dpsi
    m = len(grid_shape)
    scatter = np.zeros((n_pairs, m))
    scatter[np.arange(n_pairs), pair_s] = 1.0

    n_sub = max(1, int(np.ceil(horizon / step)))
    h = horizon / n_sub

    interp = periodic_interpolator(agg, grid_shape)

    def rhs(s_now, psi_now):
        u_at = interp(psi_now)
        diff = psi_now[:, pair_r] - psi_now[:, pair_s]
        dpsi = -(wbar + (u_at * np.sin(diff)) @ scatter)
        dquad = (np.exp(-gamma * s_now) * mu) * rule_values(rule_kind, rule_offset, rule_table, diff)
        return dpsi, dquad

    s_now = 0.0
    for _ in range(n_sub):
        p1, q1 = rhs(s_now, psi)
        p2, q2 = rhs(s_now + 0.5 * h, psi + 0.5 * h * p1)
        p3, q3 = rhs(s_now + 0.5 * h, psi + 0.5 * h * p2)
        p4, q4 = rhs(s_now + h, psi + h * p3)
        psi = psi + (h / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        quad = quad + (h / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        s_now += h
    return quad
