"""The C kernel's loader must compile once per source, compiler and flags,
and fall back to numpy when it cannot build. The C and numpy integrator
kernels must agree with a per-edge pure-Python RK4 and with each other to
rounding, and the C entry point must reject bad inputs; the numpy torus
sweep must agree with a per-point pure-Python RK4, and the prepared
interpolator bit for bit with the per-corner form."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptive_kuramoto
from adaptive_kuramoto import BACKEND, LearningRule
from adaptive_kuramoto import _backend, _kernels_py


def test_backend_identifies_itself():
    assert BACKEND in ("c", "python")
    assert _backend.BACKEND == BACKEND


def _numpy_child(code):
    """Standard output of ``code`` run in a fresh interpreter with
    ADAPTIVE_KURAMOTO_BACKEND=python."""
    # the child must import the same copy of the package as this process,
    # installed or not, so its parent directory goes first on PYTHONPATH
    package_root = str(Path(adaptive_kuramoto.__file__).parents[1])
    env = dict(os.environ, ADAPTIVE_KURAMOTO_BACKEND="python")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_env_var_forces_python_backend():
    assert _numpy_child("import adaptive_kuramoto as ak; print(ak.BACKEND)") == "python"


def _no_compile(target):
    raise AssertionError(f"compiled {target.name}")


def test_env_var_attempts_no_build(tmp_path, monkeypatch):
    monkeypatch.setenv("ADAPTIVE_KURAMOTO_BACKEND", "python")
    monkeypatch.setattr(_backend, "_compile", _no_compile)
    assert _backend._select(tmp_path) is _kernels_py
    assert not any(tmp_path.iterdir())


def test_cached_build_loads_without_compiling(kernels_c, monkeypatch):
    monkeypatch.setattr(_backend, "_compile", _no_compile)
    again = _backend.load_c_kernel(Path(kernels_c.__file__).parent)
    assert again.__file__ == kernels_c.__file__
    assert again.BACKEND_NAME == "c"


@pytest.mark.parametrize("key", ["C_SOURCE", "CC", "CFLAGS"])
def test_cache_name_follows_source_compiler_and_flags(tmp_path, monkeypatch, key):
    before = _backend.c_kernel_path(tmp_path)
    edited = tmp_path / "_kernels_c.c"
    edited.write_bytes(_backend.C_SOURCE.read_bytes() + b"\n")
    changed = {"C_SOURCE": edited, "CC": ("clang",), "CFLAGS": _backend.CFLAGS + ("-g",)}
    monkeypatch.setattr(_backend, key, changed[key])
    after = _backend.c_kernel_path(tmp_path)
    assert after.name != before.name
    assert after.name.startswith("_kernels_c.") and after.name.endswith(_backend.EXT_SUFFIX)


def test_build_removes_stale_builds_of_this_interpreter(tmp_path):
    stale = tmp_path / f"_kernels_c.0123456789abcdef{_backend.EXT_SUFFIX}"
    other = tmp_path / "_kernels_c.0123456789abcdef.other-interpreter.so"
    for path in (stale, other):
        path.write_bytes(b"")
    try:
        built = _backend.load_c_kernel(tmp_path)
    except FileNotFoundError as exc:
        pytest.skip(f"no C compiler ({exc.filename})")
    assert sorted(tmp_path.iterdir()) == sorted([Path(built.__file__), other])


@pytest.mark.parametrize(
    "compiler, directory",
    [
        (("no-such-c-compiler",), "."),
        ((sys.executable, "-c", "raise SystemExit(1)"), "."),
        (None, "file/cache"),
    ],
    ids=["missing-compiler", "failing-compiler", "unwritable-directory"],
)
def test_unusable_build_falls_back_to_numpy(tmp_path, monkeypatch, compiler, directory):
    (tmp_path / "file").write_text("")
    monkeypatch.delenv("ADAPTIVE_KURAMOTO_BACKEND", raising=False)
    if compiler is not None:
        monkeypatch.setattr(_backend, "CC", compiler)
    assert _backend._select(tmp_path / directory) is _kernels_py
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_plain_import_does_not_find_the_cached_build():
    # what a checkout of the package from before the loader would do
    try:
        cached = Path(_backend.load_c_kernel().__file__)
    except FileNotFoundError as exc:
        pytest.skip(f"no C compiler ({exc.filename})")
    assert cached.parent == _backend.CACHE_DIR
    code = "try:\n from adaptive_kuramoto import _kernels_c\nexcept ImportError:\n print('absent')"
    assert _numpy_child(code) == "absent"


def test_grid_points_row_major():
    pts = _kernels_py.grid_points((2, 3))
    assert pts.shape == (6, 2)
    step = 2 * np.pi / 3
    assert np.allclose(pts[0], [0.0, 0.0])
    assert np.allclose(pts[1], [0.0, step])
    assert np.allclose(pts[3], [np.pi, 0.0])


def test_interp_periodic_nodes_and_midpoints():
    shape = (4,)
    values = np.array([[0.0], [1.0], [2.0], [3.0]])
    nodes = _kernels_py.grid_points(shape)
    interp = _kernels_py.periodic_interpolator(values, shape)
    got = interp(nodes)
    assert np.allclose(got, values)
    mid = np.array([[np.pi / 4]])  # halfway between nodes 0 and 1
    assert np.allclose(interp(mid), 0.5)
    # wrap-around cell interpolates between the last node and node 0
    wrap = np.array([[2 * np.pi - np.pi / 4]])
    assert np.allclose(interp(wrap), 1.5)
    # periodicity: shifting by 2*pi changes nothing
    shifted = interp(mid + 2 * np.pi)
    assert np.allclose(shifted, 0.5)


def test_interp_periodic_2d_multicolumn():
    shape = (8, 8)
    pts = _kernels_py.grid_points(shape)
    values = np.stack([np.cos(pts[:, 0] - pts[:, 1]), np.sin(pts[:, 0])], axis=1)
    rng = np.random.default_rng(5)
    q = rng.uniform(0, 2 * np.pi, size=(40, 2))
    interp = _kernels_py.periodic_interpolator(values, shape)
    got = interp(q)
    want = np.stack([np.cos(q[:, 0] - q[:, 1]), np.sin(q[:, 0])], axis=1)
    assert np.abs(got - want).max() < 0.35  # bilinear on a coarse grid
    exact = interp(pts)
    assert np.allclose(exact, values)


def _interp_per_corner(values, grid_shape, pts):
    """Periodic multilinear interpolation one corner at a time, reducing every
    corner index mod the grid: the form the prepared interpolator replaces."""
    grid_shape = np.asarray(grid_shape, dtype=np.int64)
    m = grid_shape.size
    strides = np.ones(m, dtype=np.int64)
    for a in range(m - 2, -1, -1):
        strides[a] = strides[a + 1] * grid_shape[a + 1]

    t = pts * (grid_shape / (2 * np.pi))
    base = np.floor(t)
    i0 = base.astype(np.int64)
    frac = t - base

    out = np.zeros((pts.shape[0], values.shape[1]))
    for corner in range(1 << m):
        flat = np.zeros(pts.shape[0], dtype=np.int64)
        weight = np.ones(pts.shape[0])
        for a in range(m):
            bit = (corner >> a) & 1
            idx = np.mod(i0[:, a] + bit, grid_shape[a])
            flat += idx * strides[a]
            weight = weight * (frac[:, a] if bit else 1.0 - frac[:, a])
        out += weight[:, None] * values[flat, :]
    return out


@pytest.mark.parametrize("shape", [(7,), (5, 8), (4, 6, 3)], ids=["m1", "m2", "m3"])
def test_periodic_interpolator_matches_per_corner_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape))
    values = rng.normal(size=(int(np.prod(shape)), 3))
    nodes = _kernels_py.grid_points(shape)
    interp = _kernels_py.periodic_interpolator(values, shape)
    for pts in (
        rng.uniform(-10.0, 20.0, size=(300, len(shape))),  # negative and above 2 pi
        nodes,
        nodes + 2 * np.pi,
        nodes - 4 * np.pi,
    ):
        want = _interp_per_corner(values, shape, pts)
        assert np.array_equal(interp(pts), want)


def test_rule_values_match_rule_objects():
    s = np.linspace(-7, 7, 61)
    for rule in (
        LearningRule.hebbian(),
        LearningRule.shifted_cosine(0.4),
        LearningRule.tabulated([1.0, 0.2, -1.0, 0.3]),
    ):
        kind, offset, table = rule.kernel_encoding()
        got = _kernels_py.rule_values(kind, offset, table, s)
        assert np.allclose(got, rule(s), atol=1e-12)


def _setup_five():
    adj = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
    w = np.array([0.5, 0.5, 0.5, 0.4714, 0.4714])
    k0 = np.zeros((5, 5))
    rng = np.random.default_rng(2)
    k0[adj == 1] = rng.uniform(-0.01, 0.01, adj.sum())
    theta0 = rng.uniform(0, 2 * np.pi, 5)
    return adj, w, theta0, k0


# receiver-row adjacency: in-degrees 3, 1, 4, 2, 1, 0 (node 5 has no inputs)
SPARSE_ADJ = np.array([
    [0, 1, 1, 0, 1, 0],
    [1, 0, 0, 0, 0, 0],
    [1, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0],
])
SPARSE_EDGES = np.argwhere(SPARSE_ADJ)
EDGE_COLUMN = {(int(i), int(j)): c for c, (i, j) in enumerate(SPARSE_EDGES)}


def _run_adapter(theta0, k_e0, edges, freqs, gamma, mu, kind, offset, table, step, n_steps, stride):
    """``_backend.integrate_network`` from a start state, as
    ``dynamics._integrate`` calls it: returns (thetas, kes, n_valid)."""
    thetas = np.zeros((n_steps // stride + 1, len(theta0)))
    kes = np.zeros((thetas.shape[0], len(k_e0)))
    thetas[0], kes[0] = theta0, k_e0
    n_valid = _backend.integrate_network(
        thetas, kes, edges, freqs, gamma, mu, kind, offset, table, step, n_steps, stride
    )
    return thetas, kes, n_valid


def _tabulated_rule(table):
    n = len(table)

    def rule(s):
        t = (s % (2 * math.pi)) * n / (2 * math.pi)
        i0 = math.floor(t)
        frac = t - i0
        return table[i0 % n] * (1.0 - frac) + table[(i0 + 1) % n] * frac

    return rule


REFERENCE_RULES = [
    (LearningRule.hebbian(), math.cos),
    (LearningRule.shifted_cosine(0.7), lambda s: math.cos(s - 0.7)),
    (LearningRule.tabulated([1.0, 0.2, -1.0, 0.3, 0.5]), _tabulated_rule([1.0, 0.2, -1.0, 0.3, 0.5])),
]


def _reference_integrate(theta0, k0, adj, freqs, gamma, mu, rule, step, n_steps, stride):
    """Per-edge RK4 in plain floats; returns the finite records as
    (phases, {edge: coupling}) pairs, stopping at the first non-finite one."""
    edges = [(i, j) for i in range(len(adj)) for j in range(len(adj)) if adj[i][j]]

    def rhs(th, kk):
        dth = [float(w) for w in freqs]
        dk = {}
        for i, j in edges:
            d = th[j] - th[i]
            finite = math.isfinite(d)
            dth[i] += kk[i, j] * (math.sin(d) if finite else math.nan)
            dk[i, j] = -gamma * kk[i, j] + mu * (rule(d) if finite else math.nan)
        return dth, dk

    def shift(th, kk, a, dth, dk):
        return [x + a * v for x, v in zip(th, dth)], {e: kk[e] + a * dk[e] for e in edges}

    theta = [float(x) % (2 * math.pi) for x in theta0]
    k = {e: float(k0[e]) for e in edges}
    records = [(theta, k)]
    for _ in range(n_steps // stride):
        for _ in range(stride):
            t1, k1 = rhs(theta, k)
            t2, k2 = rhs(*shift(theta, k, 0.5 * step, t1, k1))
            t3, k3 = rhs(*shift(theta, k, 0.5 * step, t2, k2))
            t4, k4 = rhs(*shift(theta, k, step, t3, k3))
            theta = [
                (x + step / 6.0 * (a + 2.0 * b + 2.0 * c + d)) % (2 * math.pi)
                for x, a, b, c, d in zip(theta, t1, t2, t3, t4)
            ]
            k = {e: k[e] + step / 6.0 * (k1[e] + 2.0 * k2[e] + 2.0 * k3[e] + k4[e]) for e in edges}
        if not all(math.isfinite(v) for v in theta + list(k.values())):
            break
        records.append((theta, k))
    return records


def _sparse_case(gamma):
    rng = np.random.default_rng(11)
    k0 = np.where(SPARSE_ADJ != 0, rng.uniform(-1.0, 1.0, SPARSE_ADJ.shape), 0.0)
    theta0 = rng.uniform(-1.0, 7.0, 6)  # some outside [0, 2 pi) to exercise the wrap
    freqs = np.array([0.5, 0.9, 0.2, 1.3, 0.7, 1.1])
    return theta0, k0, freqs, gamma


# the numpy kernel keeps the plain ids (hebbian-0.5-False, ...); the C kernel's carry "c-"
REFERENCE_CASES = [
    pytest.param(
        kernel, rule, ref_rule, gamma, blows_up,
        id=("c-" if kernel == "c" else "") + f"{name}-{gamma}-{blows_up}",
    )
    for kernel in ("numpy", "c")
    for name, (rule, ref_rule) in zip(("hebbian", "shifted", "tabulated"), REFERENCE_RULES)
    for gamma, blows_up in ((0.5, False), (500.0, True))
]


@pytest.mark.parametrize("kernel, rule, ref_rule, gamma, blows_up", REFERENCE_CASES)
def test_integrate_network_matches_per_edge_reference(
    request, monkeypatch, kernel, rule, ref_rule, gamma, blows_up
):
    # driven through the adapter, with the selected kernel swapped in
    impl = request.getfixturevalue("kernels_c") if kernel == "c" else _kernels_py
    monkeypatch.setattr(_backend, "_impl", impl)
    theta0, k0, freqs, gamma = _sparse_case(gamma)
    mu, step, n_steps, stride = 0.3, 0.01, 400, 10
    kind, offset, table = rule.kernel_encoding()
    k_e0 = k0[SPARSE_ADJ != 0]
    args = (theta0, k_e0, SPARSE_EDGES, freqs, gamma, mu, kind, offset, table, step, n_steps, stride)
    with np.errstate(all="ignore"):
        thetas, kes, n_valid = _run_adapter(*args)
        monkeypatch.setattr(_backend, "_impl", _kernels_py)
        thetas_np, kes_np, n_valid_np = _run_adapter(*args)
    ref = _reference_integrate(theta0, k0, SPARSE_ADJ, freqs, gamma, mu, ref_rule, step, n_steps, stride)

    assert n_valid == n_valid_np == len(ref)
    assert (n_valid < n_steps // stride + 1) == blows_up
    assert kes.shape == (n_steps // stride + 1, len(EDGE_COLUMN))
    # row 0 is the start state as the caller wrote it; the kernel fills the rest
    assert np.array_equal(thetas[0], theta0) and np.array_equal(kes[0], k_e0)
    if blows_up:
        return  # on the way to overflow the phases are rounding noise mod 2 pi
    kernel_gap = np.angle(np.exp(1j * (thetas[:n_valid] - thetas_np[:n_valid])))
    assert np.abs(kernel_gap).max() <= 1e-11
    assert np.abs(kes[:n_valid] - kes_np[:n_valid]).max() <= 1e-11
    for rec, (theta_ref, k_ref) in enumerate(ref):
        gap = np.angle(np.exp(1j * (thetas[rec] - np.array(theta_ref))))
        assert np.abs(gap).max() <= 1e-11
        assert max(abs(kes[rec, EDGE_COLUMN[e]] - v) for e, v in k_ref.items()) <= 1e-11


def _bilinear(column, res, x, y):
    """Scalar periodic bilinear lookup of column (res * res,) at (x, y)."""
    tx, ty = x * res / (2 * math.pi), y * res / (2 * math.pi)
    ix, iy = math.floor(tx), math.floor(ty)
    fx, fy = tx - ix, ty - iy

    def at(i, j):
        return column[(i % res) * res + j % res]

    return (
        at(ix, iy) * (1.0 - fx) * (1.0 - fy)
        + at(ix + 1, iy) * fx * (1.0 - fy)
        + at(ix, iy + 1) * (1.0 - fx) * fy
        + at(ix + 1, iy + 1) * fx * fy
    )


def _reference_sweep(agg, res, pairs, wbar, gamma, mu, rule, horizon, step):
    """Per-grid-point RK4 of the time-reversed drift and the quadrature, in
    plain floats on a res x res grid; returns (res * res, n_pairs)."""
    n_sub = max(1, math.ceil(horizon / step))
    h = horizon / n_sub
    columns = [agg[:, p].tolist() for p in range(len(pairs))]

    def rhs(s, psi):
        dpsi = [-w for w in wbar]
        dquad = []
        for p, (ps, pr) in enumerate(pairs):
            d = psi[pr] - psi[ps]
            dpsi[ps] -= _bilinear(columns[p], res, psi[0], psi[1]) * math.sin(d)
            dquad.append(math.exp(-gamma * s) * mu * rule(d))
        return dpsi + dquad

    out = []
    for i in range(res):
        for j in range(res):
            y = [2 * math.pi * i / res, 2 * math.pi * j / res] + [0.0] * len(pairs)
            s = 0.0
            for _ in range(n_sub):
                k1 = rhs(s, y)
                k2 = rhs(s + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k1)])
                k3 = rhs(s + 0.5 * h, [a + 0.5 * h * b for a, b in zip(y, k2)])
                k4 = rhs(s + h, [a + h * b for a, b in zip(y, k3)])
                y = [a + h / 6.0 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
                s += h
            out.append(y[2:])
    return np.array(out)


@pytest.mark.parametrize(
    "rule, ref_rule", [REFERENCE_RULES[0], REFERENCE_RULES[2]], ids=["hebbian", "tabulated"]
)
def test_torus_sweep_matches_per_point_reference(rule, ref_rule):
    res, pairs = 4, ((0, 1), (1, 0))
    rng = np.random.default_rng(17)
    agg = rng.uniform(-0.5, 0.5, size=(res * res, len(pairs)))  # no symmetry to hide behind
    wbar, gamma, mu = [0.5, 0.47], 0.8, 0.3
    kind, offset, table = rule.kernel_encoding()
    got = _kernels_py.torus_sweep(
        agg, (res, res), np.array([0, 1]), np.array([1, 0]), np.array(wbar),
        gamma, mu, kind, offset, table, 0.5, 0.05,
    )
    want = _reference_sweep(agg, res, pairs, wbar, gamma, mu, ref_rule, 0.5, 0.05)
    assert np.abs(got - want).max() <= 1e-13


def test_integrate_network_backends_agree(kernels_c, monkeypatch):
    # measured gap on x86-64 with gcc -O3: 0.0 (the two evaluate the same
    # expressions in the same order)
    adj, w, theta0, k0 = _setup_five()
    kind, offset, table = LearningRule.hebbian().kernel_encoding()
    args = (theta0, k0[adj == 1], np.argwhere(adj), w, 1.0, 0.01, kind, offset, table, 0.01, 500, 10)
    monkeypatch.setattr(_backend, "_impl", _kernels_py)
    t_py, k_py, v_py = _run_adapter(*args)
    monkeypatch.setattr(_backend, "_impl", kernels_c)
    t_c, k_c, v_c = _run_adapter(*args)
    assert v_py == v_c == 51
    assert k_py.shape == k_c.shape == (51, 20)
    assert np.abs(t_py - t_c).max() <= 1e-11
    assert np.abs(k_py - k_c).max() <= 1e-11


def _edge_args(**bad):
    """Valid ``integrate_edges`` arguments on SPARSE_ADJ with a tabulated
    rule, ``bad`` replacing some of them."""
    recv, src = (np.ascontiguousarray(a) for a in np.nonzero(SPARSE_ADJ))
    n, e = SPARSE_ADJ.shape[0], recv.shape[0]
    args = dict(
        theta0=np.linspace(0.0, 3.0, n), k_e0=np.full(e, 0.1), recv=recv, src=src,
        freqs=np.ones(n), gamma=0.5, mu=0.3, kind=2, offset=0.0, table=np.array([1.0, -1.0]),
        step=0.01, stride=2, thetas_out=np.zeros((3, n)), kes_out=np.zeros((3, e)),
    )
    args.update(bad)
    return list(args.values())


def _read_only(a):
    a.flags.writeable = False
    return a


E_SPARSE = int(SPARSE_ADJ.sum())
BAD_EDGE_ARGS = [
    ("theta0", TypeError, dict(theta0=[0.0] * 6)),
    ("theta0", TypeError, dict(theta0=np.zeros(6, dtype=np.float32))),
    ("k_e0", ValueError, dict(k_e0=np.zeros((E_SPARSE, 1)))),
    ("recv", TypeError, dict(recv=np.zeros(E_SPARSE, dtype=np.int32))),
    ("src", TypeError, dict(src=np.zeros(E_SPARSE))),
    ("freqs", ValueError, dict(freqs=np.ones(12)[::2])),
    ("thetas_out", ValueError, dict(thetas_out=np.zeros((6, 3)).T)),
    ("kes_out", ValueError, dict(kes_out=_read_only(np.zeros((3, E_SPARSE))))),
    ("recv", ValueError, dict(recv=np.zeros(E_SPARSE - 1, dtype=np.int64))),
    ("src", ValueError, dict(src=np.zeros(E_SPARSE + 1, dtype=np.int64))),
    ("freqs", ValueError, dict(freqs=np.ones(5))),
    ("thetas_out", ValueError, dict(thetas_out=np.zeros((3, 5)))),
    ("thetas_out", ValueError, dict(thetas_out=np.zeros((0, 6)), kes_out=np.zeros((0, E_SPARSE)))),
    ("kes_out", ValueError, dict(kes_out=np.zeros((4, E_SPARSE)))),
    ("kes_out", ValueError, dict(kes_out=np.zeros((3, E_SPARSE - 1)))),
    ("recv", ValueError, dict(recv=np.full(E_SPARSE, 6, dtype=np.int64))),
    ("recv", ValueError, dict(recv=np.full(E_SPARSE, -1, dtype=np.int64))),
    ("src", ValueError, dict(src=np.full(E_SPARSE, 6, dtype=np.int64))),
    ("stride", ValueError, dict(stride=0)),
    ("kind", ValueError, dict(kind=3)),
    ("table", ValueError, dict(table=np.zeros(0))),
]


@pytest.mark.parametrize(
    "name, error, bad", BAD_EDGE_ARGS, ids=[f"{n}-{i}" for i, (n, _, _) in enumerate(BAD_EDGE_ARGS)]
)
def test_c_kernel_rejects_bad_inputs(kernels_c, name, error, bad):
    kernels_c.integrate_edges(*_edge_args())  # the base arguments are valid
    with pytest.raises(error, match=name):
        kernels_c.integrate_edges(*_edge_args(**bad))
