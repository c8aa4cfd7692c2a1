"""Shared instances: the worked 5-node and 7-node networks, and the C
kernel compiled from the source tree.

Adjacency rows are receiver-oriented: a[i][j] = 1 means node i receives
from node j.
"""

import importlib.util
import math
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from adaptive_kuramoto import (
    ClusterPartition,
    LearningRule,
    OscillatorNetwork,
    PlasticityParams,
)

W2 = math.sqrt(2.0) / 3.0
W45 = math.sqrt(4.0 / 5.0)

SEVEN_ADJ = [
    [0, 1, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1],
    [1, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 1],
    [1, 0, 1, 1, 0, 0, 0],
]


@pytest.fixture(scope="session")
def five_node():
    adj = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
    w = [0.5, 0.5, 0.5, W2, W2]
    net = OscillatorNetwork(adj, w)
    part = ClusterPartition(((0, 1, 2), (3, 4)))
    pp = PlasticityParams(gamma=1.0, mu=0.01, rule=LearningRule.hebbian())
    return net, part, pp


@pytest.fixture(scope="session")
def seven_node_original():
    w = [0.5, 0.5, 0.5, W45, W45, W45, W45]
    net = OscillatorNetwork(SEVEN_ADJ, w)
    part = ClusterPartition(((0, 1, 2), (3, 4, 5, 6)))
    pp = PlasticityParams(gamma=0.2, mu=0.001, rule=LearningRule.hebbian())
    return net, part, pp


@pytest.fixture(scope="session")
def seven_node_fixed(seven_node_original):
    net, part, pp = seven_node_original
    adj = net.adjacency.copy()
    adj[6, 0] = 0
    return OscillatorNetwork(adj, net.frequencies), part, pp


@pytest.fixture(scope="session")
def kernels_c(tmp_path_factory):
    """The C kernel module, compiled from the source tree into a temporary
    directory with the interpreter's compiler and headers. Skips only when no
    C compiler is found; a compile error fails the test."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    source = Path(__file__).parents[1] / "src" / "adaptive_kuramoto" / "_kernels_c.c"
    target = tmp_path_factory.mktemp("kernels_c") / ("_kernels_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    include = "-I" + sysconfig.get_paths()["include"]
    build = subprocess.run(
        [*cc, "-shared", "-fPIC", "-O3", include, str(source), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("adaptive_kuramoto._kernels_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
