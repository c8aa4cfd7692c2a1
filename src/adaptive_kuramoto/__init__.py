"""Adaptive Kuramoto networks: cluster conditions, invariant tori, topology design.

Simulates phase oscillators whose coupling strengths adapt by a plasticity
rule, checks sufficient conditions for a prescribed multi-cluster partition
to persist, constructs the invariant toroidal manifold carrying the cluster
dynamics, and searches for minimal edge edits that make a desired partition
admissible.

The network integrator runs on a small C kernel, compiled on first import
with the interpreter's C compiler, and on NumPy when that build is not
possible; set ADAPTIVE_KURAMOTO_BACKEND=python to force NumPy (the active
choice, "c" or "python", is exposed as ``BACKEND``).
"""

from ._backend import BACKEND
from .conditions import (
    ConditionReport,
    LearningRule,
    PlasticityParams,
    check_cluster_conditions,
    check_perturbed_conditions,
    contraction_ratio,
)
from .design import (
    DesignResult,
    PerturbationMatrix,
    brute_force_min_edits,
    c_tilde_out,
    design_topology,
    min_edits_for_targets,
)
from .dynamics import (
    ErrorMetrics,
    IntegrationBlowup,
    NetworkState,
    Trajectory,
    TwoOscillatorResult,
    cluster_errors,
    error_metrics,
    initial_state,
    random_couplings,
    rhs_full,
    simulate,
    simulate_static_pair,
    switch_topology_scenario,
    trajectory_to_csv,
    two_oscillator_static_analysis,
    wrap_to_2pi,
    wrap_to_pi,
)
from .network import (
    CardinalityReport,
    ClusterPartition,
    EdgeStructure,
    OscillatorNetwork,
    apply_perturbation,
    build_network,
    check_frequencies,
    compute_cardinalities,
    inter_cluster_structure,
    load_network_file,
    network_from_dict,
    network_to_dict,
    save_network_file,
)
from .torus import (
    ClusterManifold,
    ConditionsNotSatisfied,
    IntraTorusValue,
    IterationLog,
    NoConvergence,
    TorusFunction,
    export_surface,
    full_manifold,
    invariance_residual,
    iterate_once,
    load_torus,
    save_torus,
    solve_torus,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BACKEND",
    # networks and partitions
    "OscillatorNetwork",
    "ClusterPartition",
    "CardinalityReport",
    "EdgeStructure",
    "build_network",
    "compute_cardinalities",
    "check_frequencies",
    "apply_perturbation",
    "inter_cluster_structure",
    "network_from_dict",
    "network_to_dict",
    "load_network_file",
    "save_network_file",
    # conditions
    "LearningRule",
    "PlasticityParams",
    "ConditionReport",
    "check_cluster_conditions",
    "check_perturbed_conditions",
    "contraction_ratio",
    # dynamics
    "NetworkState",
    "Trajectory",
    "IntegrationBlowup",
    "ErrorMetrics",
    "TwoOscillatorResult",
    "initial_state",
    "random_couplings",
    "simulate",
    "switch_topology_scenario",
    "rhs_full",
    "cluster_errors",
    "error_metrics",
    "trajectory_to_csv",
    "two_oscillator_static_analysis",
    "simulate_static_pair",
    "wrap_to_2pi",
    "wrap_to_pi",
    # invariant torus
    "TorusFunction",
    "IterationLog",
    "IntraTorusValue",
    "ClusterManifold",
    "ConditionsNotSatisfied",
    "NoConvergence",
    "iterate_once",
    "solve_torus",
    "invariance_residual",
    "full_manifold",
    "export_surface",
    "save_torus",
    "load_torus",
    # topology design
    "PerturbationMatrix",
    "DesignResult",
    "min_edits_for_targets",
    "design_topology",
    "brute_force_min_edits",
    "c_tilde_out",
]
