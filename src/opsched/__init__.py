"""Operator-level parallel schedule planning for computation DAGs.

The package models scheduling of a computation graph onto a device
cluster as a mixed-integer program, solves it with a built-in exact
branch-and-bound (or exports MPS/LP for external solvers), verifies
solutions with an independent discrete-event replay, and ships
benchmark scenario generators plus chrome-tracing export.
"""
from .coarsen import MergeRecord, coarsen
from .graph import (Channel, ComputationGraph, DependencyEdge, GraphError,
                    HardwareCluster, Machine, Operation, WeightAsset,
                    dump_cluster, dump_computation_graph, load_cluster,
                    load_computation_graph)
from .model import (ModelError, ModelOptions, ScheduleModel,
                    build_model, clear_primal_bound, set_primal_bound)
from .mpswriter import export_lp, export_mps
from .scenarios import (DualPipeSpec, RandomDagSpec, dualpipe_bubble_target,
                        dualpipe_primal_bound, dualpipe_reference,
                        gen_dualpipe, gen_random_dag)
from .simulate import VerifyReport, expand_schedule, verify, warm_start
from .solver import (Solution, SolveConfig, SolveError, list_schedule,
                     refine_idle, solve)

__all__ = [
    "Channel", "ComputationGraph", "DependencyEdge", "DualPipeSpec",
    "GraphError", "HardwareCluster", "Machine", "MergeRecord",
    "ModelError", "ModelOptions", "Operation", "RandomDagSpec",
    "ScheduleModel", "Solution", "SolveConfig", "SolveError",
    "VerifyReport", "WeightAsset",
    "build_model", "clear_primal_bound", "coarsen",
    "dualpipe_bubble_target", "dualpipe_primal_bound",
    "dualpipe_reference", "dump_cluster", "dump_computation_graph",
    "expand_schedule", "export_lp", "export_mps",
    "gen_dualpipe", "gen_random_dag", "list_schedule", "load_cluster",
    "load_computation_graph", "refine_idle", "set_primal_bound", "solve",
    "verify", "warm_start",
]

__version__ = "0.1.0"
