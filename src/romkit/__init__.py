"""romkit: hybrid reduced-order modeling toolkit.

A desk-scale incompressible-flow solver with Windkessel outlets generates
snapshots; POD + lifting + Galerkin projection build an equation-based
reduced model; a from-scratch feedforward network supplies the continuous
outflow-pressure curve; the online solver reconstructs velocity/pressure
fields at a small fraction of the full-order cost.
"""

from .errors import (
    ConfigurationError,
    FormatError,
    NumericalError,
    RankError,
    RomkitError,
    ShapeError,
    StabilityError,
    TrainingError,
)
from .grid import Field, FieldRows, Grid, SnapshotSet, build_grid, l2_norm
from .windkessel import WindkesselParams, WindkesselState, wk_steady_pressure, wk_step
from .fom import FomConfig, FomResult, FomSolver, Waveform, fom_run
from .lifting import LiftingPair, compute_lifting, dehomogenize, homogenize
from .pod import (
    ReducedBasis,
    build_basis,
    correlation_matrix,
    pod_basis,
    project_coefficients,
    projection_error,
    symmetric_eig,
    truncation_rank,
)
from .nn import (
    NNModel,
    TrainConfig,
    fit_outflow,
    init_model,
    nn_backprop,
    nn_forward,
    nn_train,
    predict_outflow,
)
from .rom import (
    ReducedOperators,
    ReducedTrajectory,
    assemble_operators,
    integrate_rom,
    prepare_step,
    reconstruct,
    supremizer_enrich,
)
from .affine_rb import AffineProblem, RBSpace, demo_problem, fom_solve, rb_offline, rb_online
from .pipeline import Bundle, RunReport, compare, error_vs_n, offline, online, parse_config

__version__ = "0.1.0"

__all__ = [
    "AffineProblem", "Bundle", "ConfigurationError", "Field", "FieldRows", "FomConfig",
    "FomResult", "FomSolver", "FormatError", "Grid", "LiftingPair", "NNModel",
    "NumericalError", "RBSpace", "RankError", "ReducedBasis", "ReducedOperators",
    "ReducedTrajectory", "RomkitError", "RunReport", "ShapeError", "SnapshotSet",
    "StabilityError", "TrainConfig", "TrainingError", "Waveform", "WindkesselParams",
    "WindkesselState", "assemble_operators", "build_basis", "build_grid", "compare",
    "compute_lifting", "correlation_matrix", "dehomogenize", "demo_problem",
    "error_vs_n", "fit_outflow", "fom_run", "fom_solve", "homogenize",
    "init_model", "integrate_rom", "l2_norm",
    "nn_backprop", "nn_forward", "nn_train", "offline", "online", "parse_config",
    "pod_basis", "predict_outflow", "prepare_step", "project_coefficients", "projection_error",
    "rb_offline", "rb_online", "reconstruct", "supremizer_enrich", "symmetric_eig",
    "truncation_rank", "wk_steady_pressure", "wk_step",
]
