"""Iterative QUBO solution of sparse linear systems from plate heat problems."""

from .blocksolve import (
    BlockPartition,
    ConvergenceReport,
    SolveConfig,
    check_convergence_condition,
    gs_sweep,
    iterate,
    partition,
    residual,
    shrink_encoding,
)
from .encoding import (
    BinaryEncoding,
    QuboProblem,
    ResourceReport,
    decode,
    encode,
    estimate_resources,
    inverse_index,
    logical_index,
    required_bits,
)
from .heatgrid import HeatProblem, assemble_system, boundary_temperature, grid_to_field, named_boundary
from .linear import LinearSystem
from .reference import (
    ConditionEstimate,
    SingularMatrixError,
    classical_gauss_seidel,
    condition_number,
    direct_solve,
    relative_error,
)
from .samplers import BACKENDS, Sample, SampleSet, SamplerParams, energy, solve_exhaustive, solve_sa
from .trace import IterationRecord, IterationTrace

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "BinaryEncoding",
    "BlockPartition",
    "ConditionEstimate",
    "ConvergenceReport",
    "HeatProblem",
    "IterationRecord",
    "IterationTrace",
    "LinearSystem",
    "QuboProblem",
    "ResourceReport",
    "Sample",
    "SampleSet",
    "SamplerParams",
    "SingularMatrixError",
    "SolveConfig",
    "assemble_system",
    "boundary_temperature",
    "check_convergence_condition",
    "classical_gauss_seidel",
    "condition_number",
    "decode",
    "direct_solve",
    "encode",
    "energy",
    "estimate_resources",
    "grid_to_field",
    "gs_sweep",
    "inverse_index",
    "iterate",
    "logical_index",
    "named_boundary",
    "partition",
    "relative_error",
    "required_bits",
    "residual",
    "shrink_encoding",
    "solve_exhaustive",
    "solve_sa",
]
