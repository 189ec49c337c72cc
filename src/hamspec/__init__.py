"""Hamiltonian path counting via frequency-sum encoding and filter cascades,
with exact enumeration oracles for desk-scale verification."""

from .extraction import ExtractionResult, SingularSystemError, extract_nh
from .filter_pipeline import (
    DegenerateScheduleError,
    filter_step,
    integrator_cascade,
    run_filter,
    run_pipeline,
    run_pseudo_steps,
)
from .graph import Graph, GraphParseError, hamiltonian_frequency, parse_graph, vertex_numbers
from .grid import grid_intermediate, grid_series
from .numerics import (
    NormalizedSeries,
    PrecisionComplex,
    PrecisionReal,
    exp_series,
    series_add,
    series_eval,
    series_from_text,
    series_mul,
    series_to_text,
)
from .schedule import (
    NoRootError,
    PipelineProfile,
    ProfileError,
    StepSchedule,
    build_schedule,
    desk_profile,
    full_scale_profile,
    solve_r_mu_plus_1,
    solve_r_sp,
    validate_profile,
)
from .walk_oracle import (
    OracleLimitError,
    check_visit_pair_uniqueness,
    count_hamiltonian_paths,
    enumerate_n_walks,
    matrix_walk_count,
    oracle_series,
    walk_spectrum,
)

__version__ = "0.1.0"
