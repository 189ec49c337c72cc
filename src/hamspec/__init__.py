"""Hamiltonian path counting via frequency-sum encoding and filter cascades,
with exact enumeration oracles for desk-scale verification.

The top level exports what the README's Library example and the benchmark
use; everything else lives in its submodule. Importing hamspec loads the
submodules these names come from and numerics beneath them, so
hamspec.numerics and the rest resolve; hamspec.cli and hamspec.transfer
load when imported."""

from .extraction import extract_nh
from .filter_pipeline import run_filter, run_pipeline, run_pseudo_steps
from .graph import Graph
from .grid import grid_series
from .schedule import StepSchedule, build_schedule, desk_profile
from .walk_oracle import count_hamiltonian_paths, walk_spectrum

__version__ = "0.1.0"
