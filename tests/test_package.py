"""The package's shape: standard-library imports only, and a small top level."""

import ast
import sys
import types
from pathlib import Path

import hamspec

SRC = Path(__file__).resolve().parents[1] / "src" / "hamspec"


def test_no_runtime_dependencies():
    # every absolute import in src/hamspec is hamspec itself or the
    # standard library; relative imports stay inside the package
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "hamspec" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []


def test_cli_opens_files_only_to_write():
    # each file format has one reader, in its own module (load_graph,
    # load_profile, load_series); the command layer writes its outputs
    modes = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            mode = node.args[1] if len(node.args) > 1 else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            modes.append(mode.value if isinstance(mode, ast.Constant) else "r")
    assert modes and all(set(mode) & set("wax") for mode in modes), modes


def test_top_level_names():
    # the README's Library example and the benchmark's names; the rest is
    # reached through the submodules importing hamspec loads
    names = {
        k for k, v in vars(hamspec).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert names == {
        "Graph",
        "grid_series",
        "build_schedule",
        "run_filter",
        "run_pipeline",
        "run_pseudo_steps",
        "extract_nh",
        "desk_profile",
        "StepSchedule",
        "walk_spectrum",
        "count_hamiltonian_paths",
    }
    loaded = ("extraction", "filter_pipeline", "graph", "grid", "numerics", "schedule", "walk_oracle")
    for module in loaded:
        assert isinstance(getattr(hamspec, module), types.ModuleType), module
