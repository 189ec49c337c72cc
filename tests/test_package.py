"""The package's shape: standard-library imports only, a small top level,
and every name the benchmark reads off the package."""

import ast
import importlib
import sys
import types
from pathlib import Path

import hamspec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hamspec"


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
    # load_profile, read_series); the command layer writes its outputs
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


def _names_read_off_pkg(tree: ast.AST) -> set:
    """The dotted names a benchmark module reads off `pkg`, the imported
    package, or off a name assigned from it (`nm = pkg.numerics`)."""
    aliases = {"pkg": ()}

    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            return aliases[node.id] + tuple(reversed(parts))
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
            chain = dotted(node.value)
            if chain:
                aliases[node.targets[0].id] = chain
    return {chain for node in ast.walk(tree) if (chain := dotted(node))}


def test_benchmark_names_resolve():
    # perfbench/ calls the package by attribute, outside tier-1's testpaths:
    # a rename there would pass these tests and only break the benchmark;
    # the harness imports hamspec.cli besides what importing hamspec loads
    importlib.import_module("hamspec.cli")
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names |= _names_read_off_pkg(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert {("filter_pipeline", "filter_step"), ("filter_pipeline", "run_pipeline")} <= names
    missing = []
    for chain in sorted(names):
        obj = hamspec
        for attr in chain:
            if not hasattr(obj, attr):
                missing.append(".".join(chain))
                break
            obj = getattr(obj, attr)
    assert missing == []
