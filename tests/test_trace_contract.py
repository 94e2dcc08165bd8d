"""The benchmark tracer's view of the package still matches the package.

`perfbench/tracer.py` wraps the functions listed in its `TRACED` table and
reads some of their arguments by position (falling back to the keyword
name).  A rename or a reordered signature would only show when the
benchmark runs; these tests make it fail here instead.  The tracer module
is loaded from its file and nothing under `perfbench/` is changed.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# (module, function) -> {position: argument name} that the tracer's counters read
READS = {
    ("emgadapt.model_selection", "select"): {1: "fit_fn"},
    ("emgadapt.lssvm", "solve_dual_system"): {0: "kmat", 2: "targets"},
    ("emgadapt.signals", "load_dataset"): {0: "stem"},
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = _load_tracer().TRACED
    assert traced
    for module_name, attr, _, _ in traced:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert inspect.isfunction(fn), f"{module_name}.{attr} is gone"


@pytest.mark.parametrize("target", sorted(READS), ids=lambda t: t[1])
def test_arguments_read_by_position_keep_their_names(target):
    module_name, attr = target
    params = list(inspect.signature(getattr(importlib.import_module(module_name), attr)).parameters.values())
    for pos, name in READS[target].items():
        assert len(params) > pos, f"{attr} has no argument at position {pos}"
        assert params[pos].name == name
        assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_the_read_list_covers_every_positional_read_of_the_tracer():
    reads = set()
    for node in ast.walk(ast.parse(TRACER_PATH.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
            pos, name = node.args[2], node.args[3]
            reads.add((ast.literal_eval(pos), ast.literal_eval(name)))
    listed = {(pos, name) for by_pos in READS.values() for pos, name in by_pos.items()}
    assert reads == listed
