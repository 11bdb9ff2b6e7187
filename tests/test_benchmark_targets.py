"""Every function the benchmark's tracer wraps still exists.

perfbench/tracer.py imports numpy, which the package tests do not need, so
its TARGETS are read from the source with ast rather than imported. A target
the tracer cannot find is reported as absent and its metrics vanish from the
benchmark; a rename in src/ must not do that silently.
"""

import ast
import sys
from pathlib import Path

import pytest

import statpriv.cli  # noqa: F401 - loads every module the tracer wraps

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def literal_targets():
    """(module, attribute path) of each TARGETS tuple whose first two items
    are string literals; the tuples built by an f-string are left out."""
    tree = ast.parse(TRACER.read_text())
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    found = []
    for item in targets.elts:
        if isinstance(item, ast.Tuple) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str) for e in item.elts[:2]
        ):
            found.append((item.elts[0].value, item.elts[1].value))
    return found


TARGETS = literal_targets()


def test_the_tracer_names_the_layers_entry_points():
    assert len(TARGETS) >= 10
    assert ("statpriv.divergence", "privacy_curve") in TARGETS
    assert ("statpriv.sampling", "sampling_curve") in TARGETS


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_every_tracer_target_resolves_after_importing_the_cli(module, path):
    owner = sys.modules.get(module)
    assert owner is not None, f"import statpriv.cli does not load {module}"
    for part in path.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module}.{path} does not exist"
    assert callable(owner)
