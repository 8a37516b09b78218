"""Every library name the benchmark's workloads read still exists.

``bench/workloads.py`` calls the library through module attributes
(``graph.personalized_pagerank``, not a name imported from the module), so
a deletion or rename surfaces only when the benchmark runs.  Parsing the
file and resolving each ``<module>.<attr>`` it reads fails here first.
"""

import ast
import importlib
from pathlib import Path

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _names_read():
    """``(module, attr)`` for every attribute the file reads off a module
    it imports with ``from semrank import ...``."""
    tree = ast.parse(_WORKLOADS.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "semrank"
        for alias in node.names
    }
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        }
    )


def test_every_library_name_the_workloads_read_resolves():
    names = _names_read()
    assert ("graph", "personalized_pagerank") in names
    assert ("graph", "normalize_adjacency") in names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"semrank.{module}"), attr)
    ]
    assert missing == []
