"""The benchmark's tracer still finds every library name it wraps.

``bench/tracing.py`` wraps library functions and methods by dotted path
(its ``TARGETS``).  Installing and removing it here fails as soon as a
change deletes or renames one of those names, without running the
benchmark; ``bench/check_harness.py`` remains the full check of the harness.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import semrank.cli  # noqa: F401  (imports every module the tracer patches)

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(path):
    """The object holding a target's attribute, and the attribute's name."""
    module_name, attr = path.split(":")
    owner = importlib.import_module(module_name)
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last


def _bindings(owners):
    """Every name bound in a ``semrank`` module or in one of ``owners``."""
    spaces = [module for name, module in sys.modules.items() if name == "semrank" or name.startswith("semrank.")]
    return {(id(space), key): value for space in [*spaces, *owners] for key, value in vars(space).items()}


def test_install_wraps_every_target_and_uninstall_restores_it():
    tracing = _load_tracing()
    targets = [_resolve(path) for path, _, _ in tracing.TARGETS]
    originals = [getattr(owner, name) for owner, name in targets]
    classes = {owner for owner, _ in targets if isinstance(owner, type)}
    before = _bindings(classes)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, name), original in zip(targets, originals):
            assert getattr(owner, name).__wrapped__ is original, name
    finally:
        tracer.uninstall()
    after = _bindings(classes)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
