"""The benchmark's per-layer tracer still finds every layer it wraps.

``bench/layertrace.py`` names each traced function by module and attribute
path.  A refactor that moves or renames one of them breaks the traced
benchmark run; this test catches that in seconds.  The tracer file is read,
never imported as a module of the checkout, so nothing is written beside it.
"""

import sys
import types
from pathlib import Path

import prime_scope  # noqa: F401  (imports every module the tracer patches)
import prime_scope.cli  # noqa: F401

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def _load_layertrace():
    module = types.ModuleType("layertrace_contract")
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), module.__dict__)
    return module


def _resolve(module, path):
    home = sys.modules[f"prime_scope.{module}"]
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(home, cls_name).__dict__[attr]
    return getattr(home, path)


def test_tracer_resolves_every_target_and_restores_it():
    lt = _load_layertrace()
    originals = {name: _resolve(module, path) for name, module, path in lt.TARGETS}
    tracer = lt.Tracer()
    tracer.install()
    try:
        for name, module, path in lt.TARGETS:
            assert _resolve(module, path) is not originals[name], name
        patched = {id(original) for _, _, original in tracer._patched}
        assert patched == {id(fn) for fn in originals.values()}
    finally:
        tracer.uninstall()
    for name, module, path in lt.TARGETS:
        assert _resolve(module, path) is originals[name], name
    for owner, key, original in tracer._patched:
        assert getattr(owner, key) is original, (owner, key)
