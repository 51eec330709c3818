"""The names the benchmark's tracer (``perfbench/tracer.py``) hooks.

The tracer wraps library functions by module attribute, static
``from_json`` constructors on their class, ``SubsystemProfile`` where
``search_oracle`` binds it, and ``SubsystemProfile.__post_init__``.
Renaming or deleting any of these breaks traced benchmark runs.  It also
counts refusals by comparing ``type(outcome).__name__`` with
``"BudgetExceededError"``, so renaming that class raises no error: the
``refused`` counter would just read 0.  These tests pin all of them.
The tracer looks each hooked module up in ``sys.modules`` and reads
``search_oracle`` as an attribute of the package, so what the benchmark
imports must register every hooked module in both places.  ``cli``
registers the modules it defers without running them, and the tracer's
first read of one runs it.  The tracer's source is only read
(``support.load_tracer``), never imported as a package module, so the
benchmark directory gains no bytecode cache.
"""

from __future__ import annotations

import importlib

import pytest

from hodgeslope import profiles, search_oracle

from support import TRACER, load_tracer, run_python

HOOKS = [target for targets in load_tracer().LAYERS.values() for target in targets]


def test_benchmark_imports_load_every_layer_module():
    # a fresh -S interpreter importing what perfbench/run.py imports, then
    # installing and uninstalling the tracer read from its source as
    # load_tracer reads it; a hooked module missing from sys.modules or
    # from the package fails the install
    code = (
        "import types, hodgeslope.cli, hodgeslope.inequalities; "
        "tracer = types.ModuleType('perfbench_tracer'); "
        f"tracer.__file__ = {str(TRACER)!r}; "
        "source = open(tracer.__file__, encoding='utf-8').read(); "
        "exec(compile(source, tracer.__file__, 'exec'), tracer.__dict__); "
        "hooks = tracer.Tracer(); hooks.install(); hooks.uninstall()"
    )
    done = run_python("-S", "-c", code)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_layer_target_resolves(module_name, attr):
    module = importlib.import_module("hodgeslope." + module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        # the tracer rebinds the raw class attribute, not the bound lookup
        assert isinstance(cls.__dict__[meth], staticmethod)
    else:
        assert callable(getattr(module, attr))


def test_profile_construction_hooks():
    assert search_oracle.SubsystemProfile is profiles.SubsystemProfile
    assert callable(profiles.SubsystemProfile.__dict__["__post_init__"])


def test_refusal_type_name():
    assert search_oracle.BudgetExceededError.__name__ == "BudgetExceededError"
    assert issubclass(search_oracle.BudgetExceededError, ValueError)
