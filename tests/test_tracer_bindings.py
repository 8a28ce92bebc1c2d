"""The benchmark's tracer (``perfbench/tracing.py``) against the package's
bindings.

The tracer rebinds every module-level binding of each function it wraps
and refuses to install (``TracingError``) where a binding hides in a
closure, a default argument or a container.  A refactor that hides one
breaks every traced benchmark run, so the install and its undo are checked
here.  The tracer's source is read and executed as it is; nothing under
``perfbench/`` is written, not even a bytecode cache.
"""

import types
from pathlib import Path

from riskcounts.distributions import CountDistribution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def bindings(modules):
    return {(name, attr): value for name, module in modules.items() for attr, value in vars(module).items()}


def test_the_tracer_rebinds_every_binding_and_restores_it():
    tracing = load_tracing()
    modules = tracing._riskcounts_modules()
    targets = {}
    for layer, names in tracing.TARGETS.items():
        for attr in names:
            fn = getattr(modules[f"riskcounts.{layer}"], attr)
            targets[id(fn)] = fn
    before = bindings(modules)
    post_init = CountDistribution.__dict__["__post_init__"]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = set()
        for (name, attr), value in before.items():
            now = vars(modules[name])[attr]
            if id(value) in targets and targets[id(value)] is value:
                assert now is not value and now.__wrapped__ is value, f"{name}.{attr}"
                wrapped.add(id(value))
            else:
                assert now is value, f"{name}.{attr}"
        assert wrapped == set(targets)
        assert CountDistribution.__dict__["__post_init__"].__wrapped__ is post_init
    finally:
        tracer.uninstall()

    after = bindings(modules)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, "{}.{}".format(*key)
    assert CountDistribution.__dict__["__post_init__"] is post_init
