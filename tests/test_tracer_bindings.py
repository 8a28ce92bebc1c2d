"""The benchmark's tracer (``perfbench/tracing.py``) against the package's
bindings.

The tracer rebinds every module-level binding of each function it wraps
and refuses to install (``TracingError``) where a binding hides in a
closure, a default argument or a container.  A refactor that hides one
breaks every traced benchmark run, so the install and its undo are checked
here, and so are the commands of a traced run: the tracer's counters read
the arguments of the calls they wrap (``write_text_atomic``'s ``text``
is encoded after the call).  The tracer's source is read and executed as
it is; nothing under ``perfbench/`` is written, not even a bytecode cache.
"""

import contextlib
import io
import types
from pathlib import Path

from pinned import scenario_path
from riskcounts import cli
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


def run_commands(tmp_path):
    """stdout and file bytes of ``figure --id 3``, the replay of the file it
    wrote and ``simulate --out``."""
    figure, report = tmp_path / "fig3.csv", tmp_path / "sim.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["figure", scenario_path(tmp_path, "la_rr106"), "--id", "3",
                         "--out", str(figure)]) == 0
        text = figure.read_text(encoding="utf-8")
        assert cli.replay_text(text) == text
        assert cli.main(["simulate", scenario_path(tmp_path, "proxy_spec"),
                         "--replications", "5", "--out", str(report)]) == 0
    return out.getvalue(), figure.read_bytes(), report.read_bytes()


def test_a_traced_run_prints_and_writes_what_an_untraced_one_does(tmp_path):
    plain = run_commands(tmp_path)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traced = run_commands(tmp_path)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.replay_text", "figures.write_text_atomic"} <= names
