"""Span recorder that wraps riskcounts' public functions from outside.

``Tracer.install()`` rebinds every module-level binding of each wrapped
function (definitions, re-exports in ``riskcounts`` and aliases such as
``cli._fixed_split``) to a wrapper that records a span.  A binding the
tracer cannot rebind -- one held in a container, a default argument or a
closure -- raises ``TracingError``: a missed binding would silently drop
that layer's time into its caller's self time.

Spans are kept in memory as lists ``[name, start, end, parent, op, error,
counts]`` and reduced to per-layer metrics by ``layer_metrics``.  Counting
work done after a call (window sizes, bytes) is recorded as a
``trace.bookkeeping`` child span, so it is excluded from the caller's
self time while still showing in the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: Public functions wrapped per layer.  ``CountDistribution`` is wrapped at
#: the class, through its ``__post_init__`` (the mass-identity check).
TARGETS = {
    "distributions": (
        "binomial_distribution",
        "beta_binomial_distribution",
        "convolve",
        "central_interval",
    ),
    "comparison": (
        "prob_greater",
        "prob_equal",
        "prob_less",
        "summarize",
        "split_vs_counterfactual",
        "lives_saved_bounds",
    ),
    "predictive": (
        "calibrate_prior",
        "predictive_arms",
        "spread_report",
        "split_vs_counterfactual",
    ),
    "classical": ("two_proportion_test",),
    "cohort": ("generate", "replication_study"),
    "scenarios": ("load_scenario", "parse_scenario"),
    "figures": ("build_figure", "render_figure_csv", "write_text_atomic", "read_metadata"),
    "cli": ("main", "replay_text", "render_replication_csv"),
}

_CONSTRUCTORS = ("distributions.binomial_distribution", "distributions.beta_binomial_distribution")
_PROBS = ("comparison.prob_greater", "comparison.prob_equal", "comparison.prob_less")
_BOOKKEEPING = "trace.bookkeeping"

NAME, START, END, PARENT, OP, ERROR, COUNTS = range(7)


class TracingError(RuntimeError):
    """A binding of a wrapped function could not be rebound."""


def _fewest_points(masses: np.ndarray, eps: float) -> int:
    """Fewest window points whose masses sum to all but ``eps`` of the window."""
    ordered = np.cumsum(np.sort(masses)[::-1])
    return min(int(np.searchsorted(ordered, ordered[-1] - eps)) + 1, len(masses))


def _count_law(kind):
    def count(bound, result):
        n, law = bound.arguments["n"], bound.arguments["p" if kind == "binomial" else "prior"]
        key = (kind, n, law) if kind == "binomial" else (kind, n, law.alpha, law.beta)
        points = len(result.log_mass)
        return {"key": key, "points": points,
                "fewest": _fewest_points(result.masses, bound.arguments["eps"])}
    return count


def _count_bytes(arg):
    def count(bound, result):
        text = result if arg is None else bound.arguments[arg]
        return {"bytes": len(text.encode("utf-8"))}
    return count


_COUNTERS = {
    "distributions.binomial_distribution": _count_law("binomial"),
    "distributions.beta_binomial_distribution": _count_law("beta-binomial"),
    "distributions.convolve": lambda b, r: {
        "macs": len(b.arguments["a"].log_mass) * len(b.arguments["b"].log_mass),
        "out_points": len(r.log_mass),
    },
    "cohort.generate": lambda b, r: {"individuals": 2 * b.arguments["spec"].n_per_group},
    "figures.render_figure_csv": _count_bytes(None),
    "figures.write_text_atomic": _count_bytes("text"),
    "figures.read_metadata": _count_bytes("text"),
}


class Tracer:
    """Records spans for every call into a wrapped function while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: str | None = None) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][ERROR] = error
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, type(exc).__name__)
                raise
            self._close(idx)
            if counter is not None:
                book = self._open(_BOOKKEEPING)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][COUNTS] = counter(bound, result)
                self._close(book)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every binding of each target; raise on any binding missed."""
        if self._undo:
            raise TracingError("tracer is already installed")
        modules = _riskcounts_modules()
        originals = {}
        for layer, names in TARGETS.items():
            module = modules[f"riskcounts.{layer}"]
            for attr in names:
                fn = getattr(module, attr)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        cls = modules["riskcounts.distributions"].CountDistribution
        self._undo.append((cls, "__post_init__", cls.__dict__["__post_init__"]))
        cls.__post_init__ = self._wrap("distributions.CountDistribution", cls.__post_init__)
        wrappers = {id(w) for _, w in originals.values()}
        try:
            _check_no_stray_bindings(
                modules, {id(fn): fn for fn, _ in originals.values()}, wrappers
            )
        except TracingError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                counts = span[COUNTS]
                if counts and "key" in counts:
                    counts = {**counts, "key": repr(counts["key"])}
                handle.write(json.dumps({
                    "name": span[NAME], "start": span[START], "end": span[END],
                    "parent": span[PARENT], "op": span[OP], "error": span[ERROR],
                    "counts": counts,
                }) + "\n")


def _riskcounts_modules() -> dict:
    for layer in TARGETS:
        importlib.import_module(f"riskcounts.{layer}")
    importlib.import_module("riskcounts.__main__")
    return {name: mod for name, mod in sys.modules.items()
            if name == "riskcounts" or name.startswith("riskcounts.")}


def _check_no_stray_bindings(modules: dict, originals: dict, wrappers: set) -> None:
    """Fail if an unwrapped target is still reachable from a riskcounts module."""
    def refs(value):
        if id(value) in wrappers:
            return
        if isinstance(value, dict):
            yield from value.values()
        elif isinstance(value, (list, tuple, set, frozenset)):
            yield from value
        elif inspect.isfunction(value):
            yield from value.__defaults__ or ()
            yield from (value.__kwdefaults__ or {}).values()
            for cell in value.__closure__ or ():
                try:
                    yield cell.cell_contents
                except ValueError:  # empty cell
                    pass

    for mod_name, module in modules.items():
        for attr, value in vars(module).items():
            if id(value) in originals and originals[id(value)] is value:
                raise TracingError(f"{mod_name}.{attr} still binds the unwrapped function")
            for inner in refs(value):
                if id(inner) in originals and originals[id(inner)] is inner:
                    raise TracingError(
                        f"{mod_name}.{attr} holds {inner.__qualname__} where it cannot be rebound"
                    )


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def _under(spans, idx, name) -> bool:
    parent = spans[idx][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list], op_kinds: dict) -> dict:
    """Reduce one pass's spans to the per-layer metric table.

    ``op_kinds`` maps op id to its subcommand; ``law_reuse`` is also given
    per subcommand as ``distributions.law_reuse[<kind>]``.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    totals = defaultdict(int)
    laws_per_op = defaultdict(list)
    refused = 0
    calibrate_failed = 0
    calibrate_builds = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        self_s[name] += own[i]
        calls[name] += 1
        counts = span[COUNTS] or {}
        for key, value in counts.items():
            if key != "key":
                totals[f"{name}.{key}"] += value
        if name in _CONSTRUCTORS:
            if span[ERROR] == "DomainError":
                refused += 1
            if "key" in counts:
                laws_per_op[span[OP]].append(counts["key"])
            if name == "distributions.beta_binomial_distribution" and _under(
                spans, i, "predictive.calibrate_prior"
            ):
                calibrate_builds += 1
        elif name == "predictive.calibrate_prior" and span[ERROR] is not None:
            calibrate_failed += 1
        elif name in _PROBS and not any(_under(spans, i, p) for p in _PROBS):
            calls["comparison.prob"] += 1
    self_s["comparison.prob"] = sum(self_s[p] for p in _PROBS)

    out = {}
    for name in ("distributions.binomial_distribution", "distributions.beta_binomial_distribution"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.points"] = totals[f"{name}.points"]
    out["distributions.CountDistribution.self_s"] = self_s["distributions.CountDistribution"]
    out["distributions.convolve.calls"] = calls["distributions.convolve"]
    out["distributions.convolve.self_s"] = self_s["distributions.convolve"]
    out["distributions.convolve.macs"] = totals["distributions.convolve.macs"]
    out["distributions.convolve.out_points"] = totals["distributions.convolve.out_points"]
    out["distributions.central_interval.calls"] = calls["distributions.central_interval"]
    out["distributions.central_interval.self_s"] = self_s["distributions.central_interval"]
    out["distributions.law_reuse"] = _law_reuse(laws_per_op.values())
    for kind in sorted(set(op_kinds.values())):
        ops = [laws for op, laws in laws_per_op.items() if op_kinds.get(op) == kind]
        if ops:
            out[f"distributions.law_reuse[{kind}]"] = _law_reuse(ops)
    points = sum(totals[f"{b}.points"] for b in _CONSTRUCTORS)
    fewest = sum(totals[f"{b}.fewest"] for b in _CONSTRUCTORS)
    # With no builds there is no window to waste: both ratios read 1.
    out["distributions.window_excess"] = points / fewest if fewest else 1.0
    out["distributions.refused"] = refused
    out["comparison.prob.calls"] = calls["comparison.prob"]
    out["comparison.prob.self_s"] = self_s["comparison.prob"]
    for name in ("summarize", "split_vs_counterfactual", "lives_saved_bounds"):
        out[f"comparison.{name}.self_s"] = self_s[f"comparison.{name}"]
    n_cal = calls["predictive.calibrate_prior"]
    out["predictive.calibrate_prior.calls"] = n_cal
    out["predictive.calibrate_prior.self_s"] = self_s["predictive.calibrate_prior"]
    out["predictive.calibrate_prior.failed"] = calibrate_failed
    out["predictive.calibrate_prior.builds_per_call"] = calibrate_builds / n_cal if n_cal else 0.0
    for name in ("predictive_arms", "spread_report", "split_vs_counterfactual"):
        out[f"predictive.{name}.self_s"] = self_s[f"predictive.{name}"]
    out["classical.two_proportion_test.calls"] = calls["classical.two_proportion_test"]
    out["classical.two_proportion_test.self_s"] = self_s["classical.two_proportion_test"]
    out["cohort.generate.calls"] = calls["cohort.generate"]
    out["cohort.generate.self_s"] = self_s["cohort.generate"]
    out["cohort.generate.individuals"] = totals["cohort.generate.individuals"]
    out["cohort.replication_study.self_s"] = self_s["cohort.replication_study"]
    for name in ("load_scenario", "parse_scenario"):
        out[f"scenarios.{name}.calls"] = calls[f"scenarios.{name}"]
        out[f"scenarios.{name}.self_s"] = self_s[f"scenarios.{name}"]
    out["figures.build_figure.self_s"] = self_s["figures.build_figure"]
    for name in ("render_figure_csv", "write_text_atomic", "read_metadata"):
        out[f"figures.{name}.self_s"] = self_s[f"figures.{name}"]
        out[f"figures.{name}.bytes"] = totals[f"figures.{name}.bytes"]
    for name in ("main", "replay_text", "render_replication_csv"):
        out[f"cli.{name}.self_s"] = self_s[f"cli.{name}"]
    return out


def _law_reuse(per_op) -> float:
    """Distinct laws over builds, summed over ops; 1 when nothing was built."""
    per_op = list(per_op)
    builds = sum(len(laws) for laws in per_op)
    return sum(len(set(laws)) for laws in per_op) / builds if builds else 1.0


def op_counts(spans: list[list], name: str, key: str) -> dict:
    """Per-op totals of one count, e.g. convolve ``macs`` for each ladder rung."""
    out = defaultdict(int)
    for span in spans:
        if span[NAME] == name and span[COUNTS]:
            out[span[OP]] += span[COUNTS][key]
    return dict(out)
