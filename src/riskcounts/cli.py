"""Command-line surface: scenario files in, reports and CSV tables out.

Subcommands::

    summarize   population-level comparison of a two-arm risk scenario
    figure      plot-ready CSV table (ids 1-4) for a scenario
    pvalue      classical two-proportion test on observed counts
    simulate    replication study over a synthetic-cohort spec
    calibrate   fit beta priors so predictive spread hits a target ratio

Every command is deterministic given its inputs and the declared seed; file
outputs go through an atomic write so a partial file is never left behind.
The output controls (coverage, eps, seed, alpha, replications) are declared
once, in ``_CONTROLS``; each resolves to its command-line flag, else the
scenario file's control, else the built-in default.  Probabilities print
with six significant digits, a two-digit approximation, and the truncation
error bound where one applies.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classical import TestResult, TwoByTwo, relative_risk_estimate, two_proportion_test
from .cohort import CausalSpec, check_seed, replication_study
from .comparison import ExposureScenario, ScenarioAnalysis
from .distributions import DEFAULT_EPS, CountDistribution, DomainError, central_interval, mode
from .predictive import CalibrationError, _calibrate
from .figures import (
    FIGURE_IDS,
    _figure_pieces,
    _write_atomic,
    build_figure,
    calibrated_figure,
    render_replication_csv,
    replay_file,
    replay_text,
    write_text_atomic,
)
from .scenarios import ScenarioError, ScenarioFile, load_scenario

__all__ = ["main", "render_replication_csv", "replay_file", "replay_text"]

_CAUTION_NOTE = """\
caution: the p-value measures surprise under a no-difference model.  It does
not say why the arms differ.  Relabel the same two columns of counts with any
trait that separates the groups - measured or not - and the identical
statistic and p-value follow, so rejection alone is never evidence that the
named exposure causes the outcome."""


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _prob(value: float) -> str:
    """Six significant digits plus a rough two-digit reading."""
    return f"{value:#.6g} (~ {value:.2g})"


def _pct(coverage: float) -> str:
    return f"{coverage * 100:g}%"


def _interval_line(d: CountDistribution, coverage: float) -> str:
    iv = central_interval(d, coverage)
    return (
        f"mode {mode(d)}, {_pct(coverage)} interval [{iv.lo}, {iv.hi}] "
        f"(achieved {iv.achieved:#.6g})"
    )


def _seed(text: str) -> int:
    """argparse type for ``--seed``: an integer ``check_seed`` accepts."""
    try:
        return check_seed(int(text), "")
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


#: Output control -> (argparse type, help text, built-in default); the names
#: are exactly ``scenarios.ScenarioFile``'s controls.
_CONTROLS = {
    "coverage": (float, "interval coverage level (default 0.9999)", 0.9999),
    "eps": (float, "total truncated-mass budget per distribution", DEFAULT_EPS),
    "seed": (_seed, "master seed for the replication stream", 0),
    "alpha": (float, "test size (default 0.05)", 0.05),
    "replications": (int, "number of synthetic cohorts to draw", 1000),
}


def _add_controls(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        kind, text, _ = _CONTROLS[name]
        p.add_argument(f"--{name}", type=kind, default=None, help=text)


def _resolve(args: argparse.Namespace, sf: ScenarioFile | None) -> dict:
    """Each control the subcommand declared: its flag, else the scenario
    file's control, else the built-in default."""
    return {
        name: next(v for v in (getattr(args, name), getattr(sf, name, None), default)
                   if v is not None)
        for name, (_, _, default) in _CONTROLS.items()
        if hasattr(args, name)
    }


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def _summary_lines(a: ScenarioAnalysis, coverage: float) -> list[str]:
    """The summarize report; only the header lines and the lives-saved
    block depend on the scenario kind."""
    s, summary, comp = a.scenario, a.summary, a.split_comparison
    if isinstance(s, ExposureScenario):
        lines = [
            "two-arm risk scenario (fixed per-person risks)",
            f"  exposed arm:   n={s.n_exposed}  p={s.p_exposed!r}",
            f"  unexposed arm: n={s.n_unexposed}  p={s.p_unexposed!r}",
        ]
        rr_label = "per-person relative risk"
    else:
        lines = [
            "two-arm risk scenario (beta-uncertain per-person risks)",
            f"  exposed arm:   n={s.n_exposed}  "
            f"prior alpha={s.prior_exposed.alpha!r} beta={s.prior_exposed.beta!r}",
            f"  unexposed arm: n={s.n_unexposed}  "
            f"prior alpha={s.prior_unexposed.alpha!r} beta={s.prior_unexposed.beta!r}",
        ]
        rr_label = "per-person relative risk (prior means)"
    if summary.per_person_rr is None:
        lines.append("per-person relative risk: undefined (both risks are zero)")
    else:
        lines.append(f"{rr_label}: {summary.per_person_rr:#.6g}")
    if summary.effective_rr is None:
        lines.append("effective relative risk: undefined (neither arm can see a case)")
    else:
        lines.append(
            f"effective relative risk: {summary.effective_rr:#.6g} "
            f"(~ {summary.effective_rr:.2g})"
        )
    lines += [
        f"P(no cases in exposed arm):   {_prob(summary.p_nobody_exposed)}",
        f"P(no cases in unexposed arm): {_prob(summary.p_nobody_unexposed)}",
        f"arm-versus-arm comparison (error bound <= {summary.error_bound:.2e}):",
        f"  P(exposed arm counts more):   {_prob(summary.p_exposed_more)}",
        f"  P(arms count exactly equal):  {_prob(summary.p_equal)}",
        f"  P(unexposed arm counts more): {_prob(summary.p_unexposed_more)}",
        "arm count summaries:",
        f"  exposed:   {_interval_line(a.arm_e, coverage)}",
        f"  unexposed: {_interval_line(a.arm_u, coverage)}",
        "split total vs all-low counterfactual:",
        f"  split total: {_interval_line(comp.split, coverage)}",
        f"  all-low:     {_interval_line(comp.all_low, coverage)}",
        f"  P(split total larger):   {_prob(comp.p_split_more)}",
        f"  P(exactly equal totals): {_prob(comp.p_equal)}",
        f"  P(all-low total larger): {_prob(comp.p_all_low_more)}",
    ]
    if isinstance(s, ExposureScenario):
        lives = a.lives_saved(coverage)
        lines += [
            "cases avertable by eliminating exposure:",
            f"  best case (interval extremes): {lives.best_case}",
            f"  most likely (mode difference): {lives.most_likely}",
            f"  P(split total >= its interval top): {lives.tail_prob_best_case:.4e}",
        ]
    return lines


def cmd_summarize(args: argparse.Namespace, sf: ScenarioFile, *, coverage: float,
                  eps: float) -> int:
    if isinstance(sf.payload, CausalSpec):
        return _fail(
            "summarize needs a risk scenario (exposure_scenario or "
            "uncertain_scenario); this file holds a causal_spec"
        )
    print("\n".join(_summary_lines(ScenarioAnalysis(sf.payload, eps), coverage)))
    return 0


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def cmd_figure(args: argparse.Namespace, sf: ScenarioFile, *, coverage: float,
               eps: float) -> int:
    if args.id in (2, 4) and isinstance(sf.payload, ExposureScenario):
        if args.calibrate_ratio is None:
            return _fail(
                f"figure {args.id} needs per-person risk priors: supply an "
                "uncertain_scenario file or pass --calibrate-ratio to fit "
                "priors to this fixed-risk scenario"
            )
        table = calibrated_figure(args.id, sf.payload, args.calibrate_ratio, coverage, eps)
    elif args.calibrate_ratio is not None:
        return _fail("--calibrate-ratio applies only to figures 2 and 4 of an "
                     "exposure_scenario file")
    else:
        table = build_figure(args.id, sf.payload, eps)
    lines = 0

    def counted(pieces):
        nonlocal lines
        for piece in pieces:
            lines += piece.count("\n")
            yield piece

    _write_atomic(args.out, counted(_figure_pieces(table)))
    print(f"wrote figure {args.id} ({lines} lines) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# pvalue
# ---------------------------------------------------------------------------


def _print_test(t: TwoByTwo, result: TestResult, continuity: bool) -> None:
    label = "with" if continuity else "without"
    print(f"two-proportion score test ({label} continuity correction)")
    print(f"  arm A: {t.cases_a} cases of {t.n_a}  (proportion {t.cases_a / t.n_a:#.6g})")
    print(f"  arm B: {t.cases_b} cases of {t.n_b}  (proportion {t.cases_b / t.n_b:#.6g})")
    print(f"  statistic: {result.statistic:#.6g}")
    print(f"  p-value:   {_prob(result.p_value)}")
    verdict = "rejected" if result.reject else "not rejected"
    print(f"  no-difference hypothesis at alpha={result.alpha:g}: {verdict}")
    try:
        rr = relative_risk_estimate(t)
    except DomainError:
        rr = None
    if rr is not None:
        print(f"  relative-risk estimate: {rr:#.6g}")
    print(_CAUTION_NOTE)


def cmd_pvalue(args: argparse.Namespace, sf: None, *, alpha: float) -> int:
    t = TwoByTwo(args.cases_a, args.n_a, args.cases_b, args.n_b)
    result = two_proportion_test(t, continuity_correction=args.continuity, alpha=alpha)
    _print_test(t, result, args.continuity)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace, sf: ScenarioFile, *, seed: int, alpha: float,
                 replications: int) -> int:
    payload = sf.payload
    if not isinstance(payload, CausalSpec):
        return _fail("simulate needs a causal_spec scenario file")
    report = replication_study(
        payload,
        replications,
        alpha=alpha,
        seed=seed,
        continuity_correction=args.continuity,
    )
    text = render_replication_csv(payload, report, seed, args.continuity)
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(args.out, text)
        print(f"wrote replication report ({len(report.rows)} variants) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate(args: argparse.Namespace, sf: ScenarioFile, *, coverage: float,
                  eps: float) -> int:
    payload = sf.payload
    if not isinstance(payload, ExposureScenario):
        return _fail(
            "calibrate needs an exposure_scenario with fixed risks; priors "
            "are then fitted to the target spread ratio"
        )
    target = args.target_ratio

    print(
        f"calibrating beta priors to spread ratio {target:g} at "
        f"{_pct(coverage)} coverage"
    )
    arms = [
        (label, n, p, *_calibrate(n, p, target, coverage, eps))
        for label, n, p in (
            ("exposed", payload.n_exposed, payload.p_exposed),
            ("unexposed", payload.n_unexposed, payload.p_unexposed),
        )
    ]
    for label, n, p, prior, rep in arms:
        print(f"{label} arm (n={n}, risk mean {p!r}):")
        print(f"  alpha: {prior.alpha!r}")
        print(f"  beta:  {prior.beta!r}")
        print(f"  concentration (alpha+beta): {prior.concentration!r}")
        ratio = "undefined" if rep.ratio is None else f"{rep.ratio:#.6g}"
        print(
            f"  interval widths: predictive {rep.width_predictive}, "
            f"plug-in {rep.width_plugin}, ratio {ratio}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcounts",
        description="Population-scale risk accounting for two-arm exposure questions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="arm-versus-arm comparison report")
    p_sum.add_argument("scenario", type=Path, help="scenario JSON file")
    _add_controls(p_sum, "coverage", "eps")
    p_sum.set_defaults(func=cmd_summarize)

    p_fig = sub.add_parser("figure", help="write one figure's data table as CSV")
    p_fig.add_argument("scenario", type=Path, help="scenario JSON file")
    p_fig.add_argument("--id", type=int, required=True, choices=FIGURE_IDS,
                       help="figure number")
    _add_controls(p_fig, "coverage", "eps")
    p_fig.add_argument("--out", type=Path, required=True,
                       help="output CSV path (atomic write)")
    p_fig.add_argument("--calibrate-ratio", type=float, default=None,
                       help="fit priors to this spread ratio when the file "
                            "has fixed risks (figures 2 and 4)")
    p_fig.set_defaults(func=cmd_figure)

    p_pv = sub.add_parser("pvalue", help="two-proportion test on observed counts")
    p_pv.add_argument("cases_a", type=int)
    p_pv.add_argument("n_a", type=int)
    p_pv.add_argument("cases_b", type=int)
    p_pv.add_argument("n_b", type=int)
    _add_controls(p_pv, "alpha")
    p_pv.add_argument("--no-continuity", dest="continuity", action="store_false",
                      help="drop the continuity correction")
    p_pv.set_defaults(func=cmd_pvalue)

    p_sim = sub.add_parser("simulate", help="replication study on a causal spec")
    p_sim.add_argument("scenario", type=Path, help="scenario JSON file")
    _add_controls(p_sim, "seed", "alpha", "replications")
    p_sim.add_argument("--out", type=Path, default=None,
                       help="output CSV path (atomic write)")
    p_sim.add_argument("--no-continuity", dest="continuity", action="store_false",
                      help="drop the continuity correction")
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="fit beta priors to a spread-ratio target")
    p_cal.add_argument("scenario", type=Path, help="exposure scenario JSON file")
    p_cal.add_argument("target_ratio", type=float,
                       help="desired predictive/plug-in interval width ratio")
    _add_controls(p_cal, "coverage", "eps")
    p_cal.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse drops "--" given as an option's value (``--eps=--``) and
        # stores an empty list without calling the option's type
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        sf = load_scenario(args.scenario) if hasattr(args, "scenario") else None
        return args.func(args, sf, **_resolve(args, sf))
    except (ScenarioError, DomainError, CalibrationError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
