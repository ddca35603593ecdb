"""Command line front end: scenario configs in, report CSVs out.

Subcommands:

  verify     run the coupled experiment and write bounds.csv
  converge   run the convergence study and write convergence.csv
  price      run the coupled experiment and write pricing.csv

Each takes an optional JSON config path whose keys mirror CoupledScenario
field-for-field; omitted fields fall back to the reference scenario.  The
master seed resolves in priority order: --seed flag, config value, OPVOL_SEED
environment variable, built-in default.  Exit codes: 0 all rows pass, 2 some
bound failed (one stderr line per failing row, stdout silent), 1
configuration or usage error, or a numerical failure.

CSV output is stable by construction: fixed column order, floats at 17
significant digits, UNIX newlines.  The --threads flag is a performance knob
only and never changes results; it must be at least 1, and no more workers
are started than there are replications or cores.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
# argparse's gettext imports locale when it builds the first parser; imported
# here, with the program, so that cli.main itself imports nothing
import locale  # noqa: F401
import os
import sys
from collections.abc import Mapping
from contextlib import contextmanager

from opvol.experiments import (
    ConvergenceStudy,
    CoupledScenario,
    ExperimentResult,
    convergence_study,
    default_scenario,
    run_experiment,
)

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration, or an --out-dir
    that cannot be written."""


# --- config loading ----------------------------------------------------------


_FIELDS = {f.name for f in dataclasses.fields(CoupledScenario)}


def load_config(path: str) -> dict:
    """Read a JSON scenario document: an object whose keys are all
    CoupledScenario fields.

    Returns the fields as JSON gave them; the CoupledScenario constructor
    checks their kinds and values.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: top level must be a JSON object")

    unknown = sorted(set(raw) - _FIELDS)
    if unknown:
        raise ConfigError(
            f"{path}: unknown field(s) {', '.join(repr(k) for k in unknown)}; "
            f"valid fields are {', '.join(sorted(_FIELDS))}"
        )
    return raw


def resolve_scenario(config_path: str | None, seed: int | None,
                     env: Mapping[str, str] = os.environ) -> CoupledScenario:
    """Build the scenario from config plus seed precedence.

    Seed priority: --seed flag, config master_seed, OPVOL_SEED environment
    variable, reference default.
    """
    overrides = load_config(config_path) if config_path is not None else {}
    if seed is not None:
        overrides["master_seed"] = seed
    elif "master_seed" not in overrides and "OPVOL_SEED" in env:
        text = env["OPVOL_SEED"]
        try:
            overrides["master_seed"] = int(text)
        except ValueError as exc:
            raise ConfigError(f"OPVOL_SEED must be an integer, got {text!r}") from exc
    try:
        return default_scenario().with_(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# --- CSV output ----------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@contextmanager
def _writing(out_dir: str):
    """Re-raise an OSError from making or writing out_dir as one
    ConfigError line."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write --out-dir {out_dir}: {exc}") from exc


def _probe(out_dir: str, name: str) -> str:
    """Make out_dir and return its CSV name's path, opened for appending before
    the run so that a bad path fails first; a file the probe made is removed."""
    path = os.path.join(out_dir, name)
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        made = not os.path.exists(path)
        open(path, "a").close()
        if made:
            os.remove(path)
    return path


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_bounds_csv(result: ExperimentResult, path: str) -> None:
    rows = [
        [r.bound_id, str(r.level), _fmt(r.lhs), _fmt(r.lhs_se), _fmt(r.rhs),
         _fmt(r.margin), "true" if r.passed else "false"]
        for r in result.reports
    ]
    _write_csv(path, ["bound_id", "level", "lhs", "lhs_stderr", "rhs", "margin", "pass"], rows)


def write_convergence_csv(study: ConvergenceStudy, path: str) -> None:
    rows = [
        [str(r.level), r.bound_id, _fmt(r.estimate), _fmt(r.stderr)]
        for r in study.rows
    ]
    _write_csv(path, ["level", "bound_id", "estimate", "stderr"], rows)


def write_pricing_csv(result: ExperimentResult, path: str) -> None:
    rows = [
        [str(p.level), _fmt(p.price), _fmt(p.price_se), _fmt(p.price_diff),
         _fmt(p.lipschitz_rhs), _fmt(p.theorem_cap), "true" if p.passed else "false"]
        for p in result.pricing
    ]
    _write_csv(
        path,
        ["level", "P", "stderr", "price_diff", "lipschitz_bound", "theorem_cap", "pass"],
        rows,
    )


# --- subcommands ---------------------------------------------------------------


def _print_failures(lines: list[str]) -> None:
    """One stderr line per failing row, numbers as in the CSVs."""
    for line in lines:
        print(f"fail: {line}", file=sys.stderr)


def cmd_verify(scenario: CoupledScenario, out_dir: str, threads: int) -> int:
    path = _probe(out_dir, "bounds.csv")
    result = run_experiment(scenario, workers=threads)
    with _writing(out_dir):
        write_bounds_csv(result, path)
    failed = [r for r in result.reports if not r.passed]
    _print_failures([
        f"{r.bound_id} level {r.level} margin {_fmt(r.margin)} lhs {_fmt(r.lhs)} rhs {_fmt(r.rhs)}"
        for r in failed
    ])
    return EXIT_FAIL if failed else EXIT_PASS


def cmd_converge(scenario: CoupledScenario, out_dir: str, threads: int) -> int:
    path = _probe(out_dir, "convergence.csv")
    study = convergence_study(scenario, workers=threads)
    with _writing(out_dir):
        write_convergence_csv(study, path)
    _print_failures([
        f"{bound_id} not weakly decreasing: " + ", ".join(
            f"level {r.level} {_fmt(r.estimate)} +- {_fmt(r.stderr)}" for r in study.series(bound_id)
        )
        for bound_id, ok in study.monotone.items() if not ok
    ])
    return EXIT_PASS if study.passed else EXIT_FAIL


def cmd_price(scenario: CoupledScenario, out_dir: str, threads: int) -> int:
    path = _probe(out_dir, "pricing.csv")
    result = run_experiment(scenario, workers=threads)
    with _writing(out_dir):
        write_pricing_csv(result, path)
    failed = [p for p in result.pricing if not p.passed]
    _print_failures([
        f"pricing level {p.level} chain_margin {_fmt(p.chain_margin)} price_diff {_fmt(p.price_diff)} "
        f"lipschitz_bound {_fmt(p.lipschitz_rhs)} cap_margin {_fmt(p.cap_margin)} "
        f"theorem_cap {_fmt(p.theorem_cap)}"
        for p in failed
    ])
    return EXIT_FAIL if failed else EXIT_PASS


_COMMANDS = {"verify": cmd_verify, "converge": cmd_converge, "price": cmd_price}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opvol",
        description="Coupled truncation experiments for operator-valued volatility models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "check every bound and write bounds.csv"),
        ("converge", "tabulate per-level errors and write convergence.csv"),
        ("price", "price the option chain and write pricing.csv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", default=None,
                       help="JSON scenario config (default: built-in reference scenario)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed override (highest priority)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes, at least 1 (default: available parallelism); "
                            "capped at replications and cores; results never depend on it")
        p.add_argument("--out-dir", default=".", help="directory for CSV output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print(f"error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return EXIT_ERROR
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    try:
        scenario = resolve_scenario(args.config, args.seed)
        return _COMMANDS[args.command](scenario, args.out_dir, threads)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
