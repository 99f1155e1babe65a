"""Command-line driver: skewarch <list|run|explain> [flags].

Flags: --entry --suite --seed --precision --depth --budget --format
--jobs.  Each flag has an environment mirror SKEWARCH_<NAME>; explicit
flags win over the environment, and the environment over the defaults:
"all" for --entry and --suite, RunConfig's field defaults for the rest.
Exit codes: 0 clean, 1 when a report fails where the statements predict
success, 2 unknown entry/suite id or bad configuration, 3 registry
construction failure.
"""

import argparse
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

from .endos import EndoValidationError
from .registry import (ENTRIES, FORMATS, RunConfig, find_entry,
                       startup_self_check)
from .reports import render_json, render_list_json, render_list_text, render_text
from .rings import RingConstructionError
from .suites import SUITE_IDS, report_contradicts_predictions, run_one

ENV_PREFIX = "SKEWARCH_"

EXIT_OK = 0
EXIT_CONTRADICTION = 1
EXIT_UNKNOWN_ID = 2
EXIT_CONSTRUCTION = 3


def _fail(code: int, message: str) -> int:
    print("skewarch: %s" % message, file=sys.stderr)
    return code


def _add_flags(sub):
    sub.add_argument("--entry", help="registry entry id or 'all'")
    sub.add_argument("--suite", help="suite id or 'all'")
    sub.add_argument("--seed", type=int, help="64-bit master seed")
    sub.add_argument("--precision", type=int,
                     help="series truncation precision N")
    sub.add_argument("--depth", type=int, help="falsifier divisibility depth")
    sub.add_argument("--budget", type=int, help="sample budget per probe")
    sub.add_argument("--format", choices=FORMATS, help="output format")
    sub.add_argument("--jobs", type=int, help="parallel suite processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewarch",
        description="property suites for skew polynomial and truncated "
                    "skew power series models over finite coefficient "
                    "rings")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("list", "print the registry entries"),
                            ("run", "run suites and emit reports"),
                            ("explain", "run suites and render the "
                                        "reports as replayable text")):
        sub = commands.add_parser(name, help=help_text)
        _add_flags(sub)
    return parser


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def _pick(flag_value, env_name: str, fallback, cast):
    if flag_value is not None:
        return flag_value, None
    raw = _env(env_name)
    if raw is None:
        return fallback, None
    try:
        return cast(raw), None
    except ValueError:
        return None, "bad %s%s value: %r" % (ENV_PREFIX, env_name, raw)


def _resolve(args):
    """Merge flags over environment over defaults; returns
    (entry selector, suite selector, RunConfig) or an error string.  The
    selectors default to "all"; every other default, and the type an
    environment value is read as, is RunConfig's."""
    picks = {}
    for name, fallback in (("entry", "all"), ("suite", "all"),
                           *((f.name, f.default) for f in fields(RunConfig))):
        value, err = _pick(getattr(args, name), name.upper(), fallback,
                           type(fallback))
        if err is not None:
            return None, None, None, err
        picks[name] = value
    entry_sel, suite_sel = picks.pop("entry"), picks.pop("suite")
    try:
        config = RunConfig(**picks).validated()
    except ValueError as exc:
        return None, None, None, str(exc)
    return entry_sel, suite_sel, config, None


def _select(entry_sel: str, suite_sel: str):
    if entry_sel == "all":
        entries = list(ENTRIES)
    else:
        found = find_entry(entry_sel)
        if found is None:
            return None, None, "unknown entry id: %r" % entry_sel
        entries = [found]
    if suite_sel == "all":
        suites = list(SUITE_IDS)
    elif suite_sel in SUITE_IDS:
        suites = [suite_sel]
    else:
        return None, None, "unknown suite id: %r" % suite_sel
    return entries, suites, None


def _run_cell(entry, suite_id: str, config: RunConfig) -> dict:
    # pickled by name, so the pool works also where run_one is rebound
    return run_one(entry, suite_id, config)


def _collect_reports(cells, config: RunConfig):
    """One report per (entry, suite id) cell, in cell order."""
    if config.jobs == 1 or len(cells) == 1:
        return [run_one(entry, suite_id, config) for entry, suite_id in cells]
    # merged in cell order regardless of completion order
    entries, suite_ids = zip(*cells)
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(_run_cell, entries, suite_ids, itertools.repeat(config)))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    entry_sel, suite_sel, config, err = _resolve(args)
    if err is not None:
        return _fail(EXIT_UNKNOWN_ID, err)

    if args.command == "list":
        text = (render_list_json(ENTRIES) if config.format == "json"
                else render_list_text(ENTRIES))
        sys.stdout.write(text)
        return EXIT_OK

    entries, suites, err = _select(entry_sel, suite_sel)
    if err is not None:
        return _fail(EXIT_UNKNOWN_ID, err)
    try:
        startup_self_check()
    except (RingConstructionError, EndoValidationError, ValueError) as exc:
        return _fail(EXIT_CONSTRUCTION, "registry self-check failed: %s"
                     % exc)

    cells = [(e, s) for e in entries for s in suites]
    reports = _collect_reports(cells, config)
    code = (EXIT_CONTRADICTION
            if any(report_contradicts_predictions(e, r)
                   for (e, _), r in zip(cells, reports))
            else EXIT_OK)
    if args.command == "run" and config.format == "json":
        sys.stdout.write(render_json(reports, config))
    else:
        sys.stdout.write(render_text(reports))
    return code


if __name__ == "__main__":
    sys.exit(main())
