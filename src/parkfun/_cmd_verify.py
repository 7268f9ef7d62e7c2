"""`parkfun verify`: run one cross-verification suite, or all of them, over a
range of sizes."""

from __future__ import annotations

import argparse

from .cli import UsageError
from .limits import _quote, _read_int
from .verify import _SUITES, SUITE_NAMES, run_suite


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("suite", choices=list(SUITE_NAMES))
    parser.add_argument("--n", help="range of sizes, e.g. 3..6 or 5")
    parser.add_argument("--force", action="store_true", help="ignore the search-space cap")


def _parse_n_range(text: str) -> range:
    lo_s, sep, hi_s = text.partition("..")
    lo, hi = (
        _read_int(s, "bad range", lambda: f"bad range {_quote(text)}; use a single n or lo..hi", UsageError)
        for s in (lo_s, hi_s if sep else lo_s)
    )
    if lo < 1 or hi < lo:
        raise UsageError(f"bad range {_quote(text)}; need 1 <= lo <= hi")
    return range(lo, hi + 1)


def run(args, say) -> tuple[dict, dict, int]:
    n_values = _parse_n_range(args.n) if args.n else None
    inputs = {"suite": args.suite, "n": args.n, "force": bool(args.force)}
    checks = run_suite(args.suite, n_values, force=args.force)
    if not checks:
        # Each suite's default range starts at its smallest n; only a range
        # wholly below it selects nothing, so its bounds are short.
        lo, hi = n_values[0], n_values[-1]
        raise UsageError(
            f"suite {args.suite!r} has no checks for n = {lo if lo == hi else f'{lo}..{hi}'}; "
            f"its smallest n is {_SUITES[args.suite][1].start}"
        )
    for c in checks:
        say(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    passed = all(c.passed for c in checks)
    say(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    result = {
        "suite": args.suite,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "passed": passed,
    }
    return inputs, result, 0 if passed else 1
