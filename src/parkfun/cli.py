"""Command-line frontend.

Subcommands: park, fibre, count, bijection, verify, validate-report.
Exit codes: 0 success, 1 domain failure (car cannot park, count mismatch,
failed checks, non-Hamiltonian outcome), 2 usage error.
`--json` emits exactly one RunReport object on stdout.

Each subcommand imports the modules it runs when it runs, so a call loads
only its own part of the package.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .limits import SUITE_NAMES, BadCapSetting, SearchCapExceeded, ensure_sweep_within_cap

if TYPE_CHECKING:
    from .core import FriendshipGraph, ParkingPreference, Permutation


class UsageError(ValueError):
    """Bad arguments or malformed input; maps to exit code 2."""


@contextlib.contextmanager
def _as_usage_error(what: str) -> Iterator[None]:
    """Report a ValueError or OSError raised in the block as a usage error
    about `what`. UsageError is a ValueError, so nothing in the block may
    raise one. As a decorator it wraps a function the same way."""
    try:
        yield
    except (ValueError, OSError) as e:
        raise UsageError(f"{what}: {e}") from None


def _parse_preference(text: str) -> ParkingPreference:
    from .core import ParkingPreference
    from .notation import parse_word

    with _as_usage_error("bad preference"):
        return ParkingPreference(parse_word(text))


def _parse_permutation(text: str) -> Permutation:
    from .core import Permutation
    from .notation import parse_word

    with _as_usage_error("bad permutation"):
        return Permutation(parse_word(text))


def _graph_spec(spec: str) -> tuple[int, Callable[[], FriendshipGraph]]:
    """The vertex count `spec` names, and a function that builds its graph.

    The count comes from the spec or the file header alone, so a caller can
    hold it to the input's length or to the cap before a graph of hostile
    size is built.
    """
    if spec == "fig4":
        from .structure import fig4_graph

        graph = fig4_graph()
        return graph.n, lambda: graph
    if spec.startswith("file:"):
        from .core import parse_graph_header, parse_graph_text

        with _as_usage_error("cannot read graph file"):
            text = Path(spec[len("file:"):]).read_text()
        with _as_usage_error("bad graph file"):
            n = parse_graph_header(text)
        return n, _as_usage_error("bad graph file")(lambda: parse_graph_text(text))
    family, sep, size = spec.partition(":")
    if sep:
        from .core import graph_generator

        what = f"bad graph spec {spec!r}"
        with _as_usage_error(what):
            n = int(size)
        return n, _as_usage_error(what)(lambda: graph_generator(family, n))
    raise UsageError(
        f"graph spec {spec!r} must be cycle:<n>, complete:<n>, path:<n>, fig4 or file:<path>"
    )


def _parse_n_range(text: str) -> range:
    try:
        if ".." in text:
            lo_s, _, hi_s = text.partition("..")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"bad range {text!r}; use a single n or lo..hi") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"bad range {text!r}; need 1 <= lo <= hi")
    return range(lo, hi + 1)


def _list_preferences(prefs: Iterable[ParkingPreference], args, say, result: dict) -> int:
    """Print each preference as it is yielded and return how many there were;
    only --json keeps the listing, as result["preferences"] for the report."""
    from .notation import format_word

    kept = result.setdefault("preferences", []) if args.json else None
    count = 0
    for count, p in enumerate(prefs, start=1):
        say(format_word(p.entries))
        if kept is not None:
            kept.append(list(p.entries))
    return count


def cmd_park(args, say) -> tuple[dict, dict, int]:
    from .classical import classical_park, total_displacement
    from .core import Failure
    from .notation import format_word

    p = _parse_preference(args.preference)
    inputs = {"mode": args.mode, "preference": list(p.entries), "graph": args.graph}
    if args.mode == "friendship":
        from .friendship import friendship_park

        if args.graph is None:
            raise UsageError("friendship mode needs a graph (-g)")
        n, build = _graph_spec(args.graph)
        if n != p.n:
            raise UsageError(f"preference has {p.n} cars but the graph has {n} vertices")
        res = friendship_park(p, build())
    else:
        if args.graph is not None:
            raise UsageError("classical mode takes no graph")
        res = classical_park(p)
    if isinstance(res, Failure):
        say(f"car {res.car} failed to park")
        return inputs, {"status": "failure", "car": res.car}, 1
    total = total_displacement(res)
    say(f"outcome: {format_word(res.outcome.word)}")
    say(f"displacement: {format_word(res.displacement)}")
    say(f"total displacement: {total}")
    result = {
        "status": "success",
        "outcome": list(res.outcome.word),
        "displacement": list(res.displacement),
        "total_displacement": total,
    }
    return inputs, result, 0


def cmd_fibre(args, say) -> tuple[dict, dict, int]:
    from .notation import format_interval
    from .structure import NotHamiltonianPath, enumerate_fibre, fibre_characterisation, fibre_size

    n, build = _graph_spec(args.graph)
    perm = _parse_permutation(args.outcome)
    mode = "count" if args.count else "list" if args.list else "sets"
    inputs = {
        "graph": args.graph,
        "outcome": list(perm.word),
        "mode": mode,
        "force": bool(args.force),
    }
    if perm.n != n:
        raise UsageError(f"outcome has {perm.n} entries but the graph has {n} vertices")
    graph = build()
    try:
        if mode == "sets":
            chi = fibre_characterisation(perm, graph)
            for car, (lo, hi) in enumerate(chi.spot_sets, start=1):
                say(f"S_{car} = {format_interval(lo, hi)}")
            return inputs, {"spot_sets": [list(s) for s in chi.spot_sets]}, 0
        if mode == "count":
            size = fibre_size(perm, graph)
            say(f"fibre size: {size}")
            return inputs, {"fibre_size": size}, 0
        result: dict = {}
        prefs = enumerate_fibre(perm, graph, force=args.force)
        count = _list_preferences(prefs, args, say, result)
    except NotHamiltonianPath as e:
        say(f"error: {e}")
        return inputs, {"error": str(e)}, 1
    result["count"] = count
    say(f"count: {count}")
    return inputs, result, 0


def _formula(target: str, space: FriendshipGraph | int) -> int:
    """The closed-form count of `target` parking functions on `space`: the
    graph for "fpf", n for "cyclic". A cycle graph, however it was given,
    takes the cycle closed form; any other graph the Hamiltonian-path total."""
    if target == "cyclic":
        from .cyclic import cyclic_total_count

        return cyclic_total_count(space)
    from .core import graph_generator

    if space.n >= 3 and space == graph_generator("cycle", space.n):
        from .cycle import cycle_total_count

        return cycle_total_count(space.n)
    from .structure import total_fpf_count

    return total_fpf_count(space)


def cmd_count(args, say) -> tuple[dict, dict, int]:
    mode = "brute" if args.brute else "both" if args.both else "formula"
    if args.list and mode == "formula":
        raise UsageError("--list needs --brute or --both")
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    if args.target == "fpf":
        if args.graph is None:
            raise UsageError("count fpf needs a graph (-g)")
        n, build = _graph_spec(args.graph)
    else:
        if args.n is None:
            raise UsageError("count cyclic needs -n")
        if args.n < 1:
            raise UsageError("-n must be positive")
        n = args.n
    inputs = {
        "target": args.target,
        "graph": args.graph,
        "n": n,
        "mode": mode,
        "list": bool(args.list),
        "workers": args.workers,
        "force": bool(args.force),
    }
    result: dict = {}
    if mode != "formula":
        # Refuse (or reject a malformed cap) before anything is built or
        # reaches stdout.
        ensure_sweep_within_cap(n, args.force)
    # What the counts range over: the graph for fpf, n for cyclic.
    space = build() if args.target == "fpf" else n

    if mode != "brute":
        result["formula"] = _formula(args.target, space)
        say(f"formula: {result['formula']}")

    if mode != "formula":
        result["search_space"] = n ** n
        say(f"search space: {n}^{n} = {result['search_space']} preferences")
        if args.target == "fpf":
            from .friendship import count_fpf_brute as count_all, enumerate_fpf as list_all
        else:
            from .cyclic import count_cyclic_brute as count_all, enumerate_cyclic_pf as list_all
        if args.list:
            result["brute"] = _list_preferences(list_all(space, force=True), args, say, result)
        else:
            result["brute"] = count_all(space, force=True)
        say(f"brute: {result['brute']}")

    if mode == "both":
        result["match"] = result["formula"] == result["brute"]
        say(f"match: {'yes' if result['match'] else 'NO'}")
    return inputs, result, 0 if result.get("match", True) else 1


def cmd_bijection(args, say) -> tuple[dict, dict, int]:
    from .cyclic import NotCyclicPreference, _psi, _psi_inverse, components
    from .notation import format_blocks, format_word, format_word_compact

    if args.direction == "psi":
        if args.preference is None:
            raise UsageError("bijection psi needs a preference (-p)")
        p = _parse_preference(args.preference)
        inputs = {"direction": "psi", "preference": list(p.entries)}
        try:
            res, c, comps = _psi(p)
        except NotCyclicPreference as e:
            say(f"error: {e}")
            return inputs, {"error": str(e)}, 1
        host = c.underlying
        blocks = [(b.start, b.end) for b in comps]
        say(f"outcome: {format_word(res.outcome.word)} (increasing cycle from {res.outcome.word[0]})")
        say(f"displacement: {format_word(res.displacement)}")
        say(f"host permutation: {format_blocks(host.word, blocks)}")
        say(f"marked: {format_blocks(host.word, blocks, mark_start=c.start)}")
        say(f"component: {format_word_compact(c.word)} (positions {c.start}..{c.end})")
        result = {
            "outcome": list(res.outcome.word),
            "start": res.outcome.word[0],
            "displacement": list(res.displacement),
            "host": list(host.word),
            "component": {"start": c.start, "end": c.end, "word": list(c.word)},
        }
        return inputs, result, 0

    if args.perm is None or args.start is None:
        raise UsageError("bijection psi-inverse needs --perm and --start")
    host = _parse_permutation(args.perm)
    inputs = {"direction": "psi-inverse", "perm": list(host.word), "start": args.start}
    comps = components(host)
    blocks = [(b.start, b.end) for b in comps]
    chosen = next((b for b in comps if b.start == args.start), None)
    if chosen is None:
        starts = ", ".join(str(b.start) for b in comps)
        say(f"error: no component starts at position {args.start}; components start at {starts}")
        return inputs, {"error": f"no component starts at position {args.start}"}, 1
    p, seq = _psi_inverse(chosen)
    say(f"host permutation: {format_blocks(host.word, blocks, mark_start=chosen.start)}")
    say(f"inversion sequence: {format_word(seq.entries)}")
    say(f"start value: {chosen.start}")
    say(f"preference: {format_word(p.entries)}")
    result = {
        "preference": list(p.entries),
        "inversion_sequence": list(seq.entries),
        "start_value": chosen.start,
        "component": {"start": chosen.start, "end": chosen.end, "word": list(chosen.word)},
    }
    return inputs, result, 0


def cmd_verify(args, say) -> tuple[dict, dict, int]:
    from .verify import DEFAULT_RANGES, run_suite

    n_values = _parse_n_range(args.n) if args.n else None
    inputs = {"suite": args.suite, "n": args.n, "force": bool(args.force)}
    checks = run_suite(args.suite, n_values, force=args.force)
    if not checks:
        # Each suite's default range starts at its smallest n; only a range
        # wholly below it selects nothing.
        raise UsageError(
            f"suite {args.suite!r} has no checks for n = {args.n}; "
            f"its smallest n is {DEFAULT_RANGES[args.suite].start}"
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


def _finite(text: str) -> float:
    """A JSON number, or a NaN or Infinity that strict JSON lacks, as a
    float, refused unless finite (1e999 reads as infinity)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _validation_error() -> type[Exception]:
    """jsonschema's ValidationError. An except clause evaluates its type only
    once something is raised, so a report that conforms never loads jsonschema."""
    from jsonschema import ValidationError

    return ValidationError


def cmd_validate_report(args, say) -> tuple[dict, dict, int]:
    import json

    from .report import validate_report

    inputs = {"source": "stdin"}
    try:
        data = json.load(sys.stdin, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
        say(f"error: not JSON: {e}")
        return inputs, {"valid": False, "error": str(e)}, 1
    try:
        validate_report(data)
    except _validation_error() as e:
        say(f"error: {e.message}")
        return inputs, {"valid": False, "error": e.message}, 1
    say("ok")
    return inputs, {"valid": True}, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkfun",
        description="Classical, friendship and cyclic parking functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, help_: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--json", action="store_true", help="emit a RunReport object")
        sp.set_defaults(handler=handler)
        return sp

    park = add("park", cmd_park, "run a parking process on one preference")
    park.add_argument("mode", choices=["classical", "friendship"])
    park.add_argument("-p", "--preference", required=True, help="e.g. 3,1,1,2")
    park.add_argument("-g", "--graph", help="cycle:<n>, complete:<n>, path:<n>, fig4, file:<path>")

    fibre = add("fibre", cmd_fibre, "characterise the preferences behind one outcome")
    fibre.add_argument("-g", "--graph", required=True)
    fibre.add_argument("-o", "--outcome", required=True, help="outcome permutation")
    mode = fibre.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="print the fibre size")
    mode.add_argument("--sets", action="store_true", help="print the per-car spot sets (default)")
    mode.add_argument("--list", action="store_true", help="list the whole fibre")
    fibre.add_argument("--force", action="store_true", help="ignore the search-space cap (--list)")

    count = add("count", cmd_count, "count friendship or cyclic parking functions")
    count.add_argument("target", choices=["fpf", "cyclic"])
    count.add_argument("-g", "--graph")
    count.add_argument("-n", type=int, help="number of cars (cyclic target)")
    cmode = count.add_mutually_exclusive_group()
    cmode.add_argument("--formula", action="store_true", help="closed form only (default)")
    cmode.add_argument("--brute", action="store_true", help="exhaustive simulation only")
    cmode.add_argument("--both", action="store_true", help="closed form and brute force; exit 1 on mismatch")
    count.add_argument("--list", action="store_true", help="list preferences found by the sweep")
    count.add_argument("--workers", type=int, default=1, help="accepted and ignored: the sweep is serial")
    count.add_argument("--force", action="store_true", help="ignore the search-space cap")

    bij = add("bijection", cmd_bijection, "map cyclic preferences to permutation components")
    bij.add_argument("direction", choices=["psi", "psi-inverse"])
    bij.add_argument("-p", "--preference")
    bij.add_argument("--perm", help="host permutation (psi-inverse)")
    bij.add_argument("--start", type=int, help="start position of the component (psi-inverse)")

    ver = add("verify", cmd_verify, "run the cross-verification suites")
    ver.add_argument("suite", choices=list(SUITE_NAMES))
    ver.add_argument("--n", help="range of sizes, e.g. 3..6 or 5")
    ver.add_argument("--force", action="store_true", help="ignore the search-space cap")

    add("validate-report", cmd_validate_report, "validate a RunReport JSON object from stdin")

    return parser


@contextlib.contextmanager
def _ints_in_full() -> Iterator[None]:
    """Lift Python's limit on int <-> str conversion (4,300 digits by default,
    absent before 3.10.7) for one call: closed-form totals outgrow it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    say = (lambda *a: None) if args.json else print
    start = time.perf_counter()
    with _ints_in_full():
        try:
            inputs, result, code = args.handler(args, say)
        except (UsageError, BadCapSetting) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except SearchCapExceeded as e:
            print(f"error: {e} (CLI: --force)", file=sys.stderr)
            return 2
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if args.json:
            from .report import RunReport

            print(RunReport(args.command, inputs, result, elapsed_ms).to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
