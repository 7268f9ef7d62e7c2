"""`parkfun fibre`: the spot sets, size or full listing of the fibre of one
outcome on a graph."""

from __future__ import annotations

import argparse

from . import structure
from .cli import UsageError, _graph_spec, _list_preferences, _parse_word
from .core import Permutation, _require_order
from .notation import format_interval


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-g", "--graph", required=True)
    parser.add_argument("-o", "--outcome", required=True, help="outcome permutation")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="print the fibre size")
    mode.add_argument("--sets", action="store_true", help="print the per-car spot sets (default)")
    mode.add_argument("--list", action="store_true", help="list the whole fibre")
    parser.add_argument("--force", action="store_true", help="ignore the search-space cap (--list)")


def run(args, say) -> tuple[dict, dict, int]:
    n, build = _graph_spec(args.graph)
    perm = _parse_word(Permutation, "permutation", args.outcome)
    mode = "count" if args.count else "list" if args.list else "sets"
    inputs = {
        "graph": args.graph,
        "outcome": perm.word,
        "mode": mode,
        "force": bool(args.force),
    }
    _require_order("outcome", perm.n, "entries", n, UsageError)
    graph = build()
    try:
        if mode == "sets":
            chi = structure.fibre_characterisation(perm, graph)
            for car, (lo, hi) in enumerate(chi.spot_sets, start=1):
                say(f"S_{car} = {format_interval(lo, hi)}")
            return inputs, {"spot_sets": chi.spot_sets}, 0
        if mode == "count":
            size = structure.fibre_size(perm, graph)
            say("fibre size:", size)
            return inputs, {"fibre_size": size}, 0
        result: dict = {}
        prefs = structure.enumerate_fibre(perm, graph, force=args.force)
        count = _list_preferences(prefs, args, say, result)
    except structure.NotHamiltonianPath as e:
        say(f"error: {e}")
        return inputs, {"error": str(e)}, 1
    result["count"] = count
    say("count:", count)
    return inputs, result, 0
