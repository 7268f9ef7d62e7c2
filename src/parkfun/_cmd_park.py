"""`parkfun park`: run the classical or friendship parking process on one
preference."""

from __future__ import annotations

import argparse

from .classical import classical_park, total_displacement
from .cli import UsageError, _graph_spec, _parse_word
from .core import Failure, ParkingPreference, _require_order
from .friendship import friendship_park
from .notation import format_word


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("mode", choices=["classical", "friendship"])
    parser.add_argument("-p", "--preference", required=True, help="e.g. 3,1,1,2")
    parser.add_argument("-g", "--graph", help="cycle:<n>, complete:<n>, path:<n>, fig4, file:<path>")


def run(args, say) -> tuple[dict, dict, int]:
    p = _parse_word(ParkingPreference, "preference", args.preference)
    inputs = {"mode": args.mode, "preference": p.entries, "graph": args.graph}
    if args.mode == "friendship":
        if args.graph is None:
            raise UsageError("friendship mode needs a graph (-g)")
        n, build = _graph_spec(args.graph)
        _require_order("preference", p.n, "cars", n, UsageError)
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
        "outcome": res.outcome.word,
        "displacement": res.displacement,
        "total_displacement": total,
    }
    return inputs, result, 0
