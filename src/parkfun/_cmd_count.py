"""`parkfun count`: friendship or cyclic parking functions counted by closed
form, by exhaustive sweep, or both."""

from __future__ import annotations

import argparse

from .cli import UsageError, _graph_spec, _int_option, _list_preferences
from .core import FriendshipGraph
from .limits import ensure_sweep_within_cap


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("target", choices=["fpf", "cyclic"])
    parser.add_argument("-g", "--graph")
    parser.add_argument("-n", type=_int_option, help="number of cars (cyclic target)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--formula", action="store_true", help="closed form only (default)")
    mode.add_argument("--brute", action="store_true", help="exhaustive simulation only")
    mode.add_argument("--both", action="store_true", help="closed form and brute force; exit 1 on mismatch")
    parser.add_argument("--list", action="store_true", help="list preferences found by the sweep")
    parser.add_argument("--workers", type=_int_option, default=1, help="accepted and ignored: the sweep is serial")
    parser.add_argument("--force", action="store_true", help="ignore the search-space cap")


def _formula(target: str, space: FriendshipGraph | int) -> int:
    """The closed-form count of `target` parking functions on `space`: the
    graph for "fpf", n for "cyclic". A cycle graph, however it was given,
    takes the cycle closed form; any other graph the Hamiltonian-path total."""
    if target == "cyclic":
        from .cyclic import cyclic_total_count

        return cyclic_total_count(space)
    n, neighbors = space.n, space._neighbors
    if n >= 3 and all(neighbors[v] == {v % n + 1, (v - 2) % n + 1} for v in range(1, n + 1)):
        from .cycle import cycle_total_count

        return cycle_total_count(n)
    from .structure import total_fpf_count

    return total_fpf_count(space)


def run(args, say) -> tuple[dict, dict, int]:
    mode = "brute" if args.brute else "both" if args.both else "formula"
    if args.list and mode == "formula":
        raise UsageError("--list needs --brute or --both")
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    if args.target == "fpf":
        if args.graph is None:
            raise UsageError("count fpf needs a graph (-g)")
        if args.n is not None:
            raise UsageError("count fpf takes no -n")
        n, build = _graph_spec(args.graph)
    else:
        if args.n is None:
            raise UsageError("count cyclic needs -n")
        if args.graph is not None:
            raise UsageError("count cyclic takes no graph (-g)")
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
        say("formula:", result["formula"])

    if mode != "formula":
        result["search_space"] = n ** n
        say(f"search space: {n}^{n} =", result["search_space"], "preferences")
        if args.target == "fpf":
            from .friendship import count_fpf_brute as count_all, enumerate_fpf as list_all
        else:
            from .cyclic import count_cyclic_brute as count_all, enumerate_cyclic_pf as list_all
        if args.list:
            result["brute"] = _list_preferences(list_all(space, force=True), args, say, result)
        else:
            result["brute"] = count_all(space, force=True)
        say("brute:", result["brute"])

    if mode == "both":
        result["match"] = result["formula"] == result["brute"]
        say(f"match: {'yes' if result['match'] else 'NO'}")
    return inputs, result, 0 if result.get("match", True) else 1
