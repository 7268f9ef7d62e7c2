"""`parkfun bijection`: send a cyclic preference to its permutation component
(psi), or a component back to its preference (psi-inverse)."""

from __future__ import annotations

import argparse

from .cli import UsageError, _int_option, _parse_word
from .core import ParkingPreference, Permutation
from .cyclic import NotCyclicPreference, _psi, _psi_inverse, components
from .limits import _clip_word, _shown
from .notation import format_blocks, format_word, format_word_compact


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("direction", choices=["psi", "psi-inverse"])
    parser.add_argument("-p", "--preference")
    parser.add_argument("--perm", help="host permutation (psi-inverse)")
    parser.add_argument("--start", type=_int_option, help="start position of the component (psi-inverse)")


def run(args, say) -> tuple[dict, dict, int]:
    if args.direction == "psi":
        if args.preference is None:
            raise UsageError("bijection psi needs a preference (-p)")
        if args.perm is not None or args.start is not None:
            raise UsageError("bijection psi takes no --perm or --start")
        p = _parse_word(ParkingPreference, "preference", args.preference)
        inputs = {"direction": "psi", "preference": p.entries}
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
            "outcome": res.outcome.word,
            "start": res.outcome.word[0],
            "displacement": res.displacement,
            "host": host.word,
            "component": {"start": c.start, "end": c.end, "word": c.word},
        }
        return inputs, result, 0

    if args.perm is None or args.start is None:
        raise UsageError("bijection psi-inverse needs --perm and --start")
    if args.preference is not None:
        raise UsageError("bijection psi-inverse takes no preference (-p)")
    host = _parse_word(Permutation, "permutation", args.perm)
    inputs = {"direction": "psi-inverse", "perm": host.word, "start": args.start}
    comps = components(host)
    blocks = [(b.start, b.end) for b in comps]
    chosen = next((b for b in comps if b.start == args.start), None)
    if chosen is None:
        error = f"no component starts at position {_shown(args.start)}"
        starts = _clip_word([b.start for b in comps], lambda s: ", ".join(map(str, s)))
        say(f"error: {error}; components start at {starts}")
        return inputs, {"error": error}, 1
    p, seq = _psi_inverse(chosen)
    say(f"host permutation: {format_blocks(host.word, blocks, mark_start=chosen.start)}")
    say(f"inversion sequence: {format_word(seq.entries)}")
    say(f"start value: {chosen.start}")
    say(f"preference: {format_word(p.entries)}")
    result = {
        "preference": p.entries,
        "inversion_sequence": seq.entries,
        "start_value": chosen.start,
        "component": {"start": chosen.start, "end": chosen.end, "word": chosen.word},
    }
    return inputs, result, 0
