"""Command-line frontend.

Subcommands: park, fibre, count, bijection, verify, validate-report.
Exit codes: 0 success, 1 domain failure (car cannot park, count mismatch,
failed checks, non-Hamiltonian outcome), 2 usage error.
`--json` emits exactly one RunReport object on stdout.

Each subcommand has a private module of its own, `_cmd_<name>` (`-` read as
`_`), holding its arguments, `add_arguments(parser)`, and its handler,
`run(args, say)`. A handler hands the report the library's own ints and
tuples, and `say` each total of `count` and `fibre` as an int, and the writer
renders them: `print` in text mode, `json.dumps` under `--json`, whose `say`
is silent. Each line that shows a word the handler builds with `notation`.
The parser registers every subcommand's name and help, but imports and fills in
only the subcommand named on the command line, so a call compiles and builds
only its own part of the CLI. This module keeps `main` and the shared helpers.

A subcommand module imports at its top every module that every call of it
loads. An import stays in a function only where an argument chooses the
module (count's target, the graph spec's kind, `--json`), where a lighter
call must not load it (validate-report loads no core).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from .limits import _QUOTE_CHARS, BadCapSetting, SearchCapExceeded, _clip, _quote, _read_int

if TYPE_CHECKING:
    from .core import FriendshipGraph, ParkingPreference

_T = TypeVar("_T")


class UsageError(ValueError):
    """Bad arguments or malformed input; maps to exit code 2."""


@contextlib.contextmanager
def _as_usage_error(what: str) -> Iterator[None]:
    """Report a ValueError or OSError raised in the block as a usage error
    about `what`, with the file an OSError names quoted to a bound. UsageError
    is a ValueError, so nothing in the block may raise one. As a decorator it
    wraps a function the same way."""
    try:
        yield
    except (ValueError, OSError) as e:
        if getattr(e, "filename", None) is not None:
            e = f"[Errno {e.errno}] {e.strerror}: {_quote(e.filename)}"
        raise UsageError(f"{what}: {e}") from None


def _parse_word(kind: Callable[[tuple[int, ...]], _T], what: str, text: str) -> _T:
    """`kind` built from the word `text`, such as ParkingPreference or
    Permutation; a word it refuses is a usage error, `bad <what>: ...`."""
    from .notation import parse_word

    with _as_usage_error(f"bad {what}"):
        return kind(parse_word(text))


def _int_option(text: str) -> int:
    """The `type=` of an integer option: text past the digit limit is refused
    by its length, and other bad text as argparse refuses it for `type=int`,
    quoted to a bound."""
    return _read_int(text, "", lambda: f"invalid int value: {_quote(text)}", argparse.ArgumentTypeError)


def _graph_spec(spec: str) -> tuple[int, Callable[[], FriendshipGraph]]:
    """The vertex count `spec` names, and a function that builds its graph.

    The count comes from the spec or the file header alone, so a caller can
    hold it to the input's length or to the cap before a graph of hostile
    size is built.
    """
    from .core import graph_generator, parse_graph_header, parse_graph_text

    if spec == "fig4":
        from .structure import fig4_graph

        graph = fig4_graph()
        return graph.n, lambda: graph
    if spec.startswith("file:"):
        with _as_usage_error("cannot read graph file"), open(spec[len("file:"):], encoding="utf-8") as f:
            text = f.read()
        with _as_usage_error("bad graph file"):
            n = parse_graph_header(text)
        return n, _as_usage_error("bad graph file")(lambda: parse_graph_text(text))
    family, sep, size = spec.partition(":")
    if sep:
        what = f"bad graph spec {_quote(spec)}"
        n = _read_int(
            size, what, lambda: f"{what}: invalid literal for int() with base 10: {_quote(size)}", UsageError
        )
        return n, _as_usage_error(what)(lambda: graph_generator(family, n))
    raise UsageError(
        f"graph spec {_quote(spec)} must be cycle:<n>, complete:<n>, path:<n>, fig4 or file:<path>"
    )


def _list_preferences(prefs: Iterable[ParkingPreference], args, say, result: dict) -> int:
    """How many preferences there were. --json keeps their words, as
    result["preferences"] for the report; text mode prints each as it is yielded."""
    if args.json:
        result["preferences"] = [p.entries for p in prefs]
        return len(result["preferences"])
    from .notation import format_word

    count = 0
    for count, p in enumerate(prefs, start=1):
        say(format_word(p.entries))
    return count


# Each subcommand's help, in the order `parkfun --help` lists them.
_SUBCOMMANDS = {
    "park": "run a parking process on one preference",
    "fibre": "characterise the preferences behind one outcome",
    "count": "count friendship or cyclic parking functions",
    "bijection": "map cyclic preferences to permutation components",
    "verify": "run the cross-verification suites",
    "validate-report": "validate a RunReport JSON object from stdin",
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusals repeat an item of `argv` longer than
    _QUOTE_CHARS only to a bound: as text by `_clip`, as its repr by `_quote`.
    Its subparsers are of its class, and are given the same `argv`."""

    def __init__(self, argv: Iterable[str] = (), **kwargs):
        super().__init__(**kwargs)
        self._long_args = [arg for arg in argv if len(arg) > _QUOTE_CHARS]

    def error(self, message: str):
        for arg in self._long_args:
            message = message.replace(repr(arg), _quote(arg)).replace(arg, _clip(arg))
        super().error(message)


def _build_parser(command: str | None, argv: list[str]) -> argparse.ArgumentParser:
    """A parser that knows every subcommand's name and help, with the
    arguments and handler of `command` alone filled in."""
    parser = _Parser(
        argv,
        prog="parkfun",
        description="Classical, friendship and cyclic parking functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_, argv=argv)
        if name == command:
            module = importlib.import_module(f"._cmd_{name.replace('-', '_')}", __package__)
            sp.add_argument("--json", action="store_true", help="emit a RunReport object")
            module.add_arguments(sp)
            sp.set_defaults(handler=module.run)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so the first
    # argument without a leading "-" is the one argparse dispatches on.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = _build_parser(command, argv).parse_args(argv)
    say = (lambda *a: None) if args.json else print
    start = time.perf_counter()
    with _ints_in_full():
        try:
            inputs, result, code = args.handler(args, say)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            if args.json:
                from .report import RunReport

                print(RunReport(args.command, inputs, result, elapsed_ms).to_json())
            sys.stdout.flush()  # here, so that a pipe closed before it is caught below
        except (UsageError, BadCapSetting) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except SearchCapExceeded as e:
            print(f"error: {e} (CLI: --force)", file=sys.stderr)
            return 2
        except OSError as e:
            # A reader that closed stdout (`parkfun ... | head -1`) ends the
            # call silently; any other failed write, such as a full disk, is
            # named. Either way, stop without a traceback, and send what is
            # still buffered to devnull so that the flush at exit does not
            # fail again. A stdout with no file descriptor raises
            # UnsupportedOperation, an OSError and ValueError.
            if not isinstance(e, BrokenPipeError):
                print(f"error: {e}", file=sys.stderr)
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            return 1
    return code


if __name__ == "__main__":
    # `python -m parkfun.cli` runs this file as `__main__`, a second copy of
    # the module; the subcommands raise the package module's UsageError, so
    # only the package module's `main` catches it.
    sys.exit(importlib.import_module("parkfun.cli").main())
