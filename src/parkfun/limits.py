"""Guard rails for outside input: the cap on sweeps over [n]^n, and the digit
limit, with the one reader of outside numbers and the one renderer of the
values a message repeats, each to a bound."""

import contextlib
import os
from typing import Callable, Sequence

CAP_ENV_VAR = "PARKFUN_BRUTE_CAP"

# All of [8]^8; keeps un-forced sweeps under a minute on ordinary hardware.
DEFAULT_CAP = 8 ** 8

# Python's default limit on int <-> str conversion. The CLI lifts it so that
# totals past it print, but a number read from outside is held to it: int()
# takes time quadratic in the length of its text.
_MAX_DIGITS = 4300

# A refusal repeats outside text, or a word read from it, only this far.
_QUOTE_CHARS = 40


def _clip(text: str, size: str = "", render: Callable[[str], str] = str) -> str:
    """`render(text)`, or past _QUOTE_CHARS characters `render` of its start
    and `size`, by default its length, so that a refusal never repeats long
    outside text."""
    if len(text) <= _QUOTE_CHARS:
        return render(text)
    return f"{render(text[:_QUOTE_CHARS])}... ({size or f'{len(text)} characters'})"


def _quote(text: str) -> str:
    """`repr(text)`, clipped by `_clip` to its start and its length."""
    return _clip(text, render=repr)


def _clip_word(word: Sequence[int], render: Callable[[Sequence[int]], str] | None = None) -> str:
    """`render(word)`, by default `str(tuple(word))` with each value shown by
    `_shown`, clipped by `_clip` to its start and its number of values; only
    its first _QUOTE_CHARS values are rendered."""
    head = word[:_QUOTE_CHARS]
    text = render(head) if render else f"({', '.join(map(_shown, head))}{',' * (len(head) == 1)})"
    return _clip(text, f"{len(word)} values")


def _digits(number: int) -> int:
    """How many decimal digits `abs(number)` has, found without printing it."""
    number = abs(number)
    # 0.30102999 < log10(2), so this count is never over, and below 10^8
    # bits at most one short.
    digits = max(number.bit_length() - 1, 0) * 30102999 // 10 ** 8 + 1
    while number >= 10 ** digits:
        digits += 1
    return digits


def _shown(value) -> str:
    """A value as a message repeats it: `repr(value)` clipped by `_clip`. An
    int past the digit limit, which repr refuses, is named by its sign and
    its number of digits, and a value that holds one by its type."""
    if isinstance(value, int) and (digits := _digits(value)) > _MAX_DIGITS:
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"
    try:
        text = repr(value)
    except ValueError:  # CPython's int-to-str limit, met inside `value`
        return f"a {type(value).__name__} that holds an int past the {_MAX_DIGITS}-digit limit"
    return _clip(text)


def _read_int(text: str, where: str, bad: Callable[[], str], error=ValueError) -> int:
    """`int(text)` for ASCII text of at most _MAX_DIGITS characters (int()
    alone reads any Unicode digit, such as "１" or "٣"), or `error`: past the
    digit limit it names the length, after `where` when given; for any other
    refusal it says `bad()`, built then."""
    if len(text) > _MAX_DIGITS:
        too_long = f"a number of {len(text)} characters is past the {_MAX_DIGITS}-digit limit"
        raise error(f"{where}: {too_long}" if where else too_long)
    if text.isascii():
        with contextlib.suppress(ValueError):
            return int(text)
    raise error(bad())


class BadCapSetting(ValueError):
    """``PARKFUN_BRUTE_CAP`` is set but is not a positive integer."""


def _size_text(size: int) -> str:
    """`size` in decimal or, past _QUOTE_CHARS digits, as the largest power
    of ten below it."""
    if size < 10 ** _QUOTE_CHARS:
        return str(size)
    return f"more than 10^{_digits(size - 1) - 1}"


class SearchCapExceeded(RuntimeError):
    """A brute-force sweep or listing was refused because it would be too large."""

    def __init__(self, size: int, cap: int):
        super().__init__(
            f"search space of {_size_text(size)} preferences exceeds the cap of "
            f"{_size_text(cap)}; force the run or raise {CAP_ENV_VAR}"
        )
        self.size = size
        self.cap = cap


def brute_cap() -> int:
    """Maximum number of preferences a sweep or listing may visit without
    being forced.

    ``PARKFUN_BRUTE_CAP`` overrides the default; it counts preferences, not
    the number of cars.
    """
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    cap = _read_int(
        raw, CAP_ENV_VAR, lambda: f"{CAP_ENV_VAR} must be an integer, got {_quote(raw)}", BadCapSetting
    )
    if cap <= 0:
        raise BadCapSetting(f"{CAP_ENV_VAR} must be positive, got {_shown(cap)}")
    return cap


def ensure_within_cap(size: int, force: bool = False) -> None:
    """Raise SearchCapExceeded if a search of `size` preferences is over the cap."""
    if force:
        return
    cap = brute_cap()
    if size > cap:
        raise SearchCapExceeded(size, cap)


def ensure_sweep_within_cap(n: int, force: bool = False, sweeps: int = 1) -> None:
    """`ensure_within_cap(sweeps * n ** n, force)`. For n in the millions n ** n
    takes seconds to build, so once its lower bound 2 ** (n * floor(log2 n))
    passes 2 ** (4 * _MAX_DIGITS), above every cap of _MAX_DIGITS digits, that
    power of two stands in for it."""
    bits = 4 * _MAX_DIGITS
    ensure_within_cap(sweeps * n ** n if n * (n.bit_length() - 1) <= bits else 1 << bits, force)
