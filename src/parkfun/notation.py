"""Text notation for preference and permutation words.

Canonical I/O form is comma-separated integers. Compact digit strings such
as "2314" are accepted for words whose values are all single digits; display
helpers render values of 10 or more in parentheses, e.g. "(10)89".
"""

from __future__ import annotations

from typing import Sequence

from .limits import _quote, _read_int


def parse_word(text: str) -> tuple[int, ...]:
    """Parse "3,1,1,2" or compact "3112" into a tuple of positive integers."""
    s = text.strip()
    if not s:
        raise ValueError("empty word")
    if "," in s:
        values = []
        for part in s.split(","):
            part = part.strip()
            values.append(_read_int(part, "", lambda: f"{_quote(part)} is not an integer"))
        return tuple(values)
    # str.isdigit() alone admits digits such as "²" and "１" that int() refuses.
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"{_quote(text)} is not a comma-separated or compact word")
    if "0" in s:
        raise ValueError(
            f"{_quote(text)}: compact notation covers single digits 1-9 only; "
            "use comma-separated values for larger entries"
        )
    return tuple(int(ch) for ch in s)


def format_word(word: Sequence[int]) -> str:
    """Canonical comma-separated rendering."""
    return ",".join(str(v) for v in word)


def format_word_compact(word: Sequence[int]) -> str:
    """Digit-string rendering with values >= 10 wrapped in parentheses."""
    return "".join(str(v) if v <= 9 else f"({v})" for v in word)


def format_blocks(
    word: Sequence[int],
    blocks: Sequence[tuple[int, int]],
    mark_start: int | None = None,
) -> str:
    """Render a word split into position blocks, slash-separated.

    `blocks` holds inclusive 1-indexed (start, end) pairs covering the word;
    the block starting at `mark_start`, if given, is wrapped in brackets.
    """
    parts = []
    for start, end in blocks:
        text = format_word_compact(word[start - 1 : end])
        if start == mark_start:
            text = f"[{text}]"
        parts.append(text)
    return "/".join(parts)


def format_interval(lo: int, hi: int) -> str:
    """Render an inclusive spot interval: "{3}" or "{2..6}"."""
    if lo == hi:
        return f"{{{lo}}}"
    return f"{{{lo}..{hi}}}"
