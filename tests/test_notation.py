import pytest

from parkfun.notation import (
    format_blocks,
    format_interval,
    format_word,
    format_word_compact,
    parse_word,
)


class TestParseWord:
    def test_comma_separated(self):
        assert parse_word("3,1,1,2") == (3, 1, 1, 2)
        assert parse_word(" 8, 9, 10, 1 ") == (8, 9, 10, 1)

    def test_compact(self):
        assert parse_word("87152463") == (8, 7, 1, 5, 2, 4, 6, 3)
        assert parse_word("1") == (1,)

    def test_compact_rejects_zero(self):
        with pytest.raises(ValueError):
            parse_word("10")  # ambiguous without commas

    @pytest.mark.parametrize("text", ["²1", "１１"])
    def test_compact_takes_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="is not a comma-separated or compact word"):
            parse_word(text)

    @pytest.mark.parametrize("text, part", [("1,１", "１"), ("1,٣", "٣")])
    def test_comma_separated_takes_ascii_digits_only(self, text, part):
        with pytest.raises(ValueError, match=f"^'{part}' is not an integer$"):
            parse_word(text)

    def test_comma_separated_ascii_parts_read_as_int_does(self):
        assert parse_word("1_0,1") == (10, 1)

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_word("a,b")
        with pytest.raises(ValueError):
            parse_word("")
        with pytest.raises(ValueError):
            parse_word("1;2")


class TestFormat:
    def test_round_trip(self):
        word = (8, 9, 10, 1, 2, 3, 4, 5, 6, 7)
        assert parse_word(format_word(word)) == word

    def test_compact_wraps_big_values(self):
        assert format_word_compact((2, 1, 4, 7, 5, 3, 6, 10, 8, 9)) == "2147536(10)89"

    def test_blocks(self):
        word = (2, 1, 4, 7, 5, 3, 6, 10, 8, 9)
        blocks = [(1, 2), (3, 7), (8, 10)]
        assert format_blocks(word, blocks) == "21/47536/(10)89"
        assert format_blocks(word, blocks, mark_start=8) == "21/47536/[(10)89]"

    def test_interval(self):
        assert format_interval(3, 3) == "{3}"
        assert format_interval(2, 6) == "{2..6}"
