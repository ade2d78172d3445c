import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes.families import (balanced_family, enumerate_families,
                                   family)
from overlapcodes.fileio import (FormatError, _split_header,
                                 format_code, format_family, parse_code,
                                 parse_family,
                                 read_code, read_family,
                                 write_code, write_family)
from overlapcodes.words import all_words, code


def test_code_round_trip(tmp_path):
    c = code(3, 4, {"0212", "0012"}, window=(1, 2))
    path = tmp_path / "c.txt"
    write_code(c, path, comment="two words")
    back = read_code(path)
    assert back.words == c.words and back.q == 3 and back.n == 4
    text = path.read_text()
    assert text.startswith("# two words\nq=3 n=4\n")


def test_code_parse_errors():
    with pytest.raises(FormatError, match="header"):
        parse_code("0011\n")
    with pytest.raises(FormatError, match="length"):
        parse_code("q=2 n=4\n001\n")
    with pytest.raises(FormatError, match="alphabet"):
        parse_code("q=2 n=3\n021\n")
    with pytest.raises(FormatError):
        parse_code("q=2 m=3\n")
    with pytest.raises(FormatError):
        parse_code("")


def test_code_header_field_given_twice():
    with pytest.raises(FormatError,
                       match="^c.txt: header field 'n' given twice$"):
        parse_code("q=2 n=4 n=3\n011\n", "c.txt")
    with pytest.raises(FormatError, match="field 'q' given twice"):
        parse_code("q=2 n=3 q=2\n011\n")


def test_family_header_field_given_twice():
    with pytest.raises(FormatError,
                       match="^f.txt: header field 'k' given twice$"):
        parse_family("q=2 k=1 k=2\nL1: 0\nR1: 1\nL2: 01\nR2:\n", "f.txt")


def test_code_comments_and_blank_lines():
    c = parse_code("# heading\nq=2 n=3\n\n001  # inline note\n011\n")
    assert c.words == {"001", "011"}


def test_family_round_trip(tmp_path):
    f = family(3, [({"0", "1"}, {"2"}), ({"02"}, {"12"})])
    path = tmp_path / "f.txt"
    write_family(f, path)
    back = read_family(path)
    assert back.levels == f.levels
    text = path.read_text()
    assert "q=3 k=2" in text and "L1: 0 1" in text


def test_family_empty_levels_round_trip(tmp_path):
    f = balanced_family(2, 1, 3, "L_empty")
    path = tmp_path / "f.txt"
    write_family(f, path)
    assert read_family(path).levels == f.levels


def test_family_parser_validates():
    # well-formed but invalid: level 2 misses the word 12
    bad = "q=3 k=2\nL1: 0 1\nR1: 2\nL2: 02\nR2:\n"
    with pytest.raises(FormatError, match="level 2"):
        parse_family(bad)
    with pytest.raises(FormatError, match="tag"):
        parse_family("q=2 k=1\nX1: 0\n")
    with pytest.raises(FormatError, match="outside"):
        parse_family("q=2 k=1\nL3: 0\n")


@pytest.mark.parametrize("text,complaint", [
    ("# a comment only\n\n", "f.txt: missing header line"),
    ("q=2 k=0\n", "f.txt: depth must be >= 1"),
])
def test_family_parse_rejects_missing_header_and_depth(text, complaint):
    with pytest.raises(FormatError, match=f"^{complaint}$"):
        parse_family(text, "f.txt")


def test_family_depth_costs_nothing_past_its_levels():
    # level 2 is empty, so a depth of 10^9 fails there without being built
    started = time.perf_counter()
    with pytest.raises(FormatError, match=r"level 2: .*missing \['01'\]"):
        parse_family("q=2 k=1000000000\nL1: 0\nR1: 1\n")
    assert time.perf_counter() - started < 0.1


def test_every_enumerated_family_survives_round_trip():
    for f in enumerate_families(3, 2):
        assert parse_family(format_family(f)).levels == f.levels


# Line-by-line parsers: the reference for the one-pass comment rule.
def lined_content(text):
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def lined_parse_code(text, path="<string>"):
    lines = lined_content(text)
    if not lines:
        raise FormatError(f"{path}: missing header line")
    q, n = _split_header(lines[0], ("q", "n"), path)
    words = set()
    for line in lines[1:]:
        for word in line.split():
            if len(word) != n:
                raise FormatError(f"{path}: word {word!r} does not have length {n}")
            words.add(word)
    try:
        return code(q, n, words)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def lined_parse_family(text, path="<string>"):
    lines = lined_content(text)
    if not lines:
        raise FormatError(f"{path}: missing header line")
    q, k = _split_header(lines[0], ("q", "k"), path)
    if k < 1:
        raise FormatError(f"{path}: depth must be >= 1")
    sets = {}
    for line in lines[1:]:
        if ":" not in line:
            raise FormatError(f"{path}: expected 'L<i>:' or 'R<i>:' line, got {line!r}")
        tag, _, rest = line.partition(":")
        tag = tag.strip()
        if not tag or tag[0] not in "LR" or not tag[1:].isdigit():
            raise FormatError(f"{path}: bad level tag {tag!r}")
        level = int(tag[1:])
        if not 1 <= level <= k:
            raise FormatError(f"{path}: level {level} outside [1, {k}]")
        sets.setdefault(tag, set()).update(rest.split())
    levels = [(sets.get(f"L{i}", set()), sets.get(f"R{i}", set()))
              for i in range(1, k + 1)]
    try:
        return family(q, levels)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def outcome(parse, text):
    try:
        return parse(text)
    except (FormatError, ValueError) as exc:
        return type(exc), str(exc)


BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "\x85", "\u2028", "\u2029"]
SPACES = st.sampled_from(["", " ", "\t", "  ", "\x1f", "\xa0"])
COMMENTS = st.text(alphabet="01:# q=nkLR\t", max_size=6).map("#".__add__)


@st.composite
def file_texts(draw, lines):
    """lines laid out as a file: leading whitespace, inline comments,
    comment-only and blank lines between them, and mixed line breaks."""
    out = []
    for line in lines:
        out.extend(draw(st.lists(SPACES | COMMENTS, max_size=2)))
        if draw(st.booleans()):
            line += draw(SPACES) + draw(COMMENTS)
        out.append(draw(SPACES) + line)
    text = draw(st.sampled_from(["", " ", "\n", " \r\n\t"]))
    for line in out:
        text += line + draw(st.sampled_from(BREAKS))
    return text if draw(st.booleans()) else text.rstrip("".join(BREAKS))


CODE_HEADERS = ["q=2 n=3", "q=3 n=2", "q=2 n=2", "n=3 q=2", "q=2", "q=x n=3",
                "q=1 n=3", "q=2 n=3 k=1", "n=3"]


@st.composite
def code_texts(draw):
    """Mostly well-formed q=2 n=3 code files; the rest have wrong-length
    words, foreign symbols, bad or missing headers.  Words repeat often."""
    word = st.sampled_from(list(all_words(2, 3)))
    if draw(st.booleans()):
        word |= st.text("012", min_size=3, max_size=3) | st.text(
            "0123", min_size=1, max_size=4)
    rows = draw(st.lists(st.lists(word, min_size=1, max_size=3).map(" ".join),
                         max_size=6))
    header = draw(st.sampled_from(CODE_HEADERS[:1] * 4 + CODE_HEADERS))
    lines = [header] if draw(st.integers(0, 3)) else []
    return draw(file_texts(lines + rows))


@given(code_texts())
@settings(max_examples=300, deadline=None)
def test_parse_code_matches_line_parser(text):
    expected = outcome(lined_parse_code, text)
    got = outcome(parse_code, text)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert (got.q, got.n, got.words) == (expected.q, expected.n,
                                             expected.words)


FAMILY_TEXTS = [format_family(f) for f in
                list(enumerate_families(2, 3)) + list(enumerate_families(3, 2))]


@st.composite
def family_texts(draw):
    lines = draw(st.sampled_from(FAMILY_TEXTS)).splitlines()
    extra = draw(st.lists(st.sampled_from(
        ["L1: 0", "R2: 01", "X1: 0", "L4: 1", "L1 0", "R1:", ": 0", "q=2 k=2"]),
        max_size=2))
    for row in extra:
        lines.insert(draw(st.integers(0, len(lines))), row)
    return draw(file_texts(lines))


@given(family_texts())
@settings(max_examples=200, deadline=None)
def test_parse_family_matches_line_parser(text):
    expected = outcome(lined_parse_family, text)
    got = outcome(parse_family, text)
    assert got == expected  # families compare by value
