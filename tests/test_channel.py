import pytest

from overlapcodes.channel import (CorruptionSpec, burst_range, corrupt,
                                  detection_offset, encode_stream, scan_decode)
from overlapcodes.constructions import pad_t1t2
from overlapcodes.words import code

PAD_CODE = pad_t1t2(code(2, 3, {"001"}), 2, 3)  # {0010, 0011}, window (2,3)


def test_encode_examples():
    c = code(2, 4, {"0001", "0011"})
    s = encode_stream(c, [0, 1, 0])
    assert s.symbols == "000100110001"
    assert encode_stream(c, []).symbols == ""
    s = encode_stream(code(3, 4, {"0212"}), [0, 0])
    assert s.symbols == "02120212"


def test_corrupt_delete():
    c = code(2, 4, {"0001", "0011"})
    s = encode_stream(c, [0, 1, 0])
    out = corrupt(s, CorruptionSpec("delete", 5, 1))
    assert out.symbols == "00010011000"[:5] + "000100110001"[6:]
    assert len(out.symbols) == 11


def test_corrupt_insert_seeded_and_explicit():
    c = code(2, 4, {"0001", "0011"})
    s = encode_stream(c, [0, 1])
    out = corrupt(s, CorruptionSpec("insert", 3, 2, seed=7))
    assert len(out.symbols) == 10
    again = corrupt(s, CorruptionSpec("insert", 3, 2, seed=7))
    assert out.symbols == again.symbols
    fixed = corrupt(s, CorruptionSpec("insert", 3, 2, inserted="10"))
    assert fixed.symbols == s.symbols[:3] + "10" + s.symbols[3:]


def test_corrupt_rejects_bad_bursts():
    c = code(2, 4, {"0001"})
    s = encode_stream(c, [0])
    with pytest.raises(ValueError):
        corrupt(s, CorruptionSpec("delete", 0, 0))
    with pytest.raises(ValueError):
        corrupt(s, CorruptionSpec("delete", 3, 2))
    with pytest.raises(ValueError):
        corrupt(s, CorruptionSpec("warp", 0, 1))
    with pytest.raises(ValueError, match="deletion takes no inserted"):
        corrupt(s, CorruptionSpec("delete", 1, 1, inserted="1"))
    for inserted, first in (("7", "7"), ("0x2", "x"), ("21", "2")):
        with pytest.raises(ValueError, match=f"symbol '{first}' not in "
                                             "alphabet of size 2"):
            corrupt(s, CorruptionSpec("insert", 1, len(inserted),
                                      inserted=inserted))
    # the alphabet is the stream's: 2 is a symbol at q = 3
    s3 = encode_stream(code(3, 4, {"0012"}), [0])
    assert corrupt(s3, CorruptionSpec("insert", 4, 1,
                                      inserted="2")).symbols == "00122"


@pytest.mark.parametrize("position,inserted,complaint", [
    (5, None, "insertion position out of range"),
    (-1, None, "insertion position out of range"),
    (1, "01", "inserted symbols must match the burst length"),
])
def test_corrupt_rejects_bad_insertions(position, inserted, complaint):
    s = encode_stream(code(2, 4, {"0001"}), [0])
    with pytest.raises(ValueError, match=f"^{complaint}$"):
        corrupt(s, CorruptionSpec("insert", position, 1, inserted=inserted))


def test_clean_stream_decodes_without_desync():
    s = encode_stream(PAD_CODE, [0, 1, 0, 1, 1, 0] * 16)
    events = scan_decode(s, PAD_CODE)
    assert all(ev.kind == "match" for ev in events)
    assert detection_offset(events, 0) is None


def test_burst_range():
    assert burst_range(4, 2, 3) == (1, 2)
    assert burst_range(6, 1, 5) == (1, 5)


def test_partial_tail_is_desync():
    s = encode_stream(PAD_CODE, [0, 0])
    cut = corrupt(s, CorruptionSpec("delete", 6, 1))
    events = scan_decode(cut, PAD_CODE)
    assert events[-1].kind == "desync"


@pytest.mark.parametrize("burst", [1, 2])
def test_deletion_detected_within_two_blocks(burst):
    n = PAD_CODE.n
    for message in ([0, 1, 0, 1, 1, 0], [1, 1, 0, 0, 1, 1]):
        s = encode_stream(PAD_CODE, message)
        for pos in range(0, 2 * n):
            out = corrupt(s, CorruptionSpec("delete", pos, burst))
            offset = detection_offset(scan_decode(out, PAD_CODE), pos)
            assert offset is not None and offset <= 2 * n, (pos, burst, offset)


def test_insertion_detected_within_three_blocks():
    from itertools import product

    n = PAD_CODE.n
    for message in ([0, 1, 0, 1, 1, 0], [1, 0, 0, 1, 0, 1]):
        s = encode_stream(PAD_CODE, message)
        for pos in range(0, 2 * n):
            for burst in (1, 2):
                for sym in product("01", repeat=burst):
                    out = corrupt(s, CorruptionSpec(
                        "insert", pos, burst, inserted="".join(sym)))
                    offset = detection_offset(scan_decode(out, PAD_CODE), pos)
                    assert offset is not None and offset <= 3 * n, \
                        (pos, burst, sym, offset)
