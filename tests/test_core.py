import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskap.core import (
    FieldEncodingError,
    FieldTooLong,
    HashCounter,
    LengthMismatch,
    concat,
    encode_field,
    keystream_block,
    keystream_mask,
    sha256,
    ts_bytes,
    xor,
)

# FIPS 180-4 reference vectors
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
SHA256_448BIT = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"


class TestHash:
    def test_fips_empty(self):
        assert sha256(b"").hex() == SHA256_EMPTY

    def test_fips_abc(self):
        assert sha256(b"abc").hex() == SHA256_ABC

    def test_fips_two_block(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha256(msg).hex() == SHA256_448BIT

    def test_deterministic(self):
        assert sha256(b"fixed input") == sha256(b"fixed input")

    @given(st.lists(st.binary(max_size=40), max_size=5))
    def test_parts_hash_as_one_juxtaposed_input(self, parts):
        assert sha256(*parts) == sha256(b"".join(parts)) == hashlib.sha256(b"".join(parts)).digest()

    def test_parts_counted_once(self):
        counter = HashCounter()
        with counter.phase("p"):
            sha256(b"a", b"b", b"c")
        assert counter.count("p") == 1

    def test_counts_when_counter_active(self):
        counter = HashCounter()
        with counter.phase("p"):
            sha256(b"x")
            sha256(b"y")
        sha256(b"uncounted")
        assert counter.count("p") == 2


class TestXor:
    def test_self_inverse(self):
        x = bytes(range(32))
        assert xor(x, x) == bytes(32)

    def test_identity(self):
        x = bytes(range(16))
        assert xor(x, bytes(16)) == x

    def test_complement(self):
        assert xor(b"\x0f", b"\xf0") == b"\xff"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            xor(b"ab", b"abc")

    @pytest.mark.parametrize("short", range(4))
    def test_length_mismatch_whichever_operand_is_short(self, short):
        operands = [bytes(range(8)) for _ in range(4)]
        operands[short] = operands[short][:-1]
        with pytest.raises(LengthMismatch):
            xor(*operands)

    @given(st.integers(min_value=0, max_value=40).flatmap(
        lambda n: st.lists(st.binary(min_size=n, max_size=n), min_size=1, max_size=5)
    ))
    def test_n_ary_equals_pairwise_fold(self, operands):
        folded = operands[0]
        for b in operands[1:]:
            folded = xor(folded, b)
        assert xor(*operands) == folded

    @given(st.binary(min_size=0, max_size=64), st.binary(min_size=0, max_size=64))
    def test_commutative(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert xor(a, b) == xor(b, a)

    @given(st.binary(min_size=1, max_size=64))
    def test_round_trip(self, a):
        b = bytes(reversed(a))
        assert xor(xor(a, b), b) == a

    @given(
        st.binary(min_size=8, max_size=8),
        st.binary(min_size=8, max_size=8),
        st.binary(min_size=8, max_size=8),
    )
    def test_associative(self, a, b, c):
        assert xor(xor(a, b), c) == xor(a, xor(b, c))


class TestKeystreamMask:
    @settings(max_examples=200)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=0, max_size=4096))
    def test_involution(self, key, payload):
        assert keystream_mask(key, keystream_mask(key, payload)) == payload

    def test_empty_payload(self):
        assert keystream_mask(b"\x00" * 32, b"") == b""

    def test_forty_byte_payload_frozen(self):
        # recomputed with an independent hash oracle; consumes two blocks
        key = hashlib.sha256(b"key").digest()
        payload = bytes(range(40))
        expected = "393bc2f5184cc43885e6c078a94b8209b2b248ffa454047a5741df580ada2458872140b708e6f31e"
        assert keystream_mask(key, payload).hex() == expected

    def test_matches_block_expansion(self):
        key = hashlib.sha256(b"k2").digest()
        payload = b"\xaa" * 100
        stream = b"".join(
            hashlib.sha256(key + struct.pack(">I", i)).digest() for i in range(4)
        )
        assert keystream_mask(key, payload) == xor(payload, stream[:100])

    def test_block_is_one_block_of_the_mask(self):
        key = hashlib.sha256(b"k3").digest()
        stream = keystream_mask(key, b"\x00" * 160)
        for i in range(5):
            assert keystream_block(key, i) == stream[32 * i : 32 * (i + 1)]
            assert keystream_block(key, i) == hashlib.sha256(key + struct.pack(">I", i)).digest()

    def test_block_charged_to_keystream_tally(self):
        counter = HashCounter()
        with counter.phase("p"):
            keystream_block(b"\x01" * 32, 7)
        assert counter.count("p") == 0
        assert counter.keystream_count("p") == 1

    def test_expansion_not_counted_as_protocol_hash(self):
        counter = HashCounter()
        with counter.phase("p"):
            keystream_mask(b"\x01" * 32, b"\x00" * 64)
        assert counter.count("p") == 0
        assert counter.keystream_count("p") == 2


class TestFields:
    def test_round_trip(self):
        for s in ("", "a", "user01", "0123456789abcdef", "héllo"):
            assert encode_field(s).rstrip(b"\x00").decode() == s

    def test_width(self):
        assert len(encode_field("x")) == 16

    def test_too_long(self):
        with pytest.raises(FieldTooLong):
            encode_field("0123456789abcdefg")

    def test_too_long_multibyte(self):
        with pytest.raises(FieldTooLong):
            encode_field("é" * 9)  # 18 UTF-8 bytes

    def test_lone_surrogate(self):
        with pytest.raises(FieldEncodingError):
            encode_field("\ud800")

    @given(st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=8))
    def test_injective_round_trip(self, s):
        try:
            raw = s.encode("utf-8")
        except UnicodeEncodeError:
            # Lone surrogates have no UTF-8 form: encode_field refuses them.
            with pytest.raises(FieldEncodingError):
                encode_field(s)
            return
        if len(raw) > 16:
            return
        assert encode_field(s).rstrip(b"\x00").decode() == s


class TestConcatAndTimestamps:
    def test_concat_widths(self):
        assert len(concat(encode_field("u1"), encode_field("p"))) == 32
        assert len(concat(sha256(b"a"), ts_bytes(0))) == 36
        assert concat() == b""

    def test_ts_round_trip(self):
        for t in (0, 1, 1_700_000_000, 2**32 - 1):
            assert struct.unpack(">I", ts_bytes(t)) == (t,)

    def test_ts_big_endian(self):
        assert ts_bytes(1) == b"\x00\x00\x00\x01"

    def test_ts_out_of_range(self):
        with pytest.raises(ValueError):
            ts_bytes(2**32)
        with pytest.raises(ValueError):
            ts_bytes(-1)
