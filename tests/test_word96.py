"""Arithmetic core: identities, frozen oracle values, algebraic properties."""

import random
import re
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import LANE_WORDS, lane_words, words
from tagauth import gossamer
from tagauth import word96 as w

# frozen from tests/oracles.py
DOUBLE_PI = 0x6487ED5110B4611A62633144
MIX_SHIFT_1_0 = 0x00000000000003C514F79948
MIX_SHIFT_0_1 = 0x00000000000002B1583F0641
MIX_COUNTER_0_0 = 0x000000000001A553F8878F90
MIX_COUNTER_1_1 = 0x00000000000B854BCBB4ED51

# where a closed form of the counter MixBits would most likely wrap wrongly
EDGE_WORDS = (0, 1, w.MASK, w.PI, 1 << 95)


def edge_examples(test):
    """Add every (x, y) pair of EDGE_WORDS as an explicit hypothesis example."""
    for x, y in product(EDGE_WORDS, repeat=2):
        test = example(x=x, y=y)(test)
    return test


class TestAddSub:
    def test_add_identity(self):
        assert w.add(0, w.PI) == w.PI

    def test_add_wraps(self):
        assert w.add(w.MASK, 1) == 0

    def test_add_pi_pi_matches_oracle(self):
        assert w.add(w.PI, w.PI) == DOUBLE_PI

    def test_sub_identity_and_wrap(self):
        assert w.sub(w.PI, 0) == w.PI
        assert w.sub(0, 1) == w.MASK

    def test_sub_inverts_add(self):
        assert w.sub(w.add(w.PI, 5), 5) == w.PI

    @given(a=words, b=words)
    def test_group_laws(self, a, b):
        assert w.sub(w.add(a, b), b) == a
        assert w.add(a, w.sub(0, a)) == 0


class TestBitwise:
    """The equations apply ``^``, ``|`` and ``&`` to words as they are: on
    words in range the operators stay in range, so they need no mask."""

    def test_xor_self_is_zero(self):
        assert w.PI ^ w.PI == 0

    def test_or_zero_identity(self):
        assert w.PI | 0 == w.PI

    def test_and_full_mask_identity(self):
        assert w.PI & w.MASK == w.PI

    @given(a=words, b=words)
    def test_words_stay_words(self, a, b):
        assert all(0 <= x <= w.MASK for x in (a ^ b, a | b, a & b))


class TestRotation:
    def test_small_shifts(self):
        assert w.rotl(1, 1) == 2
        assert w.rotr(2, 1) == 1

    def test_full_rotation_is_identity(self):
        assert w.rotl(w.PI, 96) == w.PI
        assert w.rotr(w.PI, 0) == w.PI

    def test_msb_wraps_to_lsb(self):
        assert w.rotl(1 << 95, 1) == 1

    def test_inverse_on_pi(self):
        assert w.rotr(w.rotl(w.PI, 37), 37) == w.PI

    @given(x=words, y=words)
    def test_rotl_bijective(self, x, y):
        assert w.rotr(w.rotl(x, y), y) == x

    @given(x=words, y=words, k=st.integers(min_value=0, max_value=50))
    def test_rotation_amount_reduces_mod_96(self, x, y, k):
        assert w.rotl(x, y) == w.rotl(x, y + 96 * k)

    @given(x=words, y=words)
    def test_rotl_matches_bitstring_oracle(self, x, y):
        assert w.rotl(x, y) == oracles.rot_left(x, y)


class TestMixBits:
    def test_original_zero_fixed_point(self):
        # the collapse the zero-nonce attack relies on
        assert w.mixbits_original(0, 0) == 0

    def test_original_frozen_values(self):
        assert w.mixbits_original(1, 0) == MIX_SHIFT_1_0
        assert w.mixbits_original(0, 1) == MIX_SHIFT_0_1

    def test_original_first_steps(self):
        # the recurrence from 1 walks 2, 5, 12, 30
        z = 1
        seen = []
        for _ in range(4):
            z = ((z >> 1) + z + z) & w.MASK
            seen.append(z)
        assert seen == [2, 5, 12, 30]

    def test_modified_zero_input_is_nonzero(self):
        out = w.mixbits_modified(0, 0)
        assert out == MIX_COUNTER_0_0
        assert out != 0
        assert out % 96 != 0
        assert out % 96 == 16

    def test_modified_zero_matches_closed_form(self):
        assert w.mixbits_modified(0, 0) == sum(i * 3 ** (31 - i) for i in range(32)) & w.MASK

    def test_modified_frozen_value(self):
        assert w.mixbits_modified(1, 1) == MIX_COUNTER_1_1

    @edge_examples
    @given(x=words, y=words)
    @settings(max_examples=200)
    def test_both_variants_match_oracle(self, x, y):
        assert w.mixbits_original(x, y) == oracles.mixbits_shift(x, y)
        assert w.mixbits_modified(x, y) == oracles.mixbits_counter(x, y)

    def test_installed_table_answers_and_a_miss_computes(self):
        # a planted wrong value shows the lookup; tables hold exact values only
        try:
            w.use_mixbits_table({(1, 0): 7})
            assert w.mixbits_original(1, 0) == 7
            assert w.mixbits_original(0, 1) == MIX_SHIFT_0_1
        finally:
            w.use_mixbits_table({})
        assert w.mixbits_original(1, 0) == MIX_SHIFT_1_0


def scalar_mixbits(xs, ys):
    return [w.mixbits_original(x, y) for x, y in zip(xs, ys)]


def lane_mixbits(xs, ys):
    """mixbits_original of each pair through the lane form, as
    ``gossamer.mixbits_passes`` runs each of its passes."""
    n = len(xs)
    return w.from_lanes(w.mixbits_original_lanes(w.to_lanes(xs), w.to_lanes(ys), n), n)


class TestMixBitsLanes:
    @given(pairs=st.lists(st.tuples(lane_words, lane_words), max_size=6))
    @settings(max_examples=300)
    @example(pairs=[])
    @example(pairs=[(0, 0)])
    @example(pairs=[(w.MASK, w.MASK), (w.MASK, w.MASK)])
    @example(pairs=[(1 << 95, 1), (w.MASK, 1 << 95)])
    def test_matches_scalar_and_oracle(self, pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        lanes = lane_mixbits(xs, ys)
        assert lanes == scalar_mixbits(xs, ys)
        assert lanes == [oracles.mixbits_shift(x, y) for x, y in pairs]

    def test_edge_lanes_between_odd_and_even_neighbours(self):
        for xs in product(LANE_WORDS, repeat=3):
            for ys in (xs, xs[::-1], (w.MASK, 0, 1 << 95)):
                assert lane_mixbits(list(xs), list(ys)) == scalar_mixbits(xs, ys)

    @given(seed=st.integers(min_value=0, max_value=2**32), extra=st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_thousands_of_lanes(self, seed, extra):
        # one call covers every trial of an attack evaluation
        rng = random.Random(seed)
        n = 2048 + extra
        xs = [rng.choice(LANE_WORDS) if rng.random() < 0.2 else rng.getrandbits(96)
              for _ in range(n)]
        ys = [rng.getrandbits(96) for _ in range(n)]
        lanes = lane_mixbits(xs, ys)
        assert lanes == scalar_mixbits(xs, ys)
        assert lanes == [oracles.mixbits_shift(x, y) for x, y in zip(xs, ys)]

    def test_lists_of_unequal_length_are_an_error(self):
        with pytest.raises(ValueError):
            gossamer.mixbits_table([1, 2], [3])

    @pytest.mark.parametrize("bad", [1 << 96, (1 << 102) + 3, (1 << 104) - 1, -1])
    def test_a_word_out_of_range_is_an_error(self, bad):
        # a word in [2**96, 2**104) used to fill its 13-byte lane and carry
        # into the next lane's first round
        with pytest.raises(OverflowError):
            w.to_lanes([bad, 7])
        with pytest.raises(OverflowError):
            gossamer.mixbits_table([bad, 7], [1, 2])


def scalar_peels(x, k, q, c):
    """rotr(rotr(x, t) - k, q) - c for every t, from tests/oracles.py."""
    mod = oracles.MOD
    return [(oracles.rot_left((oracles.rot_left(x, -t) - k) % mod, -q) - c) % mod
            for t in range(96)]


# keys that are multiples of 96 (a rotation by them is none) and constants
# c = IDS + K + PI up to 3 * 2**96, as the modified tag's peel passes them
peel_keys = lane_words | words.map(lambda x: x - x % 96)
peel_constants = lane_words | st.tuples(words, words, words).map(sum)


class TestPeelRotations:
    @given(x=lane_words, k=peel_keys, q=st.sampled_from([0, 95]) | st.integers(0, 10**4),
           c=peel_constants)
    @settings(max_examples=300, deadline=None)
    @example(x=0, k=0, q=0, c=0)
    @example(x=w.MASK, k=w.MASK, q=95, c=3 * w.MASK)
    @example(x=w.MASK, k=0, q=0, c=1)
    @example(x=1 << 95, k=96, q=95, c=w.PI + 2 * w.MASK)
    def test_every_lane_matches_the_scalar_peel(self, x, k, q, c):
        residues, lanes = w.peel_rotations(x, k, q, c)
        expected = scalar_peels(x, k, q, c)
        assert [w.lane_word(lanes, t) for t in range(96)] == expected
        assert list(residues) == [v % 96 for v in expected]

    def test_every_residue_table_matches_a_brute_force_crt(self):
        # byte: v (bit 0), u (bit 1), V mod 32 (bits 2..6), t odd (bit 7)
        assert len(w._RESIDUE_TABLES) == 18
        for (alpha, beta, sigma), table in w._RESIDUE_TABLES.items():
            for byte in range(256):
                v, u, m32, odd = byte & 1, byte >> 1 & 1, byte >> 2 & 31, byte >> 7
                m3 = (alpha * (2 if odd else 1) + beta - sigma * u - v) % 3
                (n,) = [n for n in range(96) if n % 32 == m32 and n % 3 == m3]
                assert table[byte] == n, (alpha, beta, sigma, byte)


# hex digits plus what a canonical word must not hold: uppercase, "x",
# "_", signs and whitespace (each of which int(text, 16) accepts somewhere)
HEX_LIKE = "0123456789abcdefABCDEFx_+- \t\n"


@st.composite
def near_canonical(draw):
    """A canonical word with a slice of up to two characters replaced by
    up to two ``HEX_LIKE`` characters."""
    text = draw(st.text("0123456789abcdef", min_size=24, max_size=24))
    start = draw(st.integers(0, 24))
    stop = draw(st.integers(start, min(24, start + 2)))
    return text[:start] + draw(st.text(HEX_LIKE, max_size=2)) + text[stop:]


class TestHexForm:
    def test_render_is_24_lowercase_digits(self):
        text = w.to_hex(w.PI)
        assert text == "3243f6a8885a308d313198a2"
        assert w.to_hex(0) == "0" * 24

    @given(x=words)
    def test_round_trip(self, x):
        assert w.from_hex(w.to_hex(x)) == x

    @given(x=lane_words)
    @example(x=w.MASK)
    def test_render_is_the_printf_form(self, x):
        assert w.to_hex(x) == "%024x" % x

    @pytest.mark.parametrize("bad", [1 << 96, -1, 1 << 200, -(1 << 96)])
    def test_out_of_range_is_an_error(self, bad):
        # "%024x" would give 25 digits for 2**96 and "-00000000000000000000001" for -1
        with pytest.raises(OverflowError):
            w.to_hex(bad)

    @pytest.mark.parametrize("bad", [
        "", "00", "3243F6A8885A308D313198A2",  # uppercase
        "3243f6a8885a308d313198a",             # 23 digits
        "3243f6a8885a308d313198a2f",           # 25 digits
        " 243f6a8885a308d313198a2",            # whitespace
        "3243f6a8885a308d313198g2",            # non-hex
        "+243f6a8885a308d313198a2",            # sign
    ])
    def test_rejects_non_canonical(self, bad):
        with pytest.raises(ValueError):
            w.from_hex(bad)

    @given(text=st.text(HEX_LIKE, max_size=26) | near_canonical())
    @settings(max_examples=500)
    @example(text="0" * 24)
    @example(text="f" * 23 + "\n")
    def test_accepts_exactly_24_lowercase_hex_digits(self, text):
        if re.fullmatch("[0-9a-f]{24}", text):
            assert w.from_hex(text) == int(text, 16)
        else:
            with pytest.raises(ValueError):
                w.from_hex(text)

    @pytest.mark.parametrize("bad", [None, 5, b"0" * 24, list("0" * 24)])
    def test_rejects_non_text(self, bad):
        with pytest.raises((TypeError, ValueError)):
            w.from_hex(bad)
