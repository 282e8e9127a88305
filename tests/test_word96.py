"""Arithmetic core: identities, frozen oracle values, algebraic properties."""

import random
import re
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import words
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


# where one lane's word could leak into its neighbour: all bits set, the top
# bit alone, and odd and even words (5z is odd exactly when z is, and that
# low bit of lane i + 1 is the one the shift moves towards lane i)
LANE_WORDS = (0, 1, 2, w.MASK, w.MASK - 1, 1 << 95, (1 << 95) + 1)
lane_words = st.sampled_from(LANE_WORDS) | words


def scalar_mixbits(xs, ys):
    return [w.mixbits_original(x, y) for x, y in zip(xs, ys)]


class TestMixBitsLanes:
    @given(pairs=st.lists(st.tuples(lane_words, lane_words), max_size=6))
    @settings(max_examples=300)
    @example(pairs=[])
    @example(pairs=[(0, 0)])
    @example(pairs=[(w.MASK, w.MASK), (w.MASK, w.MASK)])
    @example(pairs=[(1 << 95, 1), (w.MASK, 1 << 95)])
    def test_matches_scalar_and_oracle(self, pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        lanes = w.mixbits_original_lanes(xs, ys)
        assert lanes == scalar_mixbits(xs, ys)
        assert lanes == [oracles.mixbits_shift(x, y) for x, y in pairs]

    def test_edge_lanes_between_odd_and_even_neighbours(self):
        for xs in product(LANE_WORDS, repeat=3):
            for ys in (xs, xs[::-1], (w.MASK, 0, 1 << 95)):
                assert w.mixbits_original_lanes(list(xs), list(ys)) == scalar_mixbits(xs, ys)

    @given(seed=st.integers(min_value=0, max_value=2**32), extra=st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_thousands_of_lanes(self, seed, extra):
        # one call covers every trial of an attack evaluation
        rng = random.Random(seed)
        n = 2048 + extra
        xs = [rng.choice(LANE_WORDS) if rng.random() < 0.2 else rng.getrandbits(96)
              for _ in range(n)]
        ys = [rng.getrandbits(96) for _ in range(n)]
        lanes = w.mixbits_original_lanes(xs, ys)
        assert lanes == scalar_mixbits(xs, ys)
        assert lanes == [oracles.mixbits_shift(x, y) for x, y in zip(xs, ys)]

    def test_lists_of_unequal_length_are_an_error(self):
        with pytest.raises(ValueError):
            w.mixbits_original_lanes([1, 2], [3])


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
