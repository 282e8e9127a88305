"""Shared test strategies."""

from hypothesis import strategies as st

from tagauth.word96 import MASK

words = st.integers(min_value=0, max_value=MASK)

# where one lane's word could leak into its neighbour: all bits set, the top
# bit alone, and odd and even words (5z is odd exactly when z is, and that
# low bit of lane i + 1 is the one the shift moves towards lane i)
LANE_WORDS = (0, 1, 2, MASK, MASK - 1, 1 << 95, (1 << 95) + 1)
lane_words = st.sampled_from(LANE_WORDS) | words
