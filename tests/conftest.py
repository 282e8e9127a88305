"""Shared test strategies."""

from types import SimpleNamespace

from hypothesis import strategies as st

from tagauth.word96 import MASK

words = st.integers(min_value=0, max_value=MASK)

# where one lane's word could leak into its neighbour: all bits set, the top
# bit alone, and odd and even words (5z is odd exactly when z is, and that
# low bit of lane i + 1 is the one the shift moves towards lane i)
LANE_WORDS = (0, 1, 2, MASK, MASK - 1, 1 << 95, (1 << 95) + 1)
lane_words = st.sampled_from(LANE_WORDS) | words

# the names ground truth gives reader_begin's seven internals, in its order
INTERNALS = ("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star")


def named(returned) -> SimpleNamespace:
    """A reader_begin's (A, B, C, D, staged, internals) as words by name:
    a..d, ids_next, k1_next, k2_next and the ``INTERNALS``."""
    a, b, c, d, (ids_next, k1_next, k2_next), internals = returned
    return SimpleNamespace(a=a, b=b, c=c, d=d, ids_next=ids_next, k1_next=k1_next,
                           k2_next=k2_next, **dict(zip(INTERNALS, internals, strict=True)))
