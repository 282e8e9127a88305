"""Gossamer engine: closed forms, oracle vectors, round trips, the search."""

import os
import random
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import LANE_WORDS, lane_words, words
from tagauth import gossamer
from tagauth.gossamer import Variant
from tagauth.tagstate import SessionValues, TagState, reader_finish, tag_announce
from tagauth.word96 import MASK, PI, mixbits_modified, mixbits_original

ID = 0x00112233445566778899AABB
IDS = 0x0F1E2D3C4B5A69788796A5B4
K1 = 0xFEDCBA987654321001234567
K2 = 0xDEADBEEFCAFEBABE00C0FFEE
N1 = 0x0123456789ABCDEF01234567
N2 = 0x76543210FEDCBA9876543210

FIELDS = ("n3", "n1p", "n2p", "k1_star", "k2_star", "a", "b", "c", "d",
          "ids_next", "k1_next", "k2_next")
# the name tests/oracles.py gives a field, where it differs
ORACLE_KEY = {"k1_star": "k1s", "k2_star": "k2s"}

# frozen from tests/oracles.py on the inputs above
VECTOR_ORIGINAL = {
    "n3": 0xCA452081BBAFF380311A9EAB,
    "n1p": 0xCF79C0D1517FBE8987C4FDA5,
    "n2p": 0x2CE0E580484F76D346899F20,
    "k1_star": 0x946EF440B83E73707E73E127,
    "k2_star": 0x662BACDC3E723DFC669B94DA,
    "a": 0xAEF4AE144EA134450E3D2A12,
    "b": 0x9A357BDE4A8E442E0C6FA4C1,
    "c": 0xF8693DBE349B9A8623072FA6,
    "d": 0xEBD0720025C16FC428BF4151,
    "ids_next": 0x8E45432F35A4F54AF4A18948,
    "k1_next": 0x431E935A68E99A97AF4BEBCA,
    "k2_next": 0x4F69FEAFC9DC5AA7341B3447,
}
VECTOR_MODIFIED = {
    "n3": 0xEB7C060CA3D9872BEC3AEE77,
    "n1p": 0xDDACA5A8AC828BC40DF8FF87,
    "n2p": 0xD2A06D8EBC28D516A24A0B57,
    "k1_star": 0x7351220A67B0BBDE2968AAF8,
    "k2_star": 0x668EEB7DBEB0B3E23DF450CA,
    "a": 0xE95C289D42688A1C7A54255D,
    "b": 0x5C18DF4983346AF7BC951C88,
    "c": 0xAFD05E59BCBA347907F1AD78,
    "d": 0xF6218F3B29E70A292D2F67FD,
    "ids_next": 0xD27DB6F11968393614585491,
    "k1_next": 0x0C1D45F52291B3449B70D06D,
    "k2_next": 0x79F1F78FD976C1B5A8CC3D8E,
}


def fresh_tag(id_=ID, ids=IDS, k1=K1, k2=K2):
    return TagState(id_, ids, k1, k2, ids, k1, k2)


def session_values(variant, ids, k1, k2, id_, n1, n2):
    """Every value of a session, as the reader's pending context holds them."""
    return gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)[3]


@pytest.mark.parametrize("variant,vector", [
    (Variant.ORIGINAL, VECTOR_ORIGINAL),
    (Variant.MODIFIED, VECTOR_MODIFIED),
])
def test_reader_begin_matches_frozen_oracle(variant, vector):
    vals = session_values(variant, IDS, K1, K2, ID, N1, N2)
    assert isinstance(vals, SessionValues)
    for field in FIELDS:
        assert getattr(vals, field) == vector[field], (variant, field)


@given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
@settings(max_examples=60, deadline=None)
def test_reader_begin_matches_oracle_original(id_, ids, k1, k2, n1, n2):
    vals = session_values(Variant.ORIGINAL, ids, k1, k2, id_, n1, n2)
    ref = oracles.gossamer_session("original", id_, ids, k1, k2, n1, n2)
    for field in FIELDS:
        assert getattr(vals, field) == ref[ORACLE_KEY.get(field, field)], field


@given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
@settings(max_examples=60, deadline=None)
def test_reader_begin_matches_oracle_modified(id_, ids, k1, k2, n1, n2):
    vals = session_values(Variant.MODIFIED, ids, k1, k2, id_, n1, n2)
    ref = oracles.gossamer_session("modified", id_, ids, k1, k2, n1, n2)
    for field in FIELDS:
        assert getattr(vals, field) == ref[ORACLE_KEY.get(field, field)], field


def test_all_zero_original_closed_form():
    # every rotation amount and additive nonce is exactly zero
    vals = session_values(Variant.ORIGINAL, 0, 0, 0, 0, 0, 0)
    assert vals.k1_star == PI and vals.k2_star == PI
    assert vals.a == PI and vals.b == PI
    assert vals.c == 3 * PI & MASK
    assert vals.d == 2 * PI & MASK
    assert vals.ids_next == 2 * PI & MASK
    assert vals.n3 == 0 and vals.n1p == 0 and vals.n2p == 0


def test_all_zero_modified_diverges():
    vals = session_values(Variant.MODIFIED, 0, 0, 0, 0, 0, 0)
    assert vals.n3 == mixbits_modified(0, 0) != 0
    assert vals.c != 3 * PI & MASK


@pytest.mark.parametrize("variant", list(Variant))
@given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
@example(id_=0, ids=0, k1=0, k2=0, n1=0, n2=0)
@settings(max_examples=60, deadline=None)
def test_id_from_d_inverts_d(variant, id_, ids, k1, k2, n1, n2):
    vals = session_values(variant, ids, k1, k2, id_, n1, n2)
    assert gossamer.id_from_d(variant, vals, vals.d) == id_


@pytest.mark.parametrize("variant", list(Variant))
@given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
@settings(max_examples=40, deadline=None)
def test_round_trip_and_matching_updates(variant, id_, ids, k1, k2, n1, n2):
    tag = TagState(id_, ids, k1, k2, ids, k1, k2)
    a, b, c, pending = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
    d = gossamer.tag_respond(tag, a, b, c, variant)
    assert d is not None
    assert reader_finish(pending, d)
    assert (tag.ids, tag.k1, tag.k2) == (pending.ids_next, pending.k1_next, pending.k2_next)
    assert (tag.ids_old, tag.k1_old, tag.k2_old) == (ids, k1, k2)


def test_all_zero_round_trip_original():
    tag = fresh_tag(0, 0, 0, 0)
    a, b, c, pending = gossamer.reader_begin(0, 0, 0, 0, 0, 0, Variant.ORIGINAL)
    d = gossamer.tag_respond(tag, a, b, c, Variant.ORIGINAL)
    assert d == 2 * PI & MASK
    assert reader_finish(pending, d)


@pytest.mark.parametrize("variant", list(Variant))
def test_single_bit_corruption_of_c_rejects(variant):
    rng = random.Random(5)
    for _ in range(40):
        id_, ids, k1, k2, n1, n2 = (rng.getrandbits(96) for _ in range(6))
        tag = TagState(id_, ids, k1, k2, ids, k1, k2)
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
        before = (tag.ids, tag.k1, tag.k2)
        flipped = c ^ (1 << rng.randrange(96))
        assert gossamer.tag_respond(tag, a, b, flipped, variant) is None
        assert (tag.ids, tag.k1, tag.k2) == before


@pytest.mark.parametrize("variant", list(Variant))
def test_corrupted_a_or_b_rejects(variant):
    rng = random.Random(6)
    for _ in range(20):
        id_, ids, k1, k2, n1, n2 = (rng.getrandbits(96) for _ in range(6))
        tag = TagState(id_, ids, k1, k2, ids, k1, k2)
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
        assert gossamer.tag_respond(tag, a ^ 2, b, c, variant) is None
        assert gossamer.tag_respond(tag, a, b ^ 2, c, variant) is None


def test_wrong_tuple_rejects():
    tag = fresh_tag()
    a, b, c, _ = gossamer.reader_begin(IDS, K1 ^ 5, K2, ID, N1, N2, Variant.ORIGINAL)
    assert gossamer.tag_respond(tag, a, b, c, Variant.ORIGINAL) is None


def test_announce_first_then_retry_old():
    tag = fresh_tag()
    assert tag_announce(tag) == IDS
    a, b, c, _ = gossamer.reader_begin(IDS, K1, K2, ID, N1, N2, Variant.ORIGINAL)
    assert gossamer.tag_respond(tag, a, b, c, Variant.ORIGINAL) is not None
    fresh_ids = tag_announce(tag)
    assert fresh_ids != IDS  # a fresh pseudonym is backscattered
    assert tag_announce(tag, retry=True) == IDS


@pytest.mark.parametrize("variant", list(Variant))
def test_session_on_old_tuple_after_retry(variant):
    tag = fresh_tag()
    a, b, c, _ = gossamer.reader_begin(IDS, K1, K2, ID, N1, N2, variant)
    assert gossamer.tag_respond(tag, a, b, c, variant) is not None
    # reader never learned the update; it challenges the old tuple again
    tag_announce(tag, retry=True)
    a, b, c, pending = gossamer.reader_begin(IDS, K1, K2, ID, N2, N1, variant)
    d = gossamer.tag_respond(tag, a, b, c, variant)
    assert d is not None and reader_finish(pending, d)
    assert (tag.ids_old, tag.k1_old, tag.k2_old) == (IDS, K1, K2)
    assert (tag.ids, tag.k1, tag.k2) == (pending.ids_next, pending.k1_next, pending.k2_next)


def test_modified_search_recovers_true_nonces():
    # tag_respond's D implies its search landed on the generated nonce pair
    tag = fresh_tag()
    a, b, c, pending = gossamer.reader_begin(IDS, K1, K2, ID, N1, N2, Variant.MODIFIED)
    d = gossamer.tag_respond(tag, a, b, c, Variant.MODIFIED)
    assert d == pending.d


def reference_search(variant, ids, k1, k2, id_, a, b, c):
    """The tag's answer to A||B||C written plainly from tests/oracles.py:
    (D, staged (IDS+, K1+, K2+)) of the one candidate that rebuilds C, or
    None when zero or several do.

    Original: one peel with outer amounts K1 and K2.  Modified: the 96
    residues r of n2 as A's outer amount, n1 as B's, and n2 = r (mod 96).
    Every residue survivor rebuilds the received A and B, which is why the
    tag need not rebuild them.
    """
    mod, bits = oracles.MOD, oracles.BITS
    original = variant is Variant.ORIGINAL
    found = []
    for r_a in [k1] if original else range(bits):
        n1 = (oracles.rot_left((oracles.rot_left(a, -r_a) - k1) % mod, -k2)
              - ids - k1 - oracles.PI) % mod
        n2 = (oracles.rot_left((oracles.rot_left(b, -(k2 if original else n1)) - k2) % mod,
                               -k1)
              - ids - k2 - oracles.PI) % mod
        if not original and n2 % bits != r_a:
            continue
        ref = oracles.gossamer_session(variant.value, id_, ids, k1, k2, n1, n2)
        assert (ref["a"], ref["b"]) == (a, b), (r_a, n1, n2)
        if ref["c"] == c:
            found.append((ref["d"], (ref["ids_next"], ref["k1_next"], ref["k2_next"])))
    return found[0] if len(found) == 1 else None


# zero or a multiple of 96: the hoisted rotation amount K mod 96 is 0
zero_mod_96 = st.one_of(st.just(0), words.map(lambda x: x - x % 96))


@pytest.mark.parametrize("variant", list(Variant))
class TestSearchAgainstReference:
    """``accept_<variant>``, the tag's answer, is the plain reference's:
    one peel for the original tag, the 96-residue loop for the modified."""

    @staticmethod
    def check(variant, ids, k1, k2, id_, a, b, c):
        accept = getattr(gossamer, f"accept_{variant.value}")
        assert (accept(ids, k1, k2, id_, a, b, c)
                == reference_search(variant, ids, k1, k2, id_, a, b, c))

    @given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
    @settings(max_examples=40, deadline=None)
    def test_genuine_messages(self, variant, id_, ids, k1, k2, n1, n2):
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
        self.check(variant, ids, k1, k2, id_, a, b, c)

    @given(id_=words, ids=words, k1=words, k2=words, a=words, b=words, c=words)
    @settings(max_examples=40, deadline=None)
    def test_random_messages(self, variant, id_, ids, k1, k2, a, b, c):
        self.check(variant, ids, k1, k2, id_, a, b, c)

    @given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words,
           bit=st.integers(min_value=0, max_value=95))
    @settings(max_examples=40, deadline=None)
    def test_genuine_a_b_with_flipped_c(self, variant, id_, ids, k1, k2, n1, n2, bit):
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
        self.check(variant, ids, k1, k2, id_, a, b, c ^ 1 << bit)

    @given(id_=words, ids=words, k1=zero_mod_96, k2=zero_mod_96, n1=words, n2=words,
           flip=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_keys_zero_mod_96(self, variant, id_, ids, k1, k2, n1, n2, flip):
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
        self.check(variant, ids, k1, k2, id_, a, b, c ^ flip)

    def test_genuine_messages_are_found(self, variant):
        a, b, c, pending = gossamer.reader_begin(IDS, K1, K2, ID, N1, N2, variant)
        accept = getattr(gossamer, f"accept_{variant.value}")
        assert accept(IDS, K1, K2, ID, a, b, c) == (
            pending.d, (pending.ids_next, pending.k1_next, pending.k2_next))


def test_several_survivors_reproducing_c_reject(monkeypatch):
    # every residue survivor made to rebuild the received C, by checking it
    # against its own C: one is accepted, several are not
    real = gossamer.derive_auth
    rng = random.Random(7)
    outcomes = {}
    while len(outcomes) < 2:
        id_, ids, k1, k2, n1, n2 = (rng.getrandbits(96) for _ in range(6))
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, Variant.MODIFIED)
        survivors = []

        def always_c(ids, k1, k2, id_, n1, n2, c):
            own_c = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, Variant.MODIFIED)[2]
            answer = real(ids, k1, k2, id_, n1, n2, own_c)
            survivors.append(answer)
            return answer

        monkeypatch.setattr(gossamer, "derive_auth", always_c)
        found = gossamer.accept_modified(ids, k1, k2, id_, a, b, c)
        monkeypatch.setattr(gossamer, "derive_auth", real)
        outcomes[min(len(survivors), 2)] = (found, survivors)
    found, (only,) = outcomes[1]
    assert found is only
    found, survivors = outcomes[2]
    assert found is None and len(survivors) >= 2


def scalar_survivors(ids, k1, k2, a, b):
    """The modified search's (n1, n2) residue survivors in ascending r, by
    the plain 96-residue loop over tests/oracles.py rotations."""
    mod, bits = oracles.MOD, oracles.BITS
    found = []
    for r in range(bits):
        n1 = (oracles.rot_left((oracles.rot_left(a, -r) - k1) % mod, -k2)
              - ids - k1 - oracles.PI) % mod
        n2 = (oracles.rot_left((oracles.rot_left(b, -n1) - k2) % mod, -k1)
              - ids - k2 - oracles.PI) % mod
        if n2 % bits == r:
            found.append((n1, n2))
    return found


class TestSurvivorsInOrder:
    """Every candidate the modified search hands to derive_auth, in order,
    is the scalar loop's."""

    @staticmethod
    def candidates(ids, k1, k2, id_, a, b, c):
        seen = []
        real = gossamer.derive_auth

        def recording(ids, k1, k2, id_, n1, n2, c):
            seen.append((n1, n2))
            return real(ids, k1, k2, id_, n1, n2, c)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gossamer, "derive_auth", recording)
            gossamer.accept_modified(ids, k1, k2, id_, a, b, c)
        return seen

    @given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
    @settings(max_examples=30, deadline=None)
    def test_genuine_messages(self, id_, ids, k1, k2, n1, n2):
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, Variant.MODIFIED)
        assert (self.candidates(ids, k1, k2, id_, a, b, c)
                == scalar_survivors(ids, k1, k2, a, b))

    @given(ids=lane_words, k1=lane_words | zero_mod_96, k2=lane_words | zero_mod_96,
           a=lane_words, b=lane_words)
    @settings(max_examples=60, deadline=None)
    @example(ids=MASK, k1=MASK, k2=MASK, a=0, b=MASK)
    @example(ids=0, k1=0, k2=0, a=0, b=0)
    def test_random_messages(self, ids, k1, k2, a, b):
        assert (self.candidates(ids, k1, k2, 0, a, b, 0)
                == scalar_survivors(ids, k1, k2, a, b))


def scalar_chain(n1, n2):
    """(n1, n2, n3, n1', n2') by the scalar MixBits, as the original tag's
    phase chains it."""
    n3 = mixbits_original(n1, n2)
    n1p = mixbits_original(n3, n2)
    return n1, n2, n3, n1p, mixbits_original(n1p, n3)


def oracle_chain(n1, n2):
    n3 = oracles.mixbits_shift(n1, n2)
    n1p = oracles.mixbits_shift(n3, n2)
    return n1, n2, n3, n1p, oracles.mixbits_shift(n1p, n3)


class TestMixBitsChains:
    @given(pairs=st.lists(st.tuples(lane_words, lane_words), max_size=5))
    @settings(max_examples=100)
    @example(pairs=[(0, 0), (0, 0)])
    def test_chains_and_table_match_the_oracle(self, pairs):
        n1s, n2s = [x for x, _ in pairs], [y for _, y in pairs]
        chains = gossamer.mixbits_chains(n1s, n2s)
        table = gossamer.mixbits_table(chains)
        assert [chain[:2] for chain in chains] == pairs
        for n1, n2, n3, n1p, n2p in chains:
            assert n3 == oracles.mixbits_shift(n1, n2)
            assert n1p == oracles.mixbits_shift(n3, n2)
            assert n2p == oracles.mixbits_shift(n1p, n3)
            assert (table[n1, n2], table[n3, n2], table[n1p, n3]) == (n3, n1p, n2p)
        assert all(value == oracles.mixbits_shift(*key) for key, value in table.items())

    @pytest.mark.parametrize("lanes", [0, 1, 255, 256, 257])
    def test_lane_counts_match_scalar_and_oracle(self, lanes):
        rng = random.Random(lanes)
        n1s = [rng.choice(LANE_WORDS) if rng.random() < 0.2 else rng.getrandbits(96)
               for _ in range(lanes)]
        n2s = [rng.getrandbits(96) for _ in range(lanes)]
        chains = gossamer.mixbits_chains(n1s, n2s)
        assert chains == [scalar_chain(*pair) for pair in zip(n1s, n2s)]
        assert chains == [oracle_chain(*pair) for pair in zip(n1s, n2s)]

    def test_every_three_lanes_of_edge_words(self):
        # each lane's n3 and n1' feed the next pass, so an edge word leaking
        # into a neighbour in one pass would surface in a later one
        for n1s in product(LANE_WORDS, repeat=3):
            for n2s in (n1s, n1s[::-1], (MASK, 0, 1 << 95)):
                chains = gossamer.mixbits_chains(list(n1s), list(n2s))
                assert chains == [scalar_chain(*pair) for pair in zip(n1s, n2s)]
                assert chains == [oracle_chain(*pair) for pair in zip(n1s, n2s)]


@given(k1=words, k2=words, n1=words, n2=words)
@example(k1=0, k2=0, n1=0, n2=0)
@settings(max_examples=60, deadline=None)
def test_derive_keys_matches_oracle(k1, k2, n1, n2):
    ref = oracles.gossamer_session("original", 0, 0, k1, k2, n1, n2)
    assert gossamer.derive_keys(k1, k2, n1, n2, ref["n3"], ref["n1p"]) == (
        ref["k1s"], ref["k2s"], ref["c"])


def test_rendered_phases_are_the_table_rendered():
    # the code between the markers, byte for byte, is what render() makes of
    # EQUATIONS: a hand edit of it, or a table edit not re-rendered, fails
    text = Path(gossamer.__file__).read_bytes().decode("utf-8")
    start = text.index(gossamer.BEGIN) + len(gossamer.BEGIN)
    assert text[start:text.index(gossamer.END, start)] == gossamer.render()


# Words at a rotation's edges: amounts of 0, 1 and 95 (mod 96), the words 0
# and MASK, and any word; keys are often zero, as the zero-key attack forces.
edge_words = (st.sampled_from((0, MASK))
              | st.builds(lambda q, r: 96 * q + r, st.integers(0, (MASK - 95) // 96),
                          st.sampled_from((0, 1, 95)))
              | words)
edge_keys = st.just(0) | edge_words


@pytest.mark.parametrize("variant", list(Variant))
@given(id_=edge_words, ids=edge_words, k1=edge_keys, k2=edge_keys, n1=edge_words,
       n2=edge_words)
@example(id_=0, ids=0, k1=0, k2=0, n1=0, n2=0)
@example(id_=MASK, ids=MASK, k1=MASK, k2=MASK, n1=MASK, n2=MASK)
@settings(max_examples=150, deadline=None)
def test_every_rendered_phase_matches_oracle(variant, id_, ids, k1, k2, n1, n2):
    ref = oracles.gossamer_session(variant.value, id_, ids, k1, k2, n1, n2)
    want = {field: ref[ORACLE_KEY.get(field, field)] for field in FIELDS}
    a, b, c, pending = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
    assert (a, b, c) == (want["a"], want["b"], want["c"])
    assert {field: getattr(pending, field) for field in FIELDS} == want
    assert (pending.n1, pending.n2) == (n1, n2)

    # every other phase on the one column it is rendered from
    if variant is Variant.MODIFIED:
        assert gossamer.derive_auth(ids, k1, k2, id_, n1, n2, c) == (
            want["d"], (want["ids_next"], want["k1_next"], want["k2_next"]))
        assert gossamer.derive_auth(ids, k1, k2, id_, n1, n2, c ^ 1) is None
    else:
        assert gossamer.derive_keys(k1, k2, n1, n2, want["n3"], want["n1p"]) == (
            want["k1_star"], want["k2_star"], want["c"])
        assert gossamer.next_ids(ids, want["n3"], want["n1p"], want["n2p"],
                                 want["k1_star"], want["k2_star"]) == want["ids_next"]


def oracle_peel(ids, k1, k2, a, b):
    """The original tag's (n1, n2), A and B unwound through tests/oracles.py."""
    mod, rot = oracles.MOD, oracles.rot_left
    n1 = (rot((rot(a, -k1) - k1) % mod, -k2) - ids - k1 - oracles.PI) % mod
    n2 = (rot((rot(b, -k2) - k2) % mod, -k1) - ids - k2 - oracles.PI) % mod
    return n1, n2


class TestOriginalTagPhase:
    """``accept_original``, the original tag's one phase."""

    @given(id_=edge_words, ids=edge_words, k1=edge_keys, k2=edge_keys, n1=edge_words,
           n2=edge_words)
    @example(id_=0, ids=0, k1=0, k2=0, n1=0, n2=0)
    @example(id_=MASK, ids=MASK, k1=MASK, k2=MASK, n1=MASK, n2=MASK)
    @settings(max_examples=150, deadline=None)
    def test_genuine_messages_give_the_oracle_d_and_update(self, id_, ids, k1, k2, n1, n2):
        ref = oracles.gossamer_session("original", id_, ids, k1, k2, n1, n2)
        a, b, c = ref["a"], ref["b"], ref["c"]
        assert gossamer.accept_original(ids, k1, k2, id_, a, b, c) == (
            ref["d"], (ref["ids_next"], ref["k1_next"], ref["k2_next"]))

    @given(id_=edge_words, ids=edge_words, k1=edge_keys, k2=edge_keys, n1=edge_words,
           n2=edge_words, word=st.sampled_from("abc"), bit=st.integers(0, 95))
    @example(id_=0, ids=0, k1=0, k2=0, n1=0, n2=0, word="c", bit=0)
    @settings(max_examples=150, deadline=None)
    def test_a_flipped_bit_is_rejected_and_the_tag_kept(self, id_, ids, k1, k2, n1, n2,
                                                         word, bit):
        ref = oracles.gossamer_session("original", id_, ids, k1, k2, n1, n2)
        messages = {key: ref[key] for key in "abc"}
        messages[word] ^= 1 << bit
        assert gossamer.accept_original(ids, k1, k2, id_, *messages.values()) is None
        tag = fresh_tag(id_, ids, k1, k2)
        before = TagState(**vars(tag))
        assert gossamer.tag_respond(tag, *messages.values(), Variant.ORIGINAL) is None
        assert tag == before

    @given(id_=edge_words, ids=edge_words, k1=edge_keys, k2=edge_keys, a=edge_words,
           b=edge_words, c=st.none() | edge_words)
    @example(id_=0, ids=0, k1=0, k2=0, a=0, b=0, c=None)
    @settings(max_examples=150, deadline=None)
    def test_random_messages_accepted_exactly_when_the_reference_finds_them(
            self, id_, ids, k1, k2, a, b, c):
        # c None: the C that the nonces peeled from this A and B rebuild
        n1, n2 = oracle_peel(ids, k1, k2, a, b)
        if c is None:
            c = oracles.gossamer_session("original", id_, ids, k1, k2, n1, n2)["c"]
        assert gossamer.accept_original(ids, k1, k2, id_, a, b, c) == reference_search(
            Variant.ORIGINAL, ids, k1, k2, id_, a, b, c)


@given(id_=edge_words, ids=edge_words, k1=edge_keys, k2=edge_keys, n1=edge_words,
       n2=edge_words, bit=st.integers(0, 95))
@example(id_=0, ids=0, k1=0, k2=0, n1=0, n2=0, bit=0)
@settings(max_examples=150, deadline=None)
def test_modified_tag_rejects_a_flipped_bit_of_c_and_keeps_its_state(id_, ids, k1, k2, n1,
                                                                      n2, bit):
    ref = oracles.gossamer_session("modified", id_, ids, k1, k2, n1, n2)
    a, b, c = ref["a"], ref["b"], ref["c"] ^ 1 << bit
    assert gossamer.accept_modified(ids, k1, k2, id_, a, b, c) is None
    tag = fresh_tag(id_, ids, k1, k2)
    before = TagState(**vars(tag))
    assert gossamer.tag_respond(tag, a, b, c, Variant.MODIFIED) is None
    assert tag == before


@pytest.mark.parametrize("flip", [0, 1])
@pytest.mark.parametrize("variant", list(Variant))
def test_mixbits_calls_accepted_3_rejected_2(monkeypatch, variant, flip):
    # a candidate rejected at C has made 2 MixBits calls and the accepted one
    # 3: the original tag has one candidate, the modified tag one per
    # derive_auth call
    name = f"mixbits_{variant.value}"
    real_mix, real_auth = getattr(gossamer, name), gossamer.derive_auth
    calls, candidates = [], []

    def counted(x, y):
        calls.append((x, y))
        return real_mix(x, y)

    def recording(*args):
        candidates.append(args)
        return real_auth(*args)

    a, b, c, _ = gossamer.reader_begin(IDS, K1, K2, ID, N1, N2, variant)
    monkeypatch.setattr(gossamer, name, counted)
    monkeypatch.setattr(gossamer, "derive_auth", recording)
    d = gossamer.tag_respond(fresh_tag(), a, b, c ^ flip, variant)
    assert (d is None) == bool(flip)
    searched = len(candidates) if variant is Variant.MODIFIED else 1
    assert searched >= 1
    assert len(calls) == 2 * searched + (not flip)


@pytest.mark.parametrize("variant,forbidden", [
    (Variant.ORIGINAL, ("SessionValues", "accept_modified", "derive_auth")),
    (Variant.MODIFIED, ("SessionValues", "accept_original")),
], ids=["original", "modified"])
def test_tag_respond_builds_no_session_values(monkeypatch, variant, forbidden):
    # each tag answers through its own phase with plain words: no
    # SessionValues is built and the other tag's phase never runs
    def forbidden_call(*args):
        raise AssertionError("called")

    a, b, c, pending = gossamer.reader_begin(IDS, K1, K2, ID, N1, N2, variant)
    for name in forbidden:
        monkeypatch.setattr(gossamer, name, forbidden_call)
    tag = fresh_tag()
    assert gossamer.tag_respond(tag, a, b, c, variant) == pending.d
    assert (tag.ids, tag.k1, tag.k2) == (pending.ids_next, pending.k1_next, pending.k2_next)


def test_re_rendering_leaves_the_module_whole_when_render_raises(tmp_path):
    # a PEELS entry naming a missing row makes render() raise KeyError; the
    # module is written only after its new text is built, so it is untouched
    shutil.copytree(Path(gossamer.__file__).parent, tmp_path / "tagauth",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "tagauth" / "gossamer.py"
    text = module.read_bytes()
    broken = text.replace(b'PEELS = {"n1": "a",', b'PEELS = {"n1": "missing",', 1)
    assert broken != text
    module.write_bytes(broken)
    run = subprocess.run([sys.executable, "-m", "tagauth.gossamer"], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(tmp_path)},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode != 0 and "KeyError" in run.stderr
    assert module.read_bytes() == broken
