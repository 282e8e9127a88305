"""Gossamer engine: closed forms, oracle vectors, round trips, the search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import words
from tagauth import gossamer
from tagauth.gossamer import Variant
from tagauth.tagstate import TagState, reader_finish, tag_announce
from tagauth.word96 import MASK, PI, mixbits_modified

ID = 0x00112233445566778899AABB
IDS = 0x0F1E2D3C4B5A69788796A5B4
K1 = 0xFEDCBA987654321001234567
K2 = 0xDEADBEEFCAFEBABE00C0FFEE
N1 = 0x0123456789ABCDEF01234567
N2 = 0x76543210FEDCBA9876543210

FIELDS = ("n3", "n1p", "n2p", "k1s", "k2s", "a", "b", "c", "d",
          "ids_next", "k1_next", "k2_next")

# frozen from tests/oracles.py on the inputs above
VECTOR_ORIGINAL = {
    "n3": 0xCA452081BBAFF380311A9EAB,
    "n1p": 0xCF79C0D1517FBE8987C4FDA5,
    "n2p": 0x2CE0E580484F76D346899F20,
    "k1s": 0x946EF440B83E73707E73E127,
    "k2s": 0x662BACDC3E723DFC669B94DA,
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
    "k1s": 0x7351220A67B0BBDE2968AAF8,
    "k2s": 0x668EEB7DBEB0B3E23DF450CA,
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
    for field in FIELDS:
        assert getattr(vals, field) == vector[field], (variant, field)


@given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
@settings(max_examples=60, deadline=None)
def test_reader_begin_matches_oracle_original(id_, ids, k1, k2, n1, n2):
    vals = session_values(Variant.ORIGINAL, ids, k1, k2, id_, n1, n2)
    ref = oracles.gossamer_session("original", id_, ids, k1, k2, n1, n2)
    for field in FIELDS:
        assert getattr(vals, field) == ref[field], field


@given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
@settings(max_examples=60, deadline=None)
def test_reader_begin_matches_oracle_modified(id_, ids, k1, k2, n1, n2):
    vals = session_values(Variant.MODIFIED, ids, k1, k2, id_, n1, n2)
    ref = oracles.gossamer_session("modified", id_, ids, k1, k2, n1, n2)
    for field in FIELDS:
        assert getattr(vals, field) == ref[field], field


def test_all_zero_original_closed_form():
    # every rotation amount and additive nonce is exactly zero
    vals = session_values(Variant.ORIGINAL, 0, 0, 0, 0, 0, 0)
    assert vals.k1s == PI and vals.k2s == PI
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
    """The tag's nonce recovery written plainly from tests/oracles.py.

    Original: one peel with outer amounts K1 and K2.  Modified: the 96
    residues r of n2 as A's outer amount, n1 as B's, and n2 = r (mod 96).
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
        if ref["c"] == c:
            found.append((n1, n2, ref["c"], ref["d"]))
    return found[0] if len(found) == 1 else None


def search(variant, ids, k1, k2, id_, a, b, c):
    vals = gossamer.recover_nonces(variant, ids, k1, k2, id_, a, b, c)
    return None if vals is None else (vals.n1, vals.n2, vals.c, vals.d)


# zero or a multiple of 96: the hoisted rotation amount K mod 96 is 0
zero_mod_96 = st.one_of(st.just(0), words.map(lambda x: x - x % 96))


@pytest.mark.parametrize("variant", list(Variant))
class TestSearchAgainstReference:
    @given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
    @settings(max_examples=40, deadline=None)
    def test_genuine_messages(self, variant, id_, ids, k1, k2, n1, n2):
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
        args = (variant, ids, k1, k2, id_, a, b, c)
        assert search(*args) == reference_search(*args)

    @given(id_=words, ids=words, k1=words, k2=words, a=words, b=words, c=words)
    @settings(max_examples=40, deadline=None)
    def test_random_messages(self, variant, id_, ids, k1, k2, a, b, c):
        args = (variant, ids, k1, k2, id_, a, b, c)
        assert search(*args) == reference_search(*args)

    @given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words,
           bit=st.integers(min_value=0, max_value=95))
    @settings(max_examples=40, deadline=None)
    def test_genuine_a_b_with_flipped_c(self, variant, id_, ids, k1, k2, n1, n2, bit):
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
        args = (variant, ids, k1, k2, id_, a, b, c ^ 1 << bit)
        assert search(*args) == reference_search(*args)

    @given(id_=words, ids=words, k1=zero_mod_96, k2=zero_mod_96, n1=words, n2=words,
           flip=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_keys_zero_mod_96(self, variant, id_, ids, k1, k2, n1, n2, flip):
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
        args = (variant, ids, k1, k2, id_, a, b, c ^ flip)
        assert search(*args) == reference_search(*args)

    def test_genuine_messages_are_found(self, variant):
        a, b, c, pending = gossamer.reader_begin(IDS, K1, K2, ID, N1, N2, variant)
        assert search(variant, IDS, K1, K2, ID, a, b, c) == (N1, N2, pending.c, pending.d)


def test_several_survivors_reproducing_c_reject(monkeypatch):
    # every residue survivor made to rebuild the received C: one is accepted, several are not
    real = gossamer.derive_auth
    rng = random.Random(7)
    outcomes = {}
    while len(outcomes) < 2:
        id_, ids, k1, k2, n1, n2 = (rng.getrandbits(96) for _ in range(6))
        a, b, c, _ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, Variant.MODIFIED)
        survivors = []

        def always_c(*args):
            vals = real(*args)
            vals.c = c
            survivors.append(vals)
            return vals

        monkeypatch.setattr(gossamer, "derive_auth", always_c)
        found = gossamer.recover_nonces(Variant.MODIFIED, ids, k1, k2, id_, a, b, c)
        monkeypatch.setattr(gossamer, "derive_auth", real)
        outcomes[min(len(survivors), 2)] = (found, survivors)
    found, (only,) = outcomes[1]
    assert found is only
    found, survivors = outcomes[2]
    assert found is None and len(survivors) >= 2
