"""SASI state machines: oracle vector, round trips, the zero-key algebra."""

import random

from hypothesis import given, settings

import oracles
from conftest import words
from tagauth import sasi
from tagauth.tagstate import NEXT, OLD, SessionValues, TagState, reader_finish, tag_announce
from tagauth.word96 import MASK, sub

ID = 0x00112233445566778899AABB
IDS = 0x0F1E2D3C4B5A69788796A5B4
K1 = 0xFEDCBA987654321001234567
K2 = 0xDEADBEEFCAFEBABE00C0FFEE
N1 = 0x0123456789ABCDEF01234567
N2 = 0x76543210FEDCBA9876543210

# frozen from tests/oracles.py on the inputs above
VECTOR = {
    "a": 0xF0E1D2C3B4A596878796A5B4,
    "b": 0x5613F210CADBB696FE2B320E,
    "c": 0x3DF2F58C27B144797B3C99DC,
    "d": 0x399026DBCE1912E4FC80005D,
    "k1_next": 0x444444444444443BBBBBBBC4,
    "k2_next": 0x5DD44078EEA277E3BEE210D5,
    "ids_next": 0x3D3F393B35373153DDDFD9BB,
}


def fresh_tag(id_=ID, ids=IDS, k1=K1, k2=K2):
    return TagState(id_, ids, k1, k2, ids, k1, k2)


def test_session_values_match_frozen_oracle():
    vals = sasi.session_values(IDS, K1, K2, ID, N1, N2)
    for field, expected in VECTOR.items():
        assert getattr(vals, field) == expected, field
    assert isinstance(vals, SessionValues)
    assert vals.n3 is None and vals.n1p is None and vals.n2p is None
    assert (vals.k1_star, vals.k2_star) == (vals.k1_next, vals.k2_next)


@given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
@settings(max_examples=100, deadline=None)
def test_session_values_match_oracle(id_, ids, k1, k2, n1, n2):
    vals = sasi.session_values(ids, k1, k2, id_, n1, n2)
    ref = oracles.sasi_session(id_, ids, k1, k2, n1, n2)
    assert (vals.a, vals.b, vals.c, vals.d) == (ref["a"], ref["b"], ref["c"], ref["d"])
    assert (vals.k1_next, vals.k2_next, vals.ids_next) == (
        ref["k1s"], ref["k2s"], ref["ids_next"])


@given(id_=words, ids=words, k1=words, k2=words, n1=words, n2=words)
@settings(max_examples=100, deadline=None)
def test_round_trip_and_matching_updates(id_, ids, k1, k2, n1, n2):
    tag = TagState(id_, ids, k1, k2, ids, k1, k2)
    a, b, c, pending = sasi.reader_begin(ids, k1, k2, id_, n1, n2)
    d = sasi.tag_respond(tag, a, b, c)
    assert d is not None
    assert reader_finish(pending, d)
    # both sides stage the same next tuple; tag has already committed
    assert (tag.ids, tag.k1, tag.k2) == (pending.ids_next, pending.k1_next, pending.k2_next)
    assert (tag.ids_old, tag.k1_old, tag.k2_old) == (ids, k1, k2)


def test_zero_keys_force_session_keys_to_nonces():
    # with K1 = K2 = 0: K1' = Rot(n2, 0) = n2, K2' = n1, C = n2 + n1
    vals = sasi.session_values(IDS, 0, 0, ID, N1, N2)
    assert vals.k1_next == N2
    assert vals.k2_next == N1
    assert vals.c == (N2 + N1) & MASK


def test_zero_k1_makes_pseudonym_step_equal_id():
    rng = random.Random(20)
    for _ in range(50):
        id_, ids, k2, n1, n2 = (rng.getrandbits(96) for _ in range(5))
        vals = sasi.session_values(ids, 0, k2, id_, n1, n2)
        assert sub(vals.ids_next, ids) == id_


def test_all_zero_state_produces_all_zero_session():
    vals = sasi.session_values(0, 0, 0, 0, 0, 0)
    assert (vals.a, vals.b, vals.c, vals.d, vals.ids_next) == (0, 0, 0, 0, 0)
    tag = fresh_tag(0, 0, 0, 0)
    assert sasi.tag_respond(tag, 0, 0, 0) == 0


def test_tampered_c_is_rejected_and_state_untouched():
    tag = fresh_tag()
    a, b, c, _ = sasi.reader_begin(IDS, K1, K2, ID, N1, N2)
    before = (tag.ids, tag.k1, tag.k2, tag.ids_old, tag.k1_old, tag.k2_old)
    assert sasi.tag_respond(tag, a, b, c ^ (1 << 17)) is None
    assert (tag.ids, tag.k1, tag.k2, tag.ids_old, tag.k1_old, tag.k2_old) == before


def test_wrong_keys_are_rejected():
    tag = fresh_tag()
    a, b, c, _ = sasi.reader_begin(IDS, K1 ^ 1, K2, ID, N1, N2)
    assert sasi.tag_respond(tag, a, b, c) is None


def test_wrong_d_fails_reader_verification():
    _, _, _, pending = sasi.reader_begin(IDS, K1, K2, ID, N1, N2)
    assert not reader_finish(pending, pending.d ^ 1)


def test_announce_tracks_tuple_and_retry_uses_old():
    tag = fresh_tag()
    a, b, c, _ = sasi.reader_begin(IDS, K1, K2, ID, N1, N2)
    assert sasi.tag_respond(tag, a, b, c) is not None
    assert tag_announce(tag) == tag.ids
    assert tag.last_announced == NEXT
    assert tag_announce(tag, retry=True) == IDS  # pre-session tuple kept as old
    assert tag.last_announced == OLD


def test_session_on_old_tuple_after_retry():
    tag = fresh_tag()
    a, b, c, _ = sasi.reader_begin(IDS, K1, K2, ID, N1, N2)
    assert sasi.tag_respond(tag, a, b, c) is not None
    # reader never learned the update; it challenges the old tuple again
    tag_announce(tag, retry=True)
    a, b, c, pending = sasi.reader_begin(IDS, K1, K2, ID, N2, N1)
    d = sasi.tag_respond(tag, a, b, c)
    assert d is not None and reader_finish(pending, d)
    assert (tag.ids_old, tag.k1_old, tag.k2_old) == (IDS, K1, K2)
