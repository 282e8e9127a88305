"""Fixed-seed sweeps of the fast paths against plain references.

Each sweep takes its number of cases and raises AssertionError, naming the
first case that differs, or returns one summary line.  The tier-1 suite
runs each at a few hundred cases (``test_sweeps.py``); CI runs each at
20,000 on one Python, since the code they check is the same big-int code
on every version:

    PYTHONPATH=src:tests python tests/sweeps.py modified-search 20000

The seeds are fixed, so a case number names the same inputs at any count.
"""

import json
import random
import sys

import oracles
from tagauth import gossamer, sasi, word96
from tagauth.gossamer import Variant
from tagauth.simulator import (Forcing, KeyMode, NonceMode, NonceStream, Protocol,
                               ground_truth_from_dict, ground_truth_line, provision,
                               run_session, scored_truth_from_line)
from tagauth.store import Store

MOD, BITS, PI = oracles.MOD, oracles.BITS, oracles.PI


def _mix(case: int, k1: int, k2: int, n1: int, n2: int) -> tuple[int, int, int, int]:
    """The keys and the nonces of ``case``, each pair random, exactly zero or
    multiples of 96: nine mixes, in turn."""
    keys, nonces = divmod(case % 9, 3)
    k1, k2 = ((k1, k2), (0, 0), (k1 - k1 % 96, k2 - k2 % 96))[keys]
    n1, n2 = ((n1, n2), (0, 0), (n1 - n1 % 96, n2 - n2 % 96))[nonces]
    return k1, k2, n1, n2


def _peels(x: int, k: int, q: int, c: int) -> list[int]:
    """The word peeled from ``x`` for each of the 96 outer amounts t: rotr(rotr(x,
    t) - k, q) - c."""
    return [(oracles.rot_left((oracles.rot_left(x, -t) - k) % MOD, -q) - c) % MOD
            for t in range(BITS)]


def modified_search(cases: int) -> str:
    """A third each of genuine modified sessions, random A, B and C, and
    genuine sessions whose keys are multiples of 96: every lane of
    ``word96.peel_rotations``, every candidate ``accept_modified`` hands to
    ``derive_auth`` (in order) and its answer, D and the staged tuple of the
    one candidate that rebuilds C or None, against the plain 96-residue loop
    over tests/oracles.py."""
    seen = []
    real = gossamer.derive_auth

    def recording(ids, k1, k2, id_, n1, n2, c):
        seen.append((n1, n2))
        return real(ids, k1, k2, id_, n1, n2, c)

    gossamer.derive_auth = recording
    try:
        rng = random.Random(20240)
        for case in range(cases):
            id_, ids, k1, k2, n1, n2, a, b, c = (rng.getrandbits(96) for _ in range(9))
            kind = case % 3
            if kind == 2:
                k1, k2 = k1 - k1 % 96, k2 - k2 % 96
            if kind != 1:
                a, b, c, *_ = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, Variant.MODIFIED)
            c1, c2 = ids + k1 + PI, ids + k2 + PI
            n1s, n2s = _peels(a, k1, k2, c1), _peels(b, k2, k1, c2)
            for (residues, lanes), expected in ((word96.peel_rotations(a, k1, k2, c1), n1s),
                                                (word96.peel_rotations(b, k2, k1, c2), n2s)):
                if ([word96.lane_word(lanes, t) for t in range(BITS)] != expected
                        or list(residues) != [v % BITS for v in expected]):
                    raise AssertionError(f"case {case}: lanes differ")
            survivors = [(n1s[r], n2s[n1s[r] % BITS]) for r in range(BITS)
                         if n2s[n1s[r] % BITS] % BITS == r]
            accepted = [ref for ref in (oracles.gossamer_session("modified", id_, ids, k1, k2,
                                                                 *pair) for pair in survivors)
                        if ref["c"] == c]
            seen.clear()
            found = gossamer.accept_modified(ids, k1, k2, id_, a, b, c)
            if seen != survivors:
                raise AssertionError(f"case {case}: survivors {seen} != {survivors}")
            if found != (None if len(accepted) != 1 else (
                    accepted[0]["d"],
                    (accepted[0]["ids_next"], accepted[0]["k1_next"], accepted[0]["k2_next"]))):
                raise AssertionError(f"case {case}: answer differs")
            if kind == 0 and found is None:
                raise AssertionError(f"case {case}: a genuine session was rejected")
    finally:
        gossamer.derive_auth = real
    return f"{cases} cases: every lane, survivor and answer matches"


def gossamer_phases(cases: int) -> str:
    """Each case on both variants, in the nine key and nonce mixes: every
    phase on the variant it is rendered for, against tests/oracles.py.  On
    both variants every word ``reader_begin`` returns; on the modified
    variant derive_auth's D and staged tuple from the genuine C and its None
    with C xor 1; on the original variant disclose_original's K1*, K2*,
    IDS+ and ID from the genuine C and its None with C xor 1, and
    accept_original's D and staged tuple from the genuine A||B||C and its
    None with C xor 1."""
    rng = random.Random(20241)
    for case in range(cases):
        id_, ids, k1, k2, n1, n2 = (rng.getrandbits(96) for _ in range(6))
        k1, k2, n1, n2 = _mix(case, k1, k2, n1, n2)
        for variant in Variant:
            ref = oracles.gossamer_session(variant.value, id_, ids, k1, k2, n1, n2)
            staged = (ref["ids_next"], ref["k1_next"], ref["k2_next"])
            answer = (ref["d"], staged)
            returned = gossamer.reader_begin(ids, k1, k2, id_, n1, n2, variant)
            a, b, c = returned[:3]
            checks = {"reader_begin": returned == (
                ref["a"], ref["b"], ref["c"], ref["d"], staged,
                (n1, n2, ref["n3"], ref["n1p"], ref["n2p"], ref["k1s"], ref["k2s"]))}
            if variant is Variant.MODIFIED:
                checks["derive_auth"] = (
                    gossamer.derive_auth(ids, k1, k2, id_, n1, n2, c) == answer
                    and gossamer.derive_auth(ids, k1, k2, id_, n1, n2, c ^ 1) is None)
            else:
                session = (ids, k1, k2, n1, n2, ref["n3"], ref["n1p"], ref["n2p"])
                checks["disclose_original"] = (
                    gossamer.disclose_original(*session, c, ref["d"])
                    == (ref["k1s"], ref["k2s"], ref["ids_next"], id_)
                    and gossamer.disclose_original(*session, c ^ 1, ref["d"]) is None)
                checks["accept_original"] = (
                    gossamer.accept_original(ids, k1, k2, id_, a, b, c) == answer
                    and gossamer.accept_original(ids, k1, k2, id_, a, b, c ^ 1) is None)
            failed = [phase for phase, ok in checks.items() if not ok]
            if failed:
                raise AssertionError(f"case {case}, {variant.value}: {failed} differ "
                                     f"from the oracle")
    return f"{cases} cases on both variants: every phase matches the oracle"


def sasi_phases(cases: int) -> str:
    """Each case in the nine key and nonce mixes: every word SASI's
    ``reader_begin`` returns, and ``accept_sasi``'s D and staged tuple from
    the genuine A||B||C and its None with C xor 1, against
    ``oracles.sasi_session``."""
    rng = random.Random(20243)
    for case in range(cases):
        id_, ids, k1, k2, n1, n2 = (rng.getrandbits(96) for _ in range(6))
        k1, k2, n1, n2 = _mix(case, k1, k2, n1, n2)
        ref = oracles.sasi_session(id_, ids, k1, k2, n1, n2)
        staged = (ref["ids_next"], ref["k1s"], ref["k2s"])
        returned = sasi.reader_begin(ids, k1, k2, id_, n1, n2)
        a, b, c = returned[:3]
        checks = {
            "reader_begin": returned == (ref["a"], ref["b"], ref["c"], ref["d"], staged,
                                         (n1, n2, None, None, None, ref["k1s"], ref["k2s"])),
            "accept_sasi": (sasi.accept_sasi(ids, k1, k2, id_, a, b, c) == (ref["d"], staged)
                            and sasi.accept_sasi(ids, k1, k2, id_, a, b, c ^ 1) is None),
        }
        failed = [phase for phase, ok in checks.items() if not ok]
        if failed:
            raise AssertionError(f"case {case}: {failed} differ from the oracle")
    return f"{cases} cases: every SASI phase matches the oracle"


def scored_truth(cases: int) -> str:
    """Ground-truth lines, a third each of the three protocols, under every
    nonce x key forcing, about a fifth with D dropped and a tenth against an
    empty store (lookup_failed, null internals), each also with one
    character replaced at random: the scored words
    ``scored_truth_from_line`` reads from each line, or its error, against
    ``ground_truth_from_dict(json.loads(line))``."""
    def scored(parse, line):
        try:
            t = parse(line)
        except (KeyError, TypeError, ValueError) as exc:
            return type(exc), str(exc)
        return (t.session_index, t.id, t.next_ids, t.n1, t.n2, t.n3, t.n1p, t.n2p,
                t.k1_star, t.k2_star)

    def full(line):
        return ground_truth_from_dict(json.loads(line))

    rng, nonces = random.Random(20242), NonceStream(20242)
    worlds = {protocol: provision(1, protocol, seed=1) for protocol in Protocol}
    noise = "0123456789abcdefABCDEF\"{}[],:-nul \x00\xe9"
    accepted = 0
    for case in range(cases):
        protocol = list(Protocol)[case % 3]
        tags, store = worlds[protocol]
        forcing = Forcing(nonce_mode=list(NonceMode)[case // 3 % 3],
                          key_mode=list(KeyMode)[case // 9 % 3], drop_d=rng.random() < 0.2)
        lookup = Store() if rng.random() < 0.1 else store
        _, truth = run_session(tags["tag-000"], lookup, forcing, nonces, case)
        line = ground_truth_line(truth)
        at = rng.randrange(len(line))
        damaged = line[:at] + rng.choice(noise.replace(line[at], "")) + line[at + 1:]
        for text in (line, damaged):
            got = scored(scored_truth_from_line, text)
            if got != scored(full, text):
                raise AssertionError(f"case {case}: {text!r} reads {got}, "
                                     f"not {scored(full, text)}")
            accepted += type(got[0]) is int
    return (f"{cases} lines and their one-character corruptions: every scored word and "
            f"error matches; {accepted} of {2 * cases} read to a record")


SWEEPS = {"modified-search": modified_search, "gossamer-phases": gossamer_phases,
          "sasi-phases": sasi_phases, "scored-truth": scored_truth}


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in SWEEPS:
        sys.exit(f"usage: python tests/sweeps.py {{{','.join(SWEEPS)}}} CASES")
    try:
        print(SWEEPS[sys.argv[1]](int(sys.argv[2])))
    except AssertionError as exc:
        sys.exit(f"{sys.argv[1]}: {exc}")
