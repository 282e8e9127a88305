"""Fixed-seed sweeps of the fast paths against plain references.

Each sweep takes its number of cases and raises AssertionError, naming the
first case that differs, or returns one summary line.  The tier-1 suite
runs each at a few hundred cases (``test_sweeps.py``); CI runs each at
20,000 on one Python, since the code they check is the same big-int code
on every version:

    PYTHONPATH=src:tests python tests/sweeps.py modified-search 20000

The seeds are fixed, so a case number names the same inputs at any count.
"""

import functools
import json
import random
import sys

import oracles
from tagauth import attacks, gossamer, sasi, word96
from tagauth.gossamer import Variant
from tagauth.simulator import (Forcing, GroundTruth, KeyMode, NonceMode, NonceStream, Protocol,
                               StateSnapshot, Transcript, consecutive_success_pairs,
                               evaluate_attack, ground_truth_from_dict, ground_truth_line,
                               provision, run_session, scored_truth_from_line,
                               transcript_from_dict, transcript_from_line, transcript_line)
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


@functools.cache
def confirm_unforced():
    """The ``confirm_zero_key`` row of ``gossamer.PHASES`` rendered without its
    forcing and block columns, compiled: ``confirm(k1, k2, n1, n2, n3, n1p,
    sent)`` gives (K1*, K2*) of one original-variant session with any keys,
    or None when the rebuilt C differs from the sent C."""
    ((_, variant, targets, tail, *_),) = [row for row in gossamer.PHASES
                                          if row[0].startswith("def confirm_zero_key(")]
    rows = gossamer.PHASES
    gossamer.PHASES = (("def confirm(k1, k2, n1, n2, n3, n1p, sent):", variant, targets, tail),)
    try:
        code = gossamer.render()
    finally:
        gossamer.PHASES = rows
    namespace = dict(vars(gossamer))
    exec(compile(code, "<unforced confirm>", "exec"), namespace)
    return namespace["confirm"]


def modified_search(cases: int) -> str:
    """A third each of genuine modified sessions, random A, B and C, and
    genuine sessions whose keys are multiples of 96: every lane of
    ``word96.peel_rotations``, every candidate ``accept_modified`` hands to
    ``derive_auth`` (in order) and its answer, D and the staged tuple of the
    one candidate that rebuilds C or None, against the plain 96-residue loop
    over tests/oracles.py."""
    seen = []
    real = gossamer.derive_auth

    def recording(ids, k1, k2, id_, n1, n2, c, derived):
        seen.append((n1, n2))
        return real(ids, k1, k2, id_, n1, n2, c, derived)

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
    with C xor 1; on the original variant the K1* and K2* of
    ``confirm_zero_key``'s row rendered unforced (``confirm_unforced``) from
    the genuine C and its None with C xor 1, disclose_original's IDS+
    and ID from them, and accept_original's D and staged tuple from the
    genuine A||B||C and its None with C xor 1."""
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
                confirm = (k1, k2, n1, n2, ref["n3"], ref["n1p"])
                checks["confirm (unforced)"] = (
                    confirm_unforced()(*confirm, c) == (ref["k1s"], ref["k2s"])
                    and confirm_unforced()(*confirm, c ^ 1) is None)
                checks["disclose_original"] = gossamer.disclose_original(
                    ids, ref["k1s"], ref["k2s"], n2, ref["n3"], ref["n1p"], ref["n2p"],
                    ref["d"]) == (ref["ids_next"], id_)
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


def derivation(cases: int) -> str:
    """Each case on all three protocols, in the nine key and nonce mixes: the
    tag's answer (``accept_sasi``, ``accept_original``, ``accept_modified``)
    given a reader's derivation, ``(reader_begin's arguments, C, (D,
    staged))``, against its answer given None, and for the modified tag the
    candidates ``derive_auth`` sees, in order.  The tag answers the genuine
    A||B||C given the reader's own derivation from it (its staged tuple is
    the derivation's object), and then, in turn, A, B or C with one bit
    flipped; its tuple or ID one word off the row; or the genuine A||B||C
    given the derivation of another session (other nonces) or of another
    protocol (the same words) instead."""
    seen = []
    real = gossamer.derive_auth

    def recording(ids, k1, k2, id_, n1, n2, c, derived):
        seen.append((n1, n2))
        return real(ids, k1, k2, id_, n1, n2, c, derived)

    def answer(accept, derived, words, messages):
        """The tag's answer given ``derived``, and the candidates it saw."""
        seen.clear()
        return accept(*words, *messages, derived), list(seen)

    protocols = {"sasi": (sasi.reader_begin, (), sasi.accept_sasi),
                 "original": (gossamer.reader_begin, (Variant.ORIGINAL,),
                              gossamer.accept_original),
                 "modified": (gossamer.reader_begin, (Variant.MODIFIED,),
                              gossamer.accept_modified)}
    names = list(protocols)
    rng = random.Random(20247)
    gossamer.derive_auth = recording
    try:
        for case in range(cases):
            id_, ids, k1, k2, n1, n2, m1, m2 = (rng.getrandbits(96) for _ in range(8))
            k1, k2, n1, n2 = _mix(case, k1, k2, n1, n2)
            words, kind, bit = (ids, k1, k2, id_), case // 9 % 6, rng.randrange(96)
            derivations, sessions = {}, {}
            for name, (begin, extra, _) in protocols.items():
                sessions[name] = begin(*words, n1, n2, *extra)
                a, b, c, d, staged, _ = sessions[name]
                derivations[name] = ((*words, n1, n2, *extra), c, (d, staged))
            for at, (name, (begin, extra, accept)) in enumerate(protocols.items()):
                a, b, c, d, staged, _ = sessions[name]
                got, candidates = answer(accept, derivations[name], words, (a, b, c))
                if got != (d, staged) or got[1] is not staged:
                    raise AssertionError(f"case {case}, {name}: the genuine challenge is not "
                                         f"answered from the derivation")
                if (got, candidates) != answer(accept, None, words, (a, b, c)):
                    raise AssertionError(f"case {case}, {name}: the derivation changes the "
                                         f"answer to the genuine challenge")
                derived, tag, messages = derivations[name], list(words), [a, b, c]
                if kind < 3:
                    messages[kind] ^= 1 << bit
                elif kind == 3:
                    tag[bit % 4] ^= 1 << bit
                elif kind == 4:
                    other = begin(*words, m1, m2, *extra)
                    derived = ((*words, m1, m2, *extra), other[2], (other[3], other[4]))
                else:
                    derived = derivations[names[(at + 1) % 3]]
                if answer(accept, derived, tag, messages) != answer(accept, None, tag, messages):
                    raise AssertionError(f"case {case}, {name}: the derivation changes the "
                                         f"answer in kind {kind}")
    finally:
        gossamer.derive_auth = real
    return (f"{cases} cases on all three protocols: every genuine challenge answered from the "
            f"derivation, and every answer and candidate the same as given None")


def _session_lines(seed: int, cases: int, write):
    """Case by case: ``write(transcript, truth)`` of one session, a third
    each of the three protocols, under every nonce x key forcing, about a
    fifth with D dropped and a tenth against an empty store (lookup_failed:
    null a, b, c and d, null internals); and that line with one character
    replaced at random."""
    rng, nonces = random.Random(seed), NonceStream(seed)
    worlds = {protocol: provision(1, protocol, seed=1) for protocol in Protocol}
    noise = "0123456789abcdefABCDEF\"{}[],:-nul \x00\xe9"
    for case in range(cases):
        protocol = list(Protocol)[case % 3]
        tags, store = worlds[protocol]
        forcing = Forcing(nonce_mode=list(NonceMode)[case // 3 % 3],
                          key_mode=list(KeyMode)[case // 9 % 3], drop_d=rng.random() < 0.2)
        lookup = Store() if rng.random() < 0.1 else store
        line = write(*run_session(tags["tag-000"], lookup, forcing, nonces, case))
        at = rng.randrange(len(line))
        yield case, line, line[:at] + rng.choice(noise.replace(line[at], "")) + line[at + 1:]


def _read(parse, line):
    """What ``parse`` makes of ``line``: its record, or its error's type and text."""
    try:
        return parse(line)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def scored_truth(cases: int) -> str:
    """Ground-truth lines of ``_session_lines``, and their corruptions: the
    scored words ``scored_truth_from_line`` reads from each line, or its
    error, against ``ground_truth_from_dict(json.loads(line))``."""
    def scored(parse, line):
        t = _read(parse, line)
        return t if type(t) is tuple else (
            t.session_index, t.id, t.next_ids, t.n1, t.n2, t.n3, t.n1p, t.n2p, t.k1_star,
            t.k2_star)

    def full(line):
        return ground_truth_from_dict(json.loads(line))

    accepted = 0
    lines = _session_lines(20242, cases, lambda _, truth: ground_truth_line(truth))
    for case, line, damaged in lines:
        for text in (line, damaged):
            got = scored(scored_truth_from_line, text)
            if got != scored(full, text):
                raise AssertionError(f"case {case}: {text!r} reads {got}, "
                                     f"not {scored(full, text)}")
            accepted += type(got[0]) is int
    return (f"{cases} lines and their one-character corruptions: every scored word and "
            f"error matches; {accepted} of {2 * cases} read to a record")


def transcript_reader(cases: int) -> str:
    """Transcript lines of ``_session_lines``, and their corruptions: the
    record ``transcript_from_line`` reads from each line, or its error,
    against ``transcript_from_dict(json.loads(line))``."""
    def full(line):
        return transcript_from_dict(json.loads(line))

    accepted = 0
    lines = _session_lines(20245, cases, lambda transcript, _: transcript_line(transcript))
    for case, line, damaged in lines:
        for text in (line, damaged):
            got = _read(transcript_from_line, text)
            if got != _read(full, text):
                raise AssertionError(f"case {case}: {text!r} reads {got}, "
                                     f"not {_read(full, text)}")
            accepted += type(got) is Transcript
    return (f"{cases} lines and their one-character corruptions: every record and error "
            f"matches; {accepted} of {2 * cases} read to a record")


def ground_truth_writer(cases: int) -> str:
    """Ground truths whose snapshots repeat each other's words in each way
    ``ground_truth_line`` reuses text, or nearly: each half of ``tag_post``
    one word off a half of ``tag_pre``, or equal to its next or its old
    half; each reader snapshot one word off the tag's at the same instant,
    the tag's own object, an equal copy, or None.  A tenth have both halves
    of ``tag_pre`` equal, as a tag is provisioned; three in twenty have
    every internal null, and three in twenty each at even odds.  Each line
    against ``json.dumps`` of its record written out word by word with
    ``"%024x"``."""
    keys = ("ids", "k1", "k2", "ids_old", "k1_old", "k2_old")
    rng = random.Random(20244)

    def word():
        # a fifth of the words short, so that their text has leading zeros
        return rng.getrandbits(96 if rng.random() < 0.8 else 16)

    def one_off(words, at):
        return [*words[:at], words[at] ^ 1 << rng.randrange(96), *words[at + 1:]]

    def text(snapshot):
        return None if snapshot is None else {
            key: "%024x" % getattr(snapshot, key) for key in keys}

    nulls = 0
    for case in range(cases):
        pre = [word() for _ in range(3)] * 2 if rng.random() < 0.1 else [
            word() for _ in range(6)]
        halves, post = (pre[:3], pre[3:]), []
        # which half a half is one word off, and in which word, move with the
        # case: in case 0 the next half is off tag_pre's next in K1, and the
        # old half off its old in K2, so each shares its IDS with that half
        for i, kind in enumerate((case % 3, case // 3 % 3)):
            post += (one_off(halves[(i + case // 9) % 2], (i + 1 + case // 18) % 3) if kind == 0
                     else halves[kind - 1])
        tag_pre, tag_post = StateSnapshot(*pre), StateSnapshot(*post)
        readers = []
        for tag, kind in ((tag_pre, case // 9 % 4), (tag_post, case // 36 % 4)):
            words = [getattr(tag, key) for key in keys]
            readers.append((StateSnapshot(*one_off(words, rng.randrange(6))), tag,
                            StateSnapshot(*words), None)[kind])
        odds = rng.choice((0,) * 14 + (0.5,) * 3 + (1,) * 3)
        internals = [None if rng.random() < odds else word() for _ in range(7)]
        truth = GroundTruth(case, word(), tag_pre, tag_post, *readers, *internals)
        expected = {
            "session": case, "id": "%024x" % truth.id,
            **{key: None if value is None else "%024x" % value for key, value in zip(
                ("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star"), internals)},
            "tag_pre": text(tag_pre), "tag_post": text(tag_post),
            "reader_pre": text(readers[0]), "reader_post": text(readers[1])}
        line = ground_truth_line(truth)
        if line != json.dumps(expected, separators=(",", ":")) + "\n":
            raise AssertionError(f"case {case}: {line!r} is not the record's words")
        nulls += "null" in line
    return (f"{cases} ground truths, their snapshots sharing words in each way: every line is "
            f"its record's compact JSON; {nulls} with a null")


def zero_key_attack(cases: int) -> str:
    """Streams of 1 to 12 sessions of one tag, nine in ten original Gossamer
    and the rest modified, each session's keys zero, as stored or multiples
    of 96 at random and its D dropped at one in five: gossamer-2's records
    from ``evaluate_attack`` (session, verdict repr, prediction_confirmed)
    against a ``gossamer_attack2`` call per trial, and its MixBits lane
    passes, [n, n] + [n]·fired over its n trials: n3 and n1', then, only if
    some trial fired, n2'."""
    passes = []
    real = gossamer.mixbits_original_lanes

    def counting(z, y, n):
        passes.append(n)
        return real(z, y, n)

    rng, nonces = random.Random(20246), NonceStream(20246)
    worlds = {protocol: provision(1, protocol, seed=1)
              for protocol in (Protocol.GOSSAMER, Protocol.GOSSAMER_MOD)}
    fired_streams = 0
    gossamer.mixbits_original_lanes = counting
    try:
        for case in range(cases):
            tags, store = worlds[Protocol.GOSSAMER_MOD if case % 10 == 9 else Protocol.GOSSAMER]
            transcripts = [run_session(tags["tag-000"], store, Forcing(
                key_mode=rng.choice(list(KeyMode)), drop_d=rng.random() < 0.2), nonces,
                index)[0] for index in range(rng.randint(1, 12))]
            pairs = list(consecutive_success_pairs(transcripts))
            verdicts = [attacks.gossamer_attack2(first) for first, _ in pairs]
            expected = [(first.session_index, repr(v),
                         v.fired and v.recovered_state.next_ids == second.announced_ids)
                        for v, (first, second) in zip(verdicts, pairs)]
            passes.clear()
            records, _ = evaluate_attack("gossamer-2", transcripts)
            got = [(r["session"], repr(r["verdict"]), r["prediction_confirmed"])
                   for r in records]
            if got != expected:
                raise AssertionError(f"case {case}: records {got} != {expected}")
            fired = any(v.fired for v in verdicts)
            n = len(pairs)
            if passes != [n, n] + [n] * fired:
                raise AssertionError(f"case {case}: lane passes {passes} over {n} trials, "
                                     f"{'some' if fired else 'none'} fired")
            fired_streams += fired
    finally:
        gossamer.mixbits_original_lanes = real
    return (f"{cases} streams: every record matches a call per trial, and {fired_streams} "
            f"with a fired trial ran the n2' pass, the others not")


def zero_key_fold(cases: int) -> str:
    """``gossamer.confirm_zero_key``'s answers, element by element, against
    its row rendered unforced (``confirm_unforced``) and run with K1 = K2 =
    0.  A third of the cases are blocks of 0 to 12 random words: nonces
    random, zero or multiples of 96, n3 and n1' their MixBits or, at one in
    four, random, and c the zero-key session's C, C xor 1 or a random word.
    The rest are streams of 1 to 12 sessions of one tag, original and
    modified Gossamer in turn, each session's keys zero, as stored or
    multiples of 96 at random and its D dropped at one in five: the answers
    of a ``ZeroKeyBlock`` of the evaluator's trials, each of which fires
    exactly where its answer is not None.  Each ``evaluate_attack`` makes
    exactly one ``confirm_zero_key`` call, and no ``gossamer_attack2`` call
    makes one."""
    calls, inside = [], []
    real_confirm, real_attack = attacks.confirm_zero_key, attacks.gossamer_attack2

    def confirm(*lists):
        calls.append(bool(inside))
        return real_confirm(*lists)

    def attack(transcript, block=None, i=0):
        inside.append(True)
        try:
            return real_attack(transcript, block, i)
        finally:
            inside.pop()

    unforced = confirm_unforced()
    rng, nonces = random.Random(20248), NonceStream(20248)
    worlds = [provision(1, protocol, seed=1)
              for protocol in (Protocol.GOSSAMER, Protocol.GOSSAMER_MOD)]
    held = 0
    attacks.confirm_zero_key, attacks.gossamer_attack2 = confirm, attack
    try:
        for case in range(cases):
            if case % 3 == 0:
                words = []
                for _ in range(rng.randint(0, 12)):
                    ids, n1, n2 = (rng.getrandbits(96) for _ in range(3))
                    _, _, n1, n2 = _mix(rng.randrange(3), 0, 0, n1, n2)
                    _, _, c, _, _, (_, _, n3, n1p, *_) = gossamer.reader_begin(
                        ids, 0, 0, 0, n1, n2, Variant.ORIGINAL)
                    if rng.random() < 0.25:
                        n3, n1p = rng.getrandbits(96), rng.getrandbits(96)
                    words.append((n1, n2, n3, n1p, c ^ rng.choice((0, 1, rng.getrandbits(96)))))
                got = gossamer.confirm_zero_key(*([w[j] for w in words] for j in range(5)))
            else:
                tags, store = worlds[case % 3 - 1]
                transcripts = [run_session(tags["tag-000"], store, Forcing(
                    key_mode=rng.choice(list(KeyMode)), drop_d=rng.random() < 0.2), nonces,
                    index)[0] for index in range(rng.randint(1, 12))]
                firsts = [first for first, _ in consecutive_success_pairs(transcripts)]
                block = attacks.ZeroKeyBlock(firsts)
                words = [(*w, t.c) for w, t in zip(
                    zip(block.n1, block.n2, block.n3, block.n1p), firsts)]
                got = block.keys
                calls.clear()
                records, _ = evaluate_attack("gossamer-2", transcripts)
                if calls != [False]:
                    raise AssertionError(f"case {case}: C checks {calls} in one evaluation "
                                         f"(True: inside a gossamer_attack2 call)")
                if [r["verdict"].fired for r in records] != [k is not None for k in got]:
                    raise AssertionError(f"case {case}: a trial fires where C fails, or not "
                                         f"where it holds")
            expected = [unforced(0, 0, *w) for w in words]
            if got != expected:
                raise AssertionError(f"case {case}: block answers {got} != {expected}")
            held += sum(k is not None for k in got)
    finally:
        attacks.confirm_zero_key, attacks.gossamer_attack2 = real_confirm, real_attack
    return (f"{cases} blocks: every answer matches the unforced row under zero keys, "
            f"{held} with C holding; one C check per evaluation, none in a trial")


SWEEPS = {"modified-search": modified_search, "gossamer-phases": gossamer_phases,
          "sasi-phases": sasi_phases, "scored-truth": scored_truth,
          "transcript-reader": transcript_reader, "ground-truth-writer": ground_truth_writer,
          "zero-key-attack": zero_key_attack, "derivation": derivation,
          "zero-key-fold": zero_key_fold}


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in SWEEPS:
        sys.exit(f"usage: python tests/sweeps.py {{{','.join(SWEEPS)}}} CASES")
    try:
        print(SWEEPS[sys.argv[1]](int(sys.argv[2])))
    except AssertionError as exc:
        sys.exit(f"{sys.argv[1]}: {exc}")
