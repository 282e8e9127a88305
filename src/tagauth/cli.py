"""Command-line front door: provision tags, run sessions and campaigns,
replay manifests, evaluate attacks over transcript files, print the cost
accounting.

Conventions: machine-readable summaries go to stdout as one JSON object,
logs to stderr; transcripts and ground truth are JSONL files, ground truth
always in a sibling file (never inline) so attack tooling can only be fed
public data by construction.  Every run with a file output writes a
manifest next to it; ``tagauth --manifest FILE`` replays that run.

Exit codes: 0 success; 1 protocol rejection in single-session mode;
2 usage or I/O errors.
"""

import argparse
import contextlib
import functools
import json
import logging
import os
import reprlib
import sys
from dataclasses import fields
from pathlib import Path

from .attacks import ATTACKS, AttackVerdict, RecoveredSecrets
from .simulator import (
    CampaignConfig,
    Forcing,
    KeyMode,
    NonceMode,
    NonceStream,
    Outcome,
    Protocol,
    campaign_summary,
    cost_accounting,
    evaluate_attack,
    ground_truth_from_dict,  # unused here, but perfbench/tracing.py wraps it
    ground_truth_line,
    ground_truth_to_dict,  # unused here, but perfbench/tracing.py wraps it
    iter_campaign,
    load_tags,
    provision,
    run_session,
    save_tags,
    scored_truth_from_line,
    transcript_from_dict,  # unused here, but perfbench/tracing.py wraps it
    transcript_from_line,
    transcript_line,
    transcript_to_dict,
)
from .store import (Store, load_envelope, open_text, parse_entries, read_text, save_envelope,
                    write_atomic)
from .word96 import to_hex

log = logging.getLogger("tagauth")

MANIFEST_FORMAT = "rfid-manifest/1"

# The buffer size of campaign's two JSONL outputs: a 1000-session campaign
# writes about 1.4 MB, which the 8 KiB default flushes some 170 times
_CAMPAIGN_BUFFER = 64 * 1024

VARIANTS = [p.value for p in Protocol]


class UsageError(Exception):
    pass


# A verdict line's pieces in key order, each a %-format; the line of a
# verdict with every key and an ID that is a word is all of them in one.
_VERDICT_HEAD = '{"session":%d,"fired":%s'
_VERDICT_WORD_ID = ',"recovered_id":"%s"'
_VERDICT_STATE = ',"recovered_state":{%s}' % ",".join(
    f'"{field.name}":"%s"' for field in fields(RecoveredSecrets))
_VERDICT_BOOLS = (',"prediction_confirmed":%s', ',"ground_truth_match":%s')
_VERDICT_FULL = _VERDICT_HEAD + _VERDICT_WORD_ID + _VERDICT_STATE + "".join(_VERDICT_BOOLS) + "}\n"
_JSON_BOOLS = {True: "true", False: "false"}


def _ranged(parse, low, high=None):
    """argparse type: parse the text, then check it lies in [low, high]."""
    def checked(text: str):
        value = parse(text)
        if not (low <= value and (high is None or value <= high)):
            bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, not {reprlib.repr(value)}")
        return value
    checked.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return checked


def _path(text: str) -> str:
    """argparse type of every path option: an empty one would name no file."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _tags_path(opts: dict) -> str:
    return opts.get("tags") or f"{opts['store']}.tags"


def _manifest_path(output: str) -> Path:
    return Path(output).with_suffix(".manifest.json")


def _ground_truth_path(output: str) -> Path:
    return Path(output).with_suffix(".gt.jsonl")


def _check_files(name: str, opts: dict) -> None:
    """A UsageError naming both options when the run would write a file it
    reads, or one file under two names; paths are compared resolved."""
    written = {"--store": opts["store"], "--tags": _tags_path(opts)} if "store" in opts else {}
    if name == "provision":
        written["the --store manifest"] = _manifest_path(opts["store"])
    output = opts.get("output")
    if output:
        written["--output"] = output
        written["the --output manifest"] = _manifest_path(output)
        if name != "attack":
            written["the --output ground truth"] = _ground_truth_path(output)
    read = {"--" + key.replace("_", "-"): opts[key]
            for key in ("input", "ground_truth", "replay") if opts.get(key)}
    roles: dict[str, str] = {}
    for option, path in [*written.items(), *read.items()]:
        resolved = os.path.realpath(path)
        if resolved in roles:
            raise UsageError(f"{roles[resolved]} and {option} name one file, {path}; "
                             "a run may not write a file it reads or writes under another name")
        if option in written:
            roles[resolved] = option


def _write_manifest(subcommand: str, opts: dict, output: str) -> None:
    save_envelope(_manifest_path(output), MANIFEST_FORMAT, subcommand=subcommand, args=opts)


def _print_summary(summary: dict) -> None:
    print(json.dumps(summary, indent=2))


def _load_world(opts: dict):
    """The store, its tags and the tag the run takes: ``--tag``, else the only
    tag of a one-tag fleet.  A store row whose ``variant`` is no protocol, or
    not its tag's, is a ValueError naming the store file and row; no such
    tag is a UsageError naming the tags file."""
    store = Store.load(opts["store"])
    tags_path = _tags_path(opts)
    tags = load_tags(tags_path)

    def check(row) -> None:
        if row.variant not in VARIANTS:
            raise ValueError(f"variant: {row.variant!r} is not one of {', '.join(VARIANTS)}")
        tag = tags.get(row.tag_label)
        if tag is not None and tag.protocol.value != row.variant:
            raise ValueError(f"variant: {row.variant!r}, but tag {row.tag_label!r} "
                             f"is {tag.protocol.value}")

    parse_entries(opts["store"], "row", enumerate(store.rows.values()), check)
    label = opts.get("tag")
    if label is None:
        if len(tags) != 1:
            raise UsageError(f"{tags_path} holds {len(tags)} tags; "
                             + ("--tag must name one" if tags else "there is none to run"))
        label = next(iter(tags))
    if label not in tags:
        raise UsageError(f"unknown tag {label!r} in {tags_path}")
    return store, tags, tags[label]


def _save_world(opts: dict, store: Store, tags: dict) -> None:
    store.save(opts["store"])
    save_tags(tags, _tags_path(opts))


def _read_jsonl(path: str, parse) -> list:
    """``parse`` applied to every non-blank line; a bad line, or bytes that
    are not UTF-8, raise a ValueError naming the file."""
    with open_text(path) as fh:
        return parse_entries(path, "line",
                             ((number, line) for number, line in enumerate(fh, 1)
                              if not line.isspace()),
                             parse)


# -- subcommands ---------------------------------------------------------------

def cmd_provision(opts: dict) -> int:
    protocol = Protocol(opts["variant"])
    tags, store = provision(opts["count"], protocol, opts["seed"])
    _save_world(opts, store, tags)
    _write_manifest("provision", opts, opts["store"])
    _print_summary({
        "subcommand": "provision",
        "variant": protocol.value,
        "count": opts["count"],
        "seed": opts["seed"],
        "store": opts["store"],
        "tags_file": _tags_path(opts),
        "labels": sorted(tags),
    })
    return 0


def _forcing_from_session_opts(opts: dict) -> Forcing:
    forcing = Forcing(drop_d=opts["drop_d"])
    replay_file = opts.get("replay")
    if replay_file:
        if forcing.drop_d:
            raise UsageError("--drop-d with --replay: the reader gets no D of the tag's to drop")
        captured_all = _read_jsonl(replay_file, transcript_from_line)
        if not captured_all:
            raise UsageError(f"replay file {replay_file} holds no transcripts")
        captured = captured_all[-1]
        if opts["replay_mode"] == "d":
            if captured.d is None:
                raise UsageError(f"replay file {replay_file}: last transcript has no D")
            forcing.replay_d = captured
        else:
            if captured.a is None:
                raise UsageError(f"replay file {replay_file}: last transcript has no A||B||C")
            forcing.replay_abc = captured
    return forcing


def cmd_session(opts: dict) -> int:
    store, tags, tag = _load_world(opts)
    forcing = _forcing_from_session_opts(opts)
    rng = NonceStream(opts["seed"])
    output = opts.get("output")
    with contextlib.ExitStack() as stack:
        if output:
            # opened before the session runs, so that an output that cannot
            # be written fails the run before it commits the session
            t_fh, g_fh = (stack.enter_context(open(path, "a", encoding="utf-8"))
                          for path in (output, _ground_truth_path(output)))
        transcript, truth = run_session(tag, store, forcing, rng,
                                        session_index=opts["session_index"])
        _save_world(opts, store, tags)
        if output:
            t_fh.write(transcript_line(transcript))
            g_fh.write(ground_truth_line(truth))
    if output:
        _write_manifest("session-run", opts, output)
    _print_summary({
        "subcommand": "session-run",
        "tag": tag.label,
        "outcome": transcript.outcome.value,
        "transcript": transcript_to_dict(transcript),
    })
    rejected = transcript.outcome in (
        Outcome.READER_REJECTED, Outcome.TAG_REJECTED, Outcome.LOOKUP_FAILED)
    return 1 if rejected else 0


def cmd_campaign(opts: dict) -> int:
    store, tags, tag = _load_world(opts)
    config = CampaignConfig(
        sessions=opts["sessions"],
        seed=opts["seed"],
        nonce_mode=NonceMode(opts["forcing"]),
        key_mode=KeyMode(opts["force_keys"]),
        drop_d_rate=opts["drop_d_rate"],
    )
    output = opts["output"]
    with open(output, "w", _CAMPAIGN_BUFFER, encoding="utf-8") as t_fh, \
            open(_ground_truth_path(output), "w", _CAMPAIGN_BUFFER, encoding="utf-8") as g_fh:
        def streamed():
            for transcript, truth in iter_campaign(tag, store, config):
                t_fh.write(transcript_line(transcript))
                g_fh.write(ground_truth_line(truth))
                yield transcript
        summary = campaign_summary(tag.protocol, config, streamed())
    _save_world(opts, store, tags)
    _write_manifest("campaign", opts, output)
    log.info("campaign wrote %d transcripts to %s", config.sessions, output)
    _print_summary({
        "subcommand": "campaign",
        "tag": tag.label,
        **summary,
        "output": output,
        "ground_truth": str(_ground_truth_path(output)),
    })
    return 0


def _recovered_hex(s: RecoveredSecrets) -> tuple[str, ...]:
    # in field order; a call each, as through map it would cost more
    return (to_hex(s.k1_star), to_hex(s.k2_star), to_hex(s.n1), to_hex(s.n2), to_hex(s.n3),
            to_hex(s.n1p), to_hex(s.n2p), to_hex(s.next_ids))


def _verdict_line(residue_id: bool, record: dict) -> str:
    """One verdict as a compact JSON line; a value that is None leaves its key out.

    ``residue_id`` is the attack kind's flag of that name: a recovered ID
    that is a residue is written as a number, a word as hex.
    """
    verdict: AttackVerdict = record["verdict"]
    session, fired = record["session"], _JSON_BOOLS[verdict.fired]
    rid, state = verdict.recovered_id, verdict.recovered_state
    confirmed, match = record["prediction_confirmed"], verdict.ground_truth_match
    if rid is None or residue_id or state is None or confirmed is None or match is None:
        line = _VERDICT_HEAD % (session, fired)
        if rid is not None:
            line += (',"recovered_id":%d' % rid if residue_id
                     else _VERDICT_WORD_ID % to_hex(rid))
        if state is not None:
            line += _VERDICT_STATE % _recovered_hex(state)
        for piece, value in zip(_VERDICT_BOOLS, (confirmed, match)):
            if value is not None:
                line += piece % _JSON_BOOLS[value]
        return line + "}\n"
    # a to_hex call each: _recovered_hex's tuple, unpacked, costs more
    return _VERDICT_FULL % (
        session, fired, to_hex(rid), to_hex(state.k1_star), to_hex(state.k2_star),
        to_hex(state.n1), to_hex(state.n2), to_hex(state.n3), to_hex(state.n1p),
        to_hex(state.n2p), to_hex(state.next_ids), _JSON_BOOLS[confirmed], _JSON_BOOLS[match])


def cmd_attack(opts: dict) -> int:
    kind = opts["kind"]
    transcripts = _read_jsonl(opts["input"], transcript_from_line)
    truths = None
    if opts.get("ground_truth"):
        truths = _read_jsonl(opts["ground_truth"], scored_truth_from_line)
    records, summary = evaluate_attack(kind, transcripts, truths)
    output = opts.get("output")
    if output:
        # argparse and manifest replay refuse an unknown kind before this
        residue_id = ATTACKS[kind].residue_id
        write_atomic(output, (_verdict_line(residue_id, record) for record in records))
        _write_manifest("attack", opts, output)
    _print_summary(summary)
    return 0


def cmd_bench(opts: dict) -> int:
    _print_summary(cost_accounting(opts["variant"]))
    return 0


# -- argument parsing ----------------------------------------------------------

@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and the subparser of each ``_RUNNERS`` name: built once per
    process (about 2 ms of a small run's 4) and only read after that."""
    parser = argparse.ArgumentParser(
        prog="tagauth",
        description="Ultralightweight RFID mutual-authentication workbench "
                    "(SASI, Gossamer, modified Gossamer).")
    parser.add_argument("--manifest", type=_path, metavar="FILE",
                        help="replay a previous run from its manifest")
    sub = parser.add_subparsers(dest="subcommand")

    commands = {}
    p = commands["provision"] = sub.add_parser(
        "provision", help="create tags and their backend store")
    p.add_argument("--count", type=_ranged(int, 0), required=True)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--seed", type=_ranged(int, 0), required=True)
    p.add_argument("--store", type=_path, required=True)
    p.add_argument("--tags", type=_path, help="tag-state file (default: <store>.tags)")

    p = sub.add_parser("session", help="single-session operations")
    session_sub = p.add_subparsers(dest="session_command")
    run = commands["session-run"] = session_sub.add_parser(
        "run", help="run one authentication session")
    run.add_argument("--tag", help="label; may be omitted for a one-tag store")
    run.add_argument("--seed", type=_ranged(int, 0), required=True)
    run.add_argument("--store", type=_path, required=True)
    run.add_argument("--tags", type=_path)
    run.add_argument("--drop-d", action="store_true", dest="drop_d",
                     help="lose the final message in transit")
    run.add_argument("--replay", type=_path, metavar="FILE",
                     help="replay the last transcript in FILE instead of honest traffic")
    run.add_argument("--replay-mode", choices=["abc", "d"], default="abc",
                     dest="replay_mode",
                     help="replay the challenge to the tag (abc) or the response "
                          "to the reader (d)")
    run.add_argument("--session-index", type=_ranged(int, 0), default=0, dest="session_index")
    run.add_argument("--output", type=_path, help="append the transcript (JSONL) here")

    p = commands["campaign"] = sub.add_parser(
        "campaign", help="run many sessions against one tag")
    p.add_argument("--sessions", type=_ranged(int, 1), required=True)
    p.add_argument("--seed", type=_ranged(int, 0), required=True)
    p.add_argument("--store", type=_path, required=True)
    p.add_argument("--tags", type=_path)
    p.add_argument("--tag", help="label; may be omitted for a one-tag store")
    p.add_argument("--output", type=_path, required=True)
    p.add_argument("--forcing", choices=[m.value for m in NonceMode], default="random",
                   help="nonce forcing")
    p.add_argument("--force-keys", choices=[m.value for m in KeyMode],
                   default="as-stored", dest="force_keys")
    p.add_argument("--drop-d-rate", type=_ranged(float, 0, 1), default=0.0,
                   dest="drop_d_rate")

    p = commands["attack"] = sub.add_parser(
        "attack", help="evaluate a passive attack over transcripts")
    p.add_argument("kind", choices=list(ATTACKS))
    p.add_argument("--input", type=_path, required=True, help="transcript JSONL")
    p.add_argument("--ground-truth", type=_path, dest="ground_truth",
                   help="ground-truth JSONL for scoring")
    p.add_argument("--output", type=_path, help="write per-trial verdicts (JSONL) here")

    p = commands["bench"] = sub.add_parser("bench", help="print protocol cost accounting")
    p.add_argument("what", choices=["cost"])
    p.add_argument("--variant", choices=VARIANTS, default="gossamer")

    return parser, commands


_RUNNERS = {
    "provision": cmd_provision,
    "session-run": cmd_session,
    "campaign": cmd_campaign,
    "attack": cmd_attack,
    "bench": cmd_bench,
}


def _opts_from_namespace(ns: argparse.Namespace) -> tuple[str, dict]:
    opts = {k: v for k, v in vars(ns).items()
            if k not in ("subcommand", "session_command", "manifest") and v is not None}
    name = ns.subcommand
    if name == "session":
        if getattr(ns, "session_command", None) != "run":
            raise UsageError("usage: tagauth session run ...")
        name = "session-run"
    return name, opts


def _opts_from_manifest(path: str, commands: dict) -> tuple[str, dict]:
    """The subcommand and options a manifest replays, checked as argparse checks
    the command line (type and choices); an absent option takes its default.
    An error echoes a rejected value cut short by ``reprlib``."""
    payload = load_envelope(path, MANIFEST_FORMAT, read_text(path))
    name, args = payload.get("subcommand"), payload.get("args")
    if type(name) is not str or name not in _RUNNERS:
        raise UsageError(f"{path}: unknown subcommand {reprlib.repr(name)}")
    if not isinstance(args, dict):
        raise UsageError(f"{path}: args is not an object")
    # argparse keeps a parser's options only in _actions
    actions = [a for a in commands[name]._actions if a.default != argparse.SUPPRESS]
    known = {action.dest for action in actions}
    for key in args:  # in manifest order, so the key named is the same on every run
        if key not in known:
            raise UsageError(f"{path}: unknown option {reprlib.repr(key)} in args")
    opts = dict(args)
    for action in actions:
        option = action.option_strings[0] if action.option_strings else action.dest
        if action.dest not in opts:
            if action.required:
                raise UsageError(f"{path}: args lack {option}")
            if action.default is not None:
                opts[action.dest] = action.default
            continue
        value = opts[action.dest]
        if action.nargs == 0:  # a flag: its value is its const or its default
            valid = value is action.const or value is action.default
        else:
            try:
                parsed = (action.type or str)(str(value))
            except argparse.ArgumentTypeError as exc:  # a number out of its range
                raise UsageError(f"{path}: {option}: {exc}") from None
            except ValueError:  # float() would echo the whole text
                valid = False
            else:
                valid = parsed == value and (action.choices is None
                                             or parsed in action.choices)
                opts[action.dest] = parsed
        if not valid:
            raise UsageError(f"{path}: {option}: {reprlib.repr(value)} is not a valid value")
    return name, opts


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser, commands = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.manifest:
            if ns.subcommand:
                raise UsageError(f"--manifest takes no subcommand; {ns.subcommand!r} given")
            name, opts = _opts_from_manifest(ns.manifest, commands)
        else:
            if not ns.subcommand:
                parser.print_usage(sys.stderr)
                return 2
            name, opts = _opts_from_namespace(ns)
        _check_files(name, opts)
        return _RUNNERS[name](opts)
    except (UsageError, ValueError) as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        name = str(exc.filename or "I/O error")  # past 163 characters, only its two ends
        log.error("%s: %s", name if len(name) <= 163 else f"{name[:80]}...{name[-80:]}",
                  exc.strerror or exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
