"""CLI: subcommand wiring, exit codes, manifests, file formats."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagauth
from conftest import words
from tagauth import cli, simulator
from tagauth import store as store_module
from tagauth.attacks import AttackVerdict, RecoveredSecrets
from tagauth.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def provision(capsys, path, variant="gossamer", count=1, seed=42):
    code, summary = run_cli(capsys, "provision", "--count", str(count),
                            "--variant", variant, "--seed", str(seed),
                            "--store", str(path))
    assert code == 0
    return summary


DEEP_LIST = json.loads("[" * 500 + "]" * 500)
LONG_TEXT = "x" * 10**5


class TestProvision:
    def test_writes_store_tags_and_manifest(self, tmp_path, capsys):
        store = tmp_path / "db.json"
        summary = provision(capsys, store, count=3)
        assert summary["labels"] == ["tag-000", "tag-001", "tag-002"]
        assert store.exists()
        assert (tmp_path / "db.json.tags").exists()
        assert (tmp_path / "db.manifest.json").exists()

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        provision(capsys, a / "db.json", count=5, seed=7)
        provision(capsys, b / "db.json", count=5, seed=7)
        assert (a / "db.json").read_bytes() == (b / "db.json").read_bytes()
        assert (a / "db.json.tags").read_bytes() == (b / "db.json.tags").read_bytes()

    def test_zero_tags_is_a_valid_store(self, tmp_path, capsys):
        store = tmp_path / "empty.json"
        summary = provision(capsys, store, count=0)
        assert summary["labels"] == []
        payload = json.loads(store.read_text())
        assert payload["rows"] == []


class TestSessionRun:
    def test_fresh_tag_succeeds(self, tmp_path, capsys):
        store = tmp_path / "db.json"
        provision(capsys, store)
        code, summary = run_cli(capsys, "session", "run", "--tag", "tag-000",
                                "--seed", "1", "--store", str(store))
        assert code == 0
        assert summary["outcome"] == "mutual_success"
        assert summary["transcript"]["bits"] == 520

    def test_unknown_tag_is_usage_error(self, tmp_path, capsys):
        store = tmp_path / "db.json"
        provision(capsys, store)
        code, _ = run_cli(capsys, "session", "run", "--tag", "nope",
                          "--seed", "1", "--store", str(store))
        assert code == 2

    def test_one_tag_store_needs_no_tag_flag(self, tmp_path, capsys):
        # the run that names the only tag and the run that does not are one run
        runs = []
        for name, flag in (("named", ["--tag", "tag-000"]), ("implied", [])):
            (tmp_path / name).mkdir()
            store, out = tmp_path / name / "db.json", tmp_path / name / "t.jsonl"
            provision(capsys, store, variant="sasi")
            code, summary = run_cli(capsys, "session", "run", *flag, "--seed", "3",
                                    "--store", str(store), "--output", str(out))
            assert code == 0
            runs.append((summary, *(path.read_bytes() for path in (
                out, tmp_path / name / "t.gt.jsonl", store, tmp_path / name / "db.json.tags"))))
        assert runs[0] == runs[1]

    def test_missing_store_is_io_error(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "session", "run", "--tag", "tag-000",
                          "--seed", "1", "--store", str(tmp_path / "absent.json"))
        assert code == 2

    def test_rejection_exits_one(self, tmp_path, capsys):
        store = tmp_path / "db.json"
        provision(capsys, store)
        # corrupt the backend copy of k1: the tag must refuse the challenge
        payload = json.loads(store.read_text())
        k1 = payload["rows"][0]["k1"]
        payload["rows"][0]["k1"] = ("0" if k1[0] != "0" else "1") + k1[1:]
        store.write_text(json.dumps(payload))
        code, summary = run_cli(capsys, "session", "run", "--tag", "tag-000",
                                "--seed", "1", "--store", str(store))
        assert code == 1
        assert summary["outcome"] == "reader_rejected"

    def test_tag_without_store_row_is_a_rejection(self, tmp_path, capsys):
        # the reader not knowing a tag is a protocol rejection, not a usage error
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        payload = json.loads(store.read_text())
        payload["rows"] = []
        store.write_text(json.dumps(payload))
        code, summary = run_cli(capsys, "session", "run", "--tag", "tag-000",
                                "--seed", "1", "--store", str(store))
        assert code == 1 and summary["outcome"] == "lookup_failed"
        code, summary = run_cli(capsys, "campaign", "--sessions", "3", "--seed", "1",
                                "--store", str(store), "--output", str(out))
        assert code == 0 and summary["outcomes"] == {"lookup_failed": 3}
        # its ground truth, with no reader snapshots, reads back
        code, _ = run_cli(capsys, "attack", "gossamer-2", "--input", str(out),
                          "--ground-truth", str(tmp_path / "t.gt.jsonl"))
        assert code == 0

    def test_drop_d_then_recovery_across_invocations(self, tmp_path, capsys):
        store = tmp_path / "db.json"
        provision(capsys, store)
        code, summary = run_cli(capsys, "session", "run", "--tag", "tag-000",
                                "--seed", "1", "--store", str(store), "--drop-d")
        assert code == 0 and summary["outcome"] == "d_dropped"
        dropped_ids = summary["transcript"]["ids"]
        code, summary = run_cli(capsys, "session", "run", "--tag", "tag-000",
                                "--seed", "2", "--store", str(store))
        assert code == 0 and summary["outcome"] == "mutual_success"
        assert summary["transcript"]["ids"] == dropped_ids  # old-IDS retry

    def test_output_appends_transcript_and_ground_truth(self, tmp_path, capsys):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        for seed in (1, 2):
            code, _ = run_cli(capsys, "session", "run", "--tag", "tag-000",
                              "--seed", str(seed), "--store", str(store),
                              "--output", str(out), "--session-index", str(seed - 1))
            assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["session"] == 1
        assert len((tmp_path / "t.gt.jsonl").read_text().splitlines()) == 2
        assert (tmp_path / "t.manifest.json").exists()

    def test_replayed_d_is_rejected(self, tmp_path, capsys):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        code, _ = run_cli(capsys, "session", "run", "--tag", "tag-000", "--seed", "1",
                          "--store", str(store), "--output", str(out))
        assert code == 0
        code, summary = run_cli(capsys, "session", "run", "--tag", "tag-000",
                                "--seed", "2", "--store", str(store),
                                "--replay", str(out), "--replay-mode", "d")
        assert code == 1
        assert summary["outcome"] == "tag_rejected"

    @pytest.mark.parametrize("variant", ["sasi", "gossamer", "gossamer-mod"])
    def test_replayed_challenge_is_harmless(self, tmp_path, capsys, variant):
        # the replayed A||B||C has no reader, so the tag accepts it without
        # the reader's derivation, and its answer rewrites the same tuples
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store, variant)
        run_cli(capsys, "session", "run", "--tag", "tag-000", "--seed", "1",
                "--store", str(store), "--output", str(out))

        def secrets():
            entry = json.loads((tmp_path / "db.json.tags").read_text())["tags"][0]
            entry.pop("last_announced")  # the retry marker is not secret state
            return entry

        before = secrets()
        code, summary = run_cli(capsys, "session", "run", "--tag", "tag-000",
                                "--seed", "2", "--store", str(store),
                                "--replay", str(out))
        assert code == 0 and summary["outcome"] == "d_dropped"
        assert secrets() == before


# a transcript whose D was dropped, and one whose lookup failed
DROPPED_D_LINE = simulator.transcript_line(simulator.Transcript(
    "gossamer", 0, 1, 2, 3, 4, None, simulator.Outcome.D_DROPPED, 424))
LOOKUP_FAILED_LINE = simulator.transcript_line(simulator.Transcript(
    "gossamer", 0, 1, None, None, None, None, simulator.Outcome.LOOKUP_FAILED, 136))
SESSION_RUN = ["session", "run", "--tag", "tag-000", "--seed", "1", "--store", "db.json"]
CAMPAIGN = ["campaign", "--sessions", "3", "--seed", "1", "--output", "c.jsonl"]
ATTACK = ["attack", "gossamer-2", "--input", "c.jsonl"]
EMPTY_PATH = "an empty path names no file"
DROP_REPLAYED = "--drop-d with --replay: the reader gets no D of the tag's to drop"


class TestRefusedRuns:
    """A run the options, inputs or outputs make impossible exits 2, names
    why, and writes nothing: the store and tag files stay as they were."""

    @pytest.mark.parametrize("argv, message", [
        ([*SESSION_RUN, "--replay", "empty.jsonl"],
         "replay file empty.jsonl holds no transcripts"),
        ([*SESSION_RUN, "--replay", "dropped.jsonl", "--replay-mode", "d"],
         "replay file dropped.jsonl: last transcript has no D"),
        ([*SESSION_RUN, "--replay", "failed.jsonl"],
         "replay file failed.jsonl: last transcript has no A||B||C"),
        # a replayed session sends the reader no D of the tag's, so none can be dropped
        ([*SESSION_RUN, "--replay", "c.jsonl", "--drop-d"], DROP_REPLAYED),
        ([*SESSION_RUN, "--replay", "c.jsonl", "--replay-mode", "d", "--drop-d"], DROP_REPLAYED),
        (["--manifest", "drop-replayed.manifest.json"], DROP_REPLAYED),
        # both commands pick their tag by one rule and refuse a bad one alike
        ([*CAMPAIGN, "--store", "db.json", "--tag", "nope"],
         "unknown tag 'nope' in db.json.tags"),
        (["session", "run", "--tag", "nope", "--seed", "1", "--store", "db.json"],
         "unknown tag 'nope' in db.json.tags"),
        ([*CAMPAIGN, "--store", "zero.json"], "zero.json.tags holds 0 tags; there is none to run"),
        (["session", "run", "--seed", "1", "--store", "zero.json"],
         "zero.json.tags holds 0 tags; there is none to run"),
        ([*CAMPAIGN, "--store", "two.json"], "two.json.tags holds 2 tags; --tag must name one"),
        (["session", "run", "--seed", "1", "--store", "two.json"],
         "two.json.tags holds 2 tags; --tag must name one"),
        (["session"], "usage: tagauth session run ..."),
        # the session is not committed when its output cannot be written
        ([*SESSION_RUN, "--output", "nodir/t.jsonl"], "nodir/t.jsonl: No such file or directory"),
        # an empty path is refused by every path option, before any file is read
        ([*SESSION_RUN, "--replay", "", "--replay-mode", "d"], f"--replay: {EMPTY_PATH}"),
        ([*SESSION_RUN, "--output", ""], f"--output: {EMPTY_PATH}"),
        ([*SESSION_RUN, "--tags", ""], f"--tags: {EMPTY_PATH}"),
        ([*CAMPAIGN, "--store", ""], f"--store: {EMPTY_PATH}"),
        (["campaign", "--sessions", "3", "--seed", "1", "--store", "db.json", "--output", ""],
         f"--output: {EMPTY_PATH}"),
        (["attack", "gossamer-2", "--input", ""], f"--input: {EMPTY_PATH}"),
        ([*ATTACK, "--ground-truth", ""], f"--ground-truth: {EMPTY_PATH}"),
        ([*ATTACK, "--output", ""], f"--output: {EMPTY_PATH}"),
        (["provision", "--count", "1", "--variant", "sasi", "--seed", "1", "--store", ""],
         f"--store: {EMPTY_PATH}"),
        (["--manifest", ""], f"--manifest: {EMPTY_PATH}"),
        (["--manifest", "empty-store.manifest.json"],
         f"empty-store.manifest.json: --store: {EMPTY_PATH}"),
        # a manifest names its own run: a subcommand beside it is refused, not ignored
        (["--manifest", "db.manifest.json", *CAMPAIGN, "--store", "other.json"],
         "--manifest takes no subcommand; 'campaign' given"),
    ], ids=["replay-empty", "replay-no-d", "replay-no-abc", "replay-abc-drop-d",
            "replay-d-drop-d", "manifest-replay-drop-d", "campaign-unknown-tag",
            "session-unknown-tag", "campaign-zero-tags", "session-zero-tags",
            "campaign-two-tags", "session-two-tags", "session-without-run",
            "session-output-in-no-dir", "session-empty-replay", "session-empty-output",
            "session-empty-tags", "campaign-empty-store", "campaign-empty-output",
            "attack-empty-input", "attack-empty-ground-truth", "attack-empty-output",
            "provision-empty-store", "empty-manifest", "manifest-empty-store",
            "manifest-with-subcommand"])
    def test_exits_two_naming_why(self, tmp_path, capsys, caplog, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        provision(capsys, "db.json")
        provision(capsys, "zero.json", count=0)
        provision(capsys, "two.json", count=2)
        run_cli(capsys, *CAMPAIGN, "--store", "db.json")
        (tmp_path / "empty.jsonl").write_text("\n")
        (tmp_path / "dropped.jsonl").write_text(LOOKUP_FAILED_LINE + DROPPED_D_LINE)
        (tmp_path / "failed.jsonl").write_text(DROPPED_D_LINE + LOOKUP_FAILED_LINE)
        manifest = json.loads((tmp_path / "c.manifest.json").read_text())
        manifest["args"]["store"] = ""
        (tmp_path / "empty-store.manifest.json").write_text(json.dumps(manifest))
        manifest.update(subcommand="session-run", args={
            "tag": "tag-000", "seed": 1, "store": "db.json", "drop_d": True,
            "replay": "c.jsonl", "replay_mode": "d"})
        (tmp_path / "drop-replayed.manifest.json").write_text(json.dumps(manifest))
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        try:
            code, summary = run_cli(capsys, *argv)
        except SystemExit as exc:  # refused by argparse, which writes to stderr
            code, summary = exc.code, None
        assert code == 2 and summary is None
        assert message in caplog.text + capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestCampaign:
    def test_writes_everything_and_reports(self, tmp_path, capsys):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        code, summary = run_cli(capsys, "campaign", "--sessions", "25", "--seed", "3",
                                "--store", str(store), "--output", str(out))
        assert code == 0
        assert summary["outcomes"] == {"mutual_success": 25}
        assert len(out.read_text().splitlines()) == 25
        assert len((tmp_path / "t.gt.jsonl").read_text().splitlines()) == 25
        manifest = json.loads((tmp_path / "t.manifest.json").read_text())
        assert manifest["subcommand"] == "campaign"
        line = json.loads(out.read_text().splitlines()[0])
        assert set(line) == {"variant", "session", "ids", "a", "b", "c", "d",
                             "outcome", "bits"}

    def test_two_tag_store_requires_tag_flag(self, tmp_path, capsys):
        store = tmp_path / "db.json"
        provision(capsys, store, count=2)
        code, _ = run_cli(capsys, "campaign", "--sessions", "5", "--seed", "3",
                          "--store", str(store), "--output", str(tmp_path / "t.jsonl"))
        assert code == 2
        code, _ = run_cli(capsys, "campaign", "--sessions", "5", "--seed", "3",
                          "--store", str(store), "--output", str(tmp_path / "t.jsonl"),
                          "--tag", "tag-001")
        assert code == 0

    def test_empty_store_names_tags_file(self, tmp_path, capsys, caplog):
        store = tmp_path / "db.json"
        provision(capsys, store, count=0)
        code, _ = run_cli(capsys, "campaign", "--sessions", "5", "--seed", "3",
                          "--store", str(store), "--output", str(tmp_path / "t.jsonl"))
        assert code == 2
        assert "db.json.tags holds 0 tags" in caplog.text

    def test_byte_identical_rerun_and_manifest_replay(self, tmp_path, capsys):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"

        def fresh_run():
            provision(capsys, store, seed=9)
            code, _ = run_cli(capsys, "campaign", "--sessions", "30", "--seed", "4",
                              "--store", str(store), "--output", str(out),
                              "--forcing", "zero-mod96", "--drop-d-rate", "0.2")
            assert code == 0
            return out.read_bytes(), (tmp_path / "t.gt.jsonl").read_bytes()

        first = fresh_run()
        second = fresh_run()
        assert first == second

        # manifest replay: reset the world from its manifest, then re-run
        code, _ = run_cli(capsys, "--manifest", str(tmp_path / "db.manifest.json"))
        assert code == 0
        code, _ = run_cli(capsys, "--manifest", str(tmp_path / "t.manifest.json"))
        assert code == 0
        assert (out.read_bytes(), (tmp_path / "t.gt.jsonl").read_bytes()) == first


class TestAttack:
    def test_forced_campaign_scores_perfectly(self, tmp_path, capsys):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "21", "--seed", "5",
                "--store", str(store), "--output", str(out),
                "--force-keys", "zero")
        code, summary = run_cli(capsys, "attack", "gossamer-2",
                                "--input", str(out),
                                "--ground-truth", str(tmp_path / "t.gt.jsonl"),
                                "--output", str(tmp_path / "v.jsonl"))
        assert code == 0
        assert summary["trials"] == 20
        assert summary["fired_rate"] == 1.0
        assert summary["match_rate"] == 1.0
        assert summary["prediction_confirmed"] == 20
        verdicts = [json.loads(line) for line in
                    (tmp_path / "v.jsonl").read_text().splitlines()]
        assert all(v["fired"] and v["ground_truth_match"] for v in verdicts)
        assert "recovered_state" in verdicts[0]

    def test_ground_truth_join_rule(self, tmp_path, capsys):
        # lines in any order, the later of two lines of one session wins on
        # either read path, and a line of a session that starts no trial is ignored
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "21", "--seed", "5",
                "--store", str(store), "--output", str(out), "--force-keys", "zero")
        truths = {d["session"]: d for d in map(
            json.loads, (tmp_path / "t.gt.jsonl").read_text().splitlines())}

        def line(session, wrong=False, canonical=True):
            d = dict(truths[session])
            if wrong:
                d["id"] = "%024x" % (int(d["id"], 16) ^ 1)
            return json.dumps(d, separators=(",", ":") if canonical else None) + "\n"

        # session 20 starts no trial, and no session 99 ran
        truths[99] = {**truths[20], "session": 99}
        kept = [s for s in sorted(truths, reverse=True) if s not in (3, 5, 7, 9, 10, 20, 99)]
        lines = [line(3, wrong=True), line(5, canonical=False), line(7, wrong=True, canonical=False),
                 line(9, wrong=True, canonical=False), line(20, wrong=True), line(99, wrong=True),
                 *map(line, kept), line(3), line(5, wrong=True, canonical=False), line(7),
                 line(9, wrong=True)]
        gt = tmp_path / "mixed.gt.jsonl"
        gt.write_text("".join(lines))
        code, summary = run_cli(capsys, "attack", "gossamer-2", "--input", str(out),
                                "--ground-truth", str(gt), "--output", str(tmp_path / "v.jsonl"))
        assert code == 0
        # session 10 has no truth; 5 and 9 end on a wrong one
        assert (summary["trials"], summary["fired"], summary["scored"], summary["matched"]) == (
            20, 20, 19, 17)
        matches = {v["session"]: v.get("ground_truth_match") for v in map(
            json.loads, (tmp_path / "v.jsonl").read_text().splitlines())}
        assert matches == {s: None if s == 10 else s not in (5, 9) for s in range(20)}

    def test_blank_lines_between_records_are_skipped(self, tmp_path, capsys):
        # lines of only whitespace between the records of the input and of the
        # ground truth read as no record: verdicts and summary are unchanged
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "12", "--seed", "9", "--store", str(store),
                "--output", str(out), "--force-keys", "zero", "--drop-d-rate", "0.2")

        def spaced(path):
            lines = path.read_bytes().splitlines(keepends=True)
            copy = path.with_name("spaced." + path.name)
            copy.write_bytes(b"\n" + b"".join(
                line + (b"\n", b" \t\r\n")[number % 2] for number, line in enumerate(lines)))
            return copy

        def attack(transcripts, truths, verdicts):
            code, summary = run_cli(capsys, "attack", "gossamer-2", "--input", str(transcripts),
                                    "--ground-truth", str(truths), "--output", str(verdicts))
            assert code == 0
            return summary, verdicts.read_bytes()

        truths = tmp_path / "t.gt.jsonl"
        plain = attack(out, truths, tmp_path / "v.jsonl")
        assert plain[0]["trials"] == plain[0]["fired"] == 5
        assert attack(spaced(out), spaced(truths), tmp_path / "spaced.v.jsonl") == plain

    def test_sasi_attack_reports_histogram(self, tmp_path, capsys):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store, variant="sasi")
        run_cli(capsys, "campaign", "--sessions", "40", "--seed", "6",
                "--store", str(store), "--output", str(out))
        code, summary = run_cli(capsys, "attack", "sasi", "--input", str(out))
        assert code == 0
        histogram = summary["near_miss_histogram"]
        assert sum(histogram.values()) == summary["trials"] == 39

    def test_attack_without_ground_truth_reports_rates_only(self, tmp_path, capsys):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "10", "--seed", "7",
                "--store", str(store), "--output", str(out))
        code, summary = run_cli(capsys, "attack", "gossamer-1", "--input", str(out))
        assert code == 0
        assert summary["scored"] == 0 and summary["match_rate"] is None


    def test_errors_between_two_runs_leave_the_runs_identical(self, tmp_path, capsys):
        # the parser is built once per process: an argparse error and a usage
        # error in between must not leave anything behind in it
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store, variant="sasi")
        run_cli(capsys, "campaign", "--sessions", "30", "--seed", "8", "--store", str(store),
                "--output", str(out), "--drop-d-rate", "0.2")
        verdicts = tmp_path / "v.jsonl"
        argv = ["attack", "sasi", "--input", str(out),
                "--ground-truth", str(tmp_path / "t.gt.jsonl"), "--output", str(verdicts)]

        def attack():
            assert main(argv) == 0
            return (capsys.readouterr().out, verdicts.read_bytes(),
                    (tmp_path / "v.manifest.json").read_bytes())

        first = attack()
        with pytest.raises(SystemExit) as exc:
            main(["attack", "sasi", "--input", str(out), "--output"])
        assert exc.value.code == 2
        assert main(["attack", "gossamer-2", "--input", str(out), "--output", str(out)]) == 2
        capsys.readouterr()
        assert attack() == first
        assert cli._build_parser() is cli._build_parser()

    def test_failed_verdict_write_leaves_the_old_file(self, tmp_path, capsys, monkeypatch):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "6", "--seed", "9", "--store", str(store),
                "--output", str(out))
        argv = ["attack", "gossamer-1", "--input", str(out), "--output", str(tmp_path / "v.jsonl")]
        assert run_cli(capsys, *argv)[0] == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        verdict_line, written = cli._verdict_line, []

        def fail_second(residue_id, record):
            written.append(record)
            if len(written) == 2:
                raise OSError(28, "No space left on device")
            return verdict_line(residue_id, record)

        monkeypatch.setattr(cli, "_verdict_line", fail_second)
        assert run_cli(capsys, *argv) == (2, None)
        assert len(written) == 2
        # the old verdicts and manifest stay whole, and no temp file is left
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestVerdictLine:
    @settings(max_examples=50)
    @given(session=st.integers(0, 2**63), rid=words,
           state=st.builds(RecoveredSecrets, *[words] * 8))
    def test_every_shape_is_compact_json(self, session, rid, state):
        # every key present or left out, and an ID as a residue or a word,
        # so that both the one-template line and the line built key by key run
        for fired, id_form, has_state, confirmed, match in product(
                (False, True), (None, "residue", "word"), (False, True),
                (None, False, True), (None, False, True)):
            residue_id = id_form == "residue"
            recovered_id = None if id_form is None else rid % 96 if residue_id else rid
            verdict = AttackVerdict(fired, recovered_id, state if has_state else None, match)
            record = {"session": session, "verdict": verdict, "prediction_confirmed": confirmed}
            d = {"session": session, "fired": fired,
                 "recovered_id": recovered_id if id_form != "word" else "%024x" % rid,
                 "recovered_state": {key: "%024x" % value
                                     for key, value in asdict(state).items()}
                 if has_state else None,
                 "prediction_confirmed": confirmed, "ground_truth_match": match}
            expected = json.dumps({key: value for key, value in d.items() if value is not None},
                                  separators=(",", ":")) + "\n"
            assert cli._verdict_line(residue_id, record) == expected


class TestBench:
    def test_cost_accounting_numbers(self, tmp_path, capsys):
        code, summary = run_cli(capsys, "bench", "cost", "--variant", "gossamer")
        assert code == 0
        assert summary["identification_and_challenge_bits"] == 424
        assert summary["full_session_bits"] == 520
        assert summary["rewritable_state_bits"] == 576
        assert summary["static_id_bits"] == 96


class TestManifest:
    def test_bad_manifest_is_usage_error(self, tmp_path, capsys):
        bogus = tmp_path / "m.json"
        bogus.write_text('{"format": "other"}')
        code, _ = run_cli(capsys, "--manifest", str(bogus))
        assert code == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("dropped, named", [
        (["seed"], "--seed"),
        (["output"], "--output"),
        (["sessions", "seed", "store", "output"], "--sessions"),
    ], ids=["seed", "output", "all"])
    def test_manifest_missing_required_option(self, tmp_path, capsys, caplog,
                                              dropped, named):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "2", "--seed", "1",
                "--store", str(store), "--output", str(out))
        path = tmp_path / "t.manifest.json"
        payload = json.loads(path.read_text())
        for option in dropped:
            del payload["args"][option]
        path.write_text(json.dumps(payload))
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2
        assert named in caplog.text

    def test_attack_manifest_missing_kind(self, tmp_path, capsys, caplog):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "2", "--seed", "1",
                "--store", str(store), "--output", str(out))
        run_cli(capsys, "attack", "gossamer-2", "--input", str(out),
                "--output", str(tmp_path / "v.jsonl"))
        path = tmp_path / "v.manifest.json"
        payload = json.loads(path.read_text())
        del payload["args"]["kind"]
        path.write_text(json.dumps(payload))
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2
        assert "kind" in caplog.text

    def test_attack_manifest_unknown_kind(self, tmp_path, capsys, caplog):
        # refused before the run, so cmd_attack only ever sees a kind of ATTACKS
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "2", "--seed", "1",
                "--store", str(store), "--output", str(out))
        run_cli(capsys, "attack", "gossamer-2", "--input", str(out),
                "--output", str(tmp_path / "v.jsonl"))
        payload = json.loads((tmp_path / "v.manifest.json").read_text())
        verdicts = tmp_path / "w.jsonl"
        payload["args"].update(kind="nope", output=str(verdicts))
        path = tmp_path / "nope.json"
        path.write_text(json.dumps(payload))
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2
        assert "kind: 'nope' is not a valid value" in caplog.text
        assert not verdicts.exists()
        assert not verdicts.with_suffix(".manifest.json").exists()

    def test_bench_manifest_takes_argparse_defaults(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "rfid-manifest/1", "subcommand": "bench",
                                    "args": {"what": "cost"}}))
        code, summary = run_cli(capsys, "--manifest", str(path))
        assert code == 0
        assert summary == run_cli(capsys, "bench", "cost", "--variant", "gossamer")[1]

    def test_first_unknown_option_in_manifest_order_is_named(self, tmp_path):
        # the name must not depend on string hashing, so each run gets its own
        # PYTHONHASHSEED, which only a fresh interpreter takes
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "rfid-manifest/1", "subcommand": "bench",
                                    "args": {"what": "cost", "zeta": 1, "alpha": 1,
                                             "mid": 1, "beta": 1}}))
        src = str(Path(tagauth.__file__).resolve().parents[1])
        search = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for hash_seed in ("0", "1", "2", "3", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": search}
            done = subprocess.run([sys.executable, "-m", "tagauth.cli", "--manifest", str(path)],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 2
            assert done.stderr == f"ERROR {path}: unknown option 'zeta' in args\n"

    def test_campaign_manifest_without_defaulted_options_replays(self, tmp_path, capsys):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "5", "--seed", "3",
                "--store", str(store), "--output", str(out))
        first = out.read_bytes(), (tmp_path / "t.gt.jsonl").read_bytes()
        path = tmp_path / "t.manifest.json"
        payload = json.loads(path.read_text())
        for option in ("forcing", "force_keys", "drop_d_rate"):
            del payload["args"][option]
        path.write_text(json.dumps(payload))
        provision(capsys, store)
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 0
        assert (out.read_bytes(), (tmp_path / "t.gt.jsonl").read_bytes()) == first

    @pytest.mark.parametrize("option, value, named", [
        ("seed", "1", "--seed"),
        ("seed", True, "--seed"),
        ("seed", 1.0, "--seed"),
        ("sessions", "2", "--sessions"),
        ("sessions", True, "--sessions"),
        ("sessions", 2.5, "--sessions"),
        ("drop_d_rate", "0.5", "--drop-d-rate"),
        ("drop_d_rate", True, "--drop-d-rate"),
        ("drop_d_rate", [0.5], "--drop-d-rate"),
        ("forcing", "bogus", "--forcing"),
        ("store", ["db.json"], "--store"),
        ("bogus", 1, "bogus"),
    ])
    def test_manifest_value_of_wrong_type(self, tmp_path, capsys, caplog,
                                          option, value, named):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "2", "--seed", "1",
                "--store", str(store), "--output", str(out))
        path = tmp_path / "t.manifest.json"
        payload = json.loads(path.read_text())
        payload["args"][option] = value
        path.write_text(json.dumps(payload))
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2
        assert named in caplog.text

    @pytest.mark.parametrize("args", [["--seed", "1"], "seed=1", None])
    def test_manifest_args_not_an_object(self, tmp_path, capsys, caplog, args):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "rfid-manifest/1",
                                    "subcommand": "campaign", "args": args}))
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2
        assert "args is not an object" in caplog.text

    @pytest.mark.parametrize("subcommand", [["campaign"], {"name": "campaign"}],
                             ids=["list", "object"])
    def test_manifest_subcommand_not_a_string(self, tmp_path, capsys, caplog, subcommand):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "rfid-manifest/1",
                                    "subcommand": subcommand, "args": {}}))
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2
        assert f"{path}: unknown subcommand" in caplog.text

    @pytest.mark.parametrize("field, value, named", [
        ("subcommand", DEEP_LIST, "unknown subcommand"),
        ("subcommand", LONG_TEXT, "unknown subcommand"),
        ("key", LONG_TEXT, "unknown option"),
        ("seed", DEEP_LIST, "--seed"),
        ("seed", LONG_TEXT, "--seed"),
        ("drop_d_rate", DEEP_LIST, "--drop-d-rate"),
        ("drop_d_rate", LONG_TEXT, "--drop-d-rate"),
        ("forcing", DEEP_LIST, "--forcing"),
        ("forcing", LONG_TEXT, "--forcing"),
    ], ids=[f"{field}-{kind}" for field, kind in [
        ("subcommand", "deep"), ("subcommand", "long"), ("key", "long"), ("seed", "deep"),
        ("seed", "long"), ("rate", "deep"), ("rate", "long"), ("forcing", "deep"),
        ("forcing", "long")]])
    def test_rejected_value_is_echoed_short(self, tmp_path, capsys, caplog,
                                            field, value, named):
        args = {"sessions": 2, "seed": 1, "store": str(tmp_path / "db.json"),
                "output": str(tmp_path / "t.jsonl")}
        payload = {"format": "rfid-manifest/1", "subcommand": "campaign", "args": args}
        if field == "subcommand":
            payload["subcommand"] = value
        elif field == "key":
            args[value] = 1
        else:
            args[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2
        [record] = caplog.records
        line = f"{record.levelname} {record.getMessage()}"
        assert "\n" not in line and len(line) < 300
        assert line.startswith(f"ERROR {path}: {named}")

    def test_long_path_in_an_io_error_is_echoed_short(self, tmp_path, capsys, caplog):
        # a valid str option, echoed by the OSError it causes ("File name too long")
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "rfid-manifest/1", "subcommand": "campaign",
                                    "args": {"sessions": 2, "seed": 1, "store": LONG_TEXT,
                                             "output": str(tmp_path / "t.jsonl")}}))
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2
        [record] = caplog.records
        line = f"{record.levelname} {record.getMessage()}"
        assert "\n" not in line and len(line) < 200
        assert line.startswith("ERROR xxx") and "x...x" in line

    def test_missing_file_is_named_in_full(self, tmp_path, monkeypatch, capsys, caplog):
        monkeypatch.chdir(tmp_path)
        store = "a-store-that-was-never-provisioned/" + "d" * 20 + "/db.json"  # 63 characters
        code, _ = run_cli(capsys, "campaign", "--store", store, "--sessions", "2",
                          "--seed", "1", "--output", "t.jsonl")
        assert code == 2
        [record] = caplog.records
        assert record.getMessage() == f"{store}: No such file or directory"


def drop_field(path, key, field, index=0):
    payload = json.loads(path.read_text())
    del payload[key][index][field]
    path.write_text(json.dumps(payload))


class TestMalformedInput:
    """A damaged input file is a usage error (2) naming the file and entry."""

    def test_store_row_missing_field(self, tmp_path, capsys, caplog):
        store = tmp_path / "db.json"
        provision(capsys, store, count=2)
        drop_field(store, "rows", "k1", index=1)
        code, _ = run_cli(capsys, "session", "run", "--tag", "tag-000",
                          "--seed", "1", "--store", str(store))
        assert code == 2
        assert "db.json: row 1" in caplog.text and "'k1'" in caplog.text

    def test_tags_entry_missing_field(self, tmp_path, capsys, caplog):
        store = tmp_path / "db.json"
        provision(capsys, store)
        drop_field(tmp_path / "db.json.tags", "tags", "k1")
        code, _ = run_cli(capsys, "session", "run", "--tag", "tag-000",
                          "--seed", "1", "--store", str(store))
        assert code == 2
        assert "db.json.tags: tag 0" in caplog.text

    @pytest.mark.parametrize("which", ["input", "ground-truth", "replay"])
    def test_jsonl_line_missing_field(self, tmp_path, capsys, caplog, which):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "5",
                "--store", str(store), "--output", str(out))
        bad = out if which != "ground-truth" else tmp_path / "t.gt.jsonl"
        lines = bad.read_text().splitlines()
        entry = json.loads(lines[1])
        del entry["session"]
        lines[1] = json.dumps(entry)
        bad.write_text("\n".join(lines) + "\n")
        if which == "replay":
            argv = ["session", "run", "--tag", "tag-000", "--seed", "2",
                    "--store", str(store), "--replay", str(out)]
        else:
            argv = ["attack", "gossamer-1", "--input", str(out),
                    "--ground-truth", str(tmp_path / "t.gt.jsonl")]
        code, _ = run_cli(capsys, *argv)
        assert code == 2
        assert f"{bad.name}: line 2" in caplog.text

    @pytest.mark.parametrize("which", ["input", "ground-truth", "replay"])
    def test_jsonl_not_utf8_names_file(self, tmp_path, capsys, caplog, which):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "5",
                "--store", str(store), "--output", str(out))
        bad = out if which != "ground-truth" else tmp_path / "t.gt.jsonl"
        with open(bad, "ab") as fh:
            fh.write(b'{"session": "\xff"}\n')
        if which == "replay":
            argv = ["session", "run", "--tag", "tag-000", "--seed", "2",
                    "--store", str(store), "--replay", str(out)]
        else:
            argv = ["attack", "gossamer-1", "--input", str(out),
                    "--ground-truth", str(tmp_path / "t.gt.jsonl")]
        code, _ = run_cli(capsys, *argv)
        assert code == 2
        assert f"{bad}: not UTF-8 text" in caplog.text

    @pytest.mark.parametrize("which", ["store", "tags", "manifest"])
    def test_json_file_not_utf8_names_file(self, tmp_path, capsys, caplog, which):
        # the same message as for a JSONL file
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "5",
                "--store", str(store), "--output", str(out))
        session = ["session", "run", "--tag", "tag-000", "--seed", "2", "--store", str(store)]
        manifest = tmp_path / "t.manifest.json"
        bad, argv = {"store": (store, session),
                     "tags": (tmp_path / "db.json.tags", session),
                     "manifest": (manifest, ["--manifest", str(manifest)])}[which]
        bad.write_bytes(b"\xff" + bad.read_bytes())
        code, _ = run_cli(capsys, *argv)
        assert code == 2
        assert f"{bad}: not UTF-8 text (invalid start byte)" in caplog.text

    @pytest.mark.parametrize("which, field, value", [
        ("t.jsonl", "session", "x"),
        ("t.jsonl", "session", True),
        ("t.jsonl", "bits", 520.0),
        ("t.jsonl", "variant", 3),
        ("t.gt.jsonl", "session", "x"),
        ("t.gt.jsonl", "session", False),
    ])
    def test_jsonl_field_of_wrong_type(self, tmp_path, capsys, caplog, which, field, value):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "5",
                "--store", str(store), "--output", str(out))
        bad = tmp_path / which
        lines = bad.read_text().splitlines()
        entry = json.loads(lines[1])
        entry[field] = value
        lines[1] = json.dumps(entry)
        bad.write_text("\n".join(lines) + "\n")
        code, _ = run_cli(capsys, "attack", "gossamer-1", "--input", str(out),
                          "--ground-truth", str(tmp_path / "t.gt.jsonl"))
        assert code == 2
        assert f"{which}: line 2" in caplog.text and field in caplog.text


    @pytest.mark.parametrize("line, field, command, message", [
        (2, "a", "sasi", "a: null"),
        (2, "a", "gossamer-2", "a: null"),
        (2, "c", "gossamer-1", "c: null"),
        (2, "d", "gossamer-2", "d: null, but outcome is mutual_success"),
        (3, "b", "replay", "b: null"),
    ])
    def test_transcript_nulls_contradicting_outcome(self, tmp_path, capsys, caplog,
                                                     line, field, command, message):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "5",
                "--store", str(store), "--output", str(out))
        lines = out.read_text().splitlines()
        entry = json.loads(lines[line - 1])
        assert entry["outcome"] == "mutual_success"
        entry[field] = None
        lines[line - 1] = json.dumps(entry)
        out.write_text("\n".join(lines) + "\n")
        if command == "replay":
            argv = ["session", "run", "--tag", "tag-000", "--seed", "2",
                    "--store", str(store), "--replay", str(out)]
        else:
            argv = ["attack", command, "--input", str(out)]
        code, _ = run_cli(capsys, *argv)
        assert code == 2
        assert f"t.jsonl: line {line}: malformed (ValueError: {message}" in caplog.text

    def test_lookup_failed_transcript_with_partial_challenge(self, tmp_path, capsys, caplog):
        out = tmp_path / "t.jsonl"
        entry = {"variant": "gossamer", "session": 0, "ids": "0" * 24, "a": "0" * 24,
                 "b": None, "c": None, "d": None, "outcome": "lookup_failed", "bits": 136}
        out.write_text(json.dumps(entry) + "\n")
        code, _ = run_cli(capsys, "attack", "gossamer-2", "--input", str(out))
        assert code == 2
        assert "t.jsonl: line 1: malformed (ValueError: b: null" in caplog.text

    # outcome, and whether its transcript may carry a D word, a null D: a D
    # crossed the air when the reader judged one, none when the tag refused or
    # was never reached, and either when it was dropped (a replayed A||B||C
    # writes the tag's D)
    @pytest.mark.parametrize("d", ["0" * 23 + "1", None], ids=["word", "null"])
    @pytest.mark.parametrize("outcome, word, null", [
        ("mutual_success", True, False), ("tag_rejected", True, False),
        ("reader_rejected", False, True), ("lookup_failed", False, True),
        ("d_dropped", True, True)])
    def test_transcript_d_contradicting_outcome(self, tmp_path, capsys, caplog, outcome,
                                                word, null, d):
        abc = None if outcome == "lookup_failed" else "0" * 24
        entry = {"variant": "gossamer", "session": 0, "ids": "0" * 24, "a": abc, "b": abc,
                 "c": abc, "d": d, "outcome": outcome, "bits": 136}
        line = json.dumps(entry, separators=(",", ":"))
        fits = word if d is not None else null
        message = f"d: {'null' if d is None else 'a word'}, but outcome is {outcome}"
        for read, record in ((simulator.transcript_from_line, line),
                             (simulator.transcript_from_dict, entry)):
            if fits:
                assert read(record).d == (d and int(d, 16))
            else:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    read(record)
        out = tmp_path / "t.jsonl"
        out.write_text(line + "\n")
        assert run_cli(capsys, "attack", "gossamer-1", "--input", str(out))[0] == (
            0 if fits else 2)
        assert (f"t.jsonl: line 1: malformed (ValueError: {message}" in caplog.text) != fits

    @pytest.mark.parametrize("field, code", [
        ("tag_pre", 2), ("tag_post", 2), ("reader_pre", 0), ("reader_post", 0)])
    def test_ground_truth_null_snapshot(self, tmp_path, capsys, caplog, field, code):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "5", "--force-keys",
                "zero", "--store", str(store), "--output", str(out))
        truth = tmp_path / "t.gt.jsonl"
        lines = truth.read_text().splitlines()
        entry = json.loads(lines[1])
        entry[field] = None
        lines[1] = json.dumps(entry)
        truth.write_text("\n".join(lines) + "\n")
        assert run_cli(capsys, "attack", "gossamer-2", "--input", str(out),
                       "--ground-truth", str(truth))[0] == code
        if code == 2:
            assert f"t.gt.jsonl: line 2: malformed (ValueError: {field}: null" in caplog.text

    def test_store_row_with_unknown_key(self, tmp_path, capsys, caplog):
        store = tmp_path / "db.json"
        provision(capsys, store)
        payload = json.loads(store.read_text())
        payload["rows"][0]["colour"] = "red"
        store.write_text(json.dumps(payload))
        code, _ = run_cli(capsys, "session", "run", "--tag", "tag-000",
                          "--seed", "1", "--store", str(store))
        assert code == 2
        assert "db.json: row 0: malformed" in caplog.text and "colour" in caplog.text

    def test_tags_entries_with_one_label(self, tmp_path, capsys, caplog):
        store = tmp_path / "db.json"
        provision(capsys, store, count=2)
        tags = tmp_path / "db.json.tags"
        payload = json.loads(tags.read_text())
        assert payload["tags"][1]["tag_label"] == "tag-001"
        payload["tags"][1]["tag_label"] = "tag-000"
        tags.write_text(json.dumps(payload))
        before = tags.read_bytes(), store.read_bytes()
        code, _ = run_cli(capsys, "session", "run", "--tag", "tag-000",
                          "--seed", "1", "--store", str(store))
        assert code == 2
        assert "db.json.tags: tag 1: malformed" in caplog.text
        assert "duplicate tag label: tag-000" in caplog.text
        assert (tags.read_bytes(), store.read_bytes()) == before

    @pytest.mark.parametrize("subcommand", ["session-run", "campaign"])
    @pytest.mark.parametrize("variant, message", [
        ("bogus", "variant: 'bogus' is not one of sasi, gossamer, gossamer-mod"),
        ("gossamer-mod", "variant: 'gossamer-mod', but tag 'tag-000' is gossamer"),
    ], ids=["not-a-protocol", "not-its-tag"])
    def test_store_row_variant(self, tmp_path, capsys, caplog, subcommand, variant, message):
        store = tmp_path / "db.json"
        provision(capsys, store)
        payload = json.loads(store.read_text())
        payload["rows"][0]["variant"] = variant
        store.write_text(json.dumps(payload))
        tags = tmp_path / "db.json.tags"
        before = tags.read_bytes(), store.read_bytes()
        out = tmp_path / "t.jsonl"
        argv = (["session", "run", "--tag", "tag-000"] if subcommand == "session-run"
                else ["campaign", "--sessions", "3", "--output", str(out)])
        code, _ = run_cli(capsys, *argv, "--seed", "1", "--store", str(store))
        assert code == 2
        assert f"db.json: row 0: malformed (ValueError: {message})" in caplog.text
        assert (tags.read_bytes(), store.read_bytes()) == before
        assert not out.exists()

    @pytest.mark.parametrize("value, code", [("old", 0), ("next", 0), ("bogus", 2), (5, 2)])
    def test_tags_entry_last_announced(self, tmp_path, capsys, caplog, value, code):
        store = tmp_path / "db.json"
        provision(capsys, store)
        tags = tmp_path / "db.json.tags"
        payload = json.loads(tags.read_text())
        payload["tags"][0]["last_announced"] = value
        tags.write_text(json.dumps(payload))
        assert run_cli(capsys, "session", "run", "--tag", "tag-000",
                       "--seed", "1", "--store", str(store))[0] == code
        if code == 2:
            assert "db.json.tags: tag 0: malformed" in caplog.text
            assert "last_announced" in caplog.text

    @pytest.mark.parametrize("bad", ["null", "int", "uppercase", "23-digit"])
    @pytest.mark.parametrize("name, entry, field", [
        ("db.json", "row 0", "id"),
        ("db.json.tags", "tag 0", "k1_old"),
        ("t.jsonl", "line 2", "ids"),
        ("t.gt.jsonl", "line 2", "id"),
        ("t.gt.jsonl", "line 2", "tag_post.k2_old"),
    ])
    def test_bad_word_names_file_entry_and_field(self, tmp_path, capsys, caplog,
                                                 name, entry, field, bad):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "5",
                "--store", str(store), "--output", str(out))
        path = tmp_path / name

        def damage(record):
            *outer, key = field.split(".")
            for part in outer:
                record = record[part]
            good = record[key]
            record[key] = {"null": None, "int": 5, "uppercase": "ABCDEF" + good[6:],
                           "23-digit": good[1:]}[bad]

        if name.endswith(".jsonl"):
            lines = path.read_text().splitlines()
            record = json.loads(lines[1])
            damage(record)
            lines[1] = json.dumps(record)
            path.write_text("\n".join(lines) + "\n")
            argv = ["attack", "gossamer-1", "--input", str(out),
                    "--ground-truth", str(tmp_path / "t.gt.jsonl")]
        else:
            payload = json.loads(path.read_text())
            damage(payload["rows" if name == "db.json" else "tags"][0])
            path.write_text(json.dumps(payload))
            argv = ["session", "run", "--tag", "tag-000", "--seed", "1",
                    "--store", str(store)]
        code, _ = run_cli(capsys, *argv)
        assert code == 2
        assert (f"{name}: {entry}: malformed (ValueError: {field}: "
                "not a canonical 96-bit hex word") in caplog.text


    @pytest.mark.parametrize("which", ["store", "tags", "manifest", "input",
                                       "ground-truth", "replay"])
    def test_json_nested_past_the_recursion_limit(self, tmp_path, capsys, caplog, which):
        # json raises RecursionError here, which is no ValueError; it must
        # still be a malformed file (2), not a traceback (1)
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "5",
                "--store", str(store), "--output", str(out))
        deep = "[" * 200_000
        session = ["session", "run", "--tag", "tag-000", "--seed", "2", "--store", str(store)]
        bad, argv, where = {
            "store": (store, session, "not JSON (nested too deeply)"),
            "tags": (tmp_path / "db.json.tags", session, "not JSON (nested too deeply)"),
            "manifest": (tmp_path / "t.manifest.json",
                         ["--manifest", str(tmp_path / "t.manifest.json")],
                         "not JSON (nested too deeply)"),
            "input": (out, ["attack", "gossamer-1", "--input", str(out)], "line 2: malformed"),
            "ground-truth": (tmp_path / "t.gt.jsonl",
                             ["attack", "gossamer-1", "--input", str(out),
                              "--ground-truth", str(tmp_path / "t.gt.jsonl")],
                             "line 2: malformed"),
            "replay": (out, session + ["--replay", str(out)], "line 2: malformed"),
        }[which]
        if bad.suffix == ".jsonl":
            lines = bad.read_text().splitlines()
            lines[1] = deep
            bad.write_text("\n".join(lines) + "\n")
        else:
            bad.write_text(deep)
        code, _ = run_cli(capsys, *argv)
        assert code == 2
        assert f"{bad}: {where}" in caplog.text
        assert "nested too deeply" in caplog.text


def spy_json_loads(monkeypatch) -> list:
    """The texts the JSONL readers hand to json.loads from now on."""
    loaded = []
    json_loads = simulator.json_loads
    monkeypatch.setattr(simulator, "json_loads",
                        lambda text: loaded.append(text) or json_loads(text))
    return loaded


def damage(record, field, bad):
    """Damage ``field`` (``outer.key`` in a snapshot) of a JSONL record in place."""
    *outer, key = field.split(".")
    for part in outer:
        record = record[part]
    if bad == "drop":
        del record[key]
    else:
        good = record[key]
        record[key] = {"null": None, "int": 5, "uppercase": "ABCDEF" + str(good)[6:],
                       "23-digit": str(good)[1:]}[bad]


class TestMalformedCanonicalLines:
    """The malformed JSONL lines of TestMalformedInput, each written compact as
    the writers write a line.  A line whose damage leaves it canonical (a null
    that contradicts its outcome or the tag) is read without json.loads, so the
    checks both readers share must still name it; any other goes to json.loads."""

    @pytest.mark.parametrize("name, line, field, bad, command, canonical, message", [
        ("t.jsonl", 2, "session", "drop", "gossamer-1", False, "KeyError: 'session'"),
        ("t.gt.jsonl", 2, "session", "drop", "gossamer-1", False, "KeyError: 'session'"),
        ("t.jsonl", 2, "session", "drop", "replay", False, "KeyError: 'session'"),
        ("t.jsonl", 2, "a", "null", "sasi", True, "ValueError: a: null"),
        ("t.jsonl", 2, "a", "null", "gossamer-2", True, "ValueError: a: null"),
        ("t.jsonl", 2, "c", "null", "gossamer-1", True, "ValueError: c: null"),
        ("t.jsonl", 2, "d", "null", "gossamer-2", True,
         "ValueError: d: null, but outcome is mutual_success"),
        ("t.jsonl", 3, "b", "null", "replay", True, "ValueError: b: null"),
        ("t.gt.jsonl", 2, "tag_pre", "null", "gossamer-2", True, "ValueError: tag_pre: null"),
        ("t.gt.jsonl", 2, "tag_post", "null", "gossamer-2", True,
         "ValueError: tag_post: null"),
        ("t.gt.jsonl", 2, "reader_pre", "null", "gossamer-2", True, None),
        ("t.gt.jsonl", 2, "reader_post", "null", "gossamer-2", True, None),
        *[(name, 2, field, bad, "gossamer-1", False,
           f"ValueError: {field}: not a canonical 96-bit hex word")
          for name, field in [("t.jsonl", "ids"), ("t.gt.jsonl", "id"),
                              ("t.gt.jsonl", "tag_post.k2_old")]
          for bad in ("null", "int", "uppercase", "23-digit")],
    ])
    def test_compact_damaged_line(self, tmp_path, capsys, caplog, monkeypatch,
                                  name, line, field, bad, command, canonical, message):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "5", "--force-keys",
                "zero", "--store", str(store), "--output", str(out))
        path = tmp_path / name
        lines = path.read_text().splitlines()
        record = json.loads(lines[line - 1])
        assert record.get("outcome", "mutual_success") == "mutual_success"
        damage(record, field, bad)
        lines[line - 1] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        loaded = spy_json_loads(monkeypatch)
        if command == "replay":
            argv = ["session", "run", "--tag", "tag-000", "--seed", "2",
                    "--store", str(store), "--replay", str(out)]
        else:
            argv = ["attack", command, "--input", str(out),
                    "--ground-truth", str(tmp_path / "t.gt.jsonl")]
        code, _ = run_cli(capsys, *argv)
        assert loaded == ([] if canonical else [lines[line - 1] + "\n"])
        if message is None:
            assert code == 0
        else:
            assert code == 2
            assert f"{name}: line {line}: malformed ({message}" in caplog.text

    def test_lookup_failed_transcript_with_partial_challenge(self, tmp_path, capsys, caplog,
                                                             monkeypatch):
        out = tmp_path / "t.jsonl"
        loaded = spy_json_loads(monkeypatch)
        out.write_text('{"variant":"gossamer","session":0,"ids":"%s","a":"%s","b":null,'
                       '"c":null,"d":null,"outcome":"lookup_failed","bits":136}\n'
                       % ("0" * 24, "0" * 24))
        code, _ = run_cli(capsys, "attack", "gossamer-2", "--input", str(out))
        assert code == 2
        assert "t.jsonl: line 1: malformed (ValueError: b: null" in caplog.text
        assert loaded == []


DROP = object()


def damage_entry(payload, change):
    """Apply one TestMalformedInput damage to a store or tag-fleet payload."""
    name, index, field, value = change
    entry = payload["rows" if name == "db.json" else "tags"][index]
    if value is DROP:
        del entry[field]
    elif value in ("null", "int", "uppercase", "23-digit"):
        damage(entry, field, value)
    else:
        entry[field] = value


STORE_AND_TAG_CASES = [
    # (damage (file, entry, field, value), read without json.loads, exit code, message)
    (("db.json", 1, "k1", DROP), False, 2, "db.json: row 1: malformed (KeyError: 'k1')"),
    (("db.json.tags", 0, "k1", DROP), False, 2, "db.json.tags: tag 0: malformed (KeyError"),
    (("db.json", 0, "colour", "red"), False, 2, "db.json: row 0: malformed (TypeError"),
    (("db.json.tags", 1, "tag_label", "tag-000"), True, 2,
     "db.json.tags: tag 1: malformed (ValueError: duplicate tag label: tag-000)"),
    (("db.json", 0, "variant", "bogus"), True, 2, "db.json: row 0: malformed (ValueError: "
     "variant: 'bogus' is not one of sasi, gossamer, gossamer-mod)"),
    (("db.json", 0, "variant", "gossamer-mod"), True, 2, "db.json: row 0: malformed "
     "(ValueError: variant: 'gossamer-mod', but tag 'tag-000' is gossamer)"),
    (("db.json.tags", 0, "last_announced", "old"), True, 0, None),
    (("db.json.tags", 0, "last_announced", "next"), True, 0, None),
    (("db.json.tags", 0, "last_announced", "bogus"), True, 2,
     "db.json.tags: tag 0: malformed (ValueError: last_announced is not"),
    (("db.json.tags", 0, "last_announced", 5), False, 2,
     "db.json.tags: tag 0: malformed (TypeError: last_announced is not str)"),
    *[((name, 0, field, bad), False, 2,
       f"{name}: {entry} 0: malformed (ValueError: {field}: not a canonical 96-bit hex word")
      for name, entry, field in [("db.json", "row", "id"), ("db.json.tags", "tag", "k1_old")]
      for bad in ("null", "int", "uppercase", "23-digit")],
]


class TestMalformedCanonicalFiles:
    """The store and tag cases of TestMalformedInput, each damaged file written
    both in the indent=2 layout the writers use and re-spaced as there.  Both
    give the same exit code and message.  A damage that leaves the file in the
    writers' exact layout (another string) is read without json.loads."""

    @pytest.mark.parametrize("change, canonical, code, message", STORE_AND_TAG_CASES,
                             ids=[f"{name}-{index}-{field}-{'drop' if value is DROP else value}"
                                  for (name, index, field, value), *_ in STORE_AND_TAG_CASES])
    def test_damaged_file_in_either_layout(self, tmp_path, capsys, caplog, monkeypatch,
                                           change, canonical, code, message):
        outcomes = []
        for layout, indent in [("canonical", 2), ("spaced", None)]:
            root = tmp_path / layout
            root.mkdir()
            store, path = root / "db.json", root / change[0]
            provision(capsys, store, count=2)
            payload = json.loads(path.read_text())
            damage_entry(payload, change)
            text = json.dumps(payload, indent=indent) + ("\n" if indent else "")
            path.write_text(text)
            loaded = []
            loads = store_module.json_loads
            monkeypatch.setattr(store_module, "json_loads",
                                lambda text: loaded.append(text) or loads(text))
            caplog.clear()
            outcome, _ = run_cli(capsys, "session", "run", "--tag", "tag-000", "--seed", "1",
                                 "--store", str(store))
            monkeypatch.undo()
            assert loaded == ([] if canonical and indent else [text])
            outcomes.append((outcome, caplog.text.replace(str(root), "<dir>")))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code
        if message is not None:
            assert f"<dir>/{message}" in outcomes[0][1]


class TestOwnFiles:
    """A run that would write a file it reads, or one file under two names,
    is a usage error naming both options, and writes nothing."""

    @pytest.mark.parametrize("argv, named", [
        (["attack", "gossamer-2", "--input", "c.jsonl", "--output", "c.jsonl"],
         "--output and --input"),
        (["attack", "gossamer-2", "--input", "c.jsonl", "--output", "sub/../c.jsonl"],
         "--output and --input"),
        (["attack", "gossamer-2", "--input", "c.jsonl", "--output", "link.jsonl"],
         "--output and --input"),
        (["attack", "gossamer-2", "--input", "c.jsonl", "--ground-truth", "c.gt.jsonl",
          "--output", "c.gt.jsonl"], "--output and --ground-truth"),
        (["attack", "gossamer-2", "--input", "c.manifest.json", "--output", "c.jsonl"],
         "the --output manifest and --input"),
        (["campaign", "--sessions", "3", "--seed", "1", "--store", "db.json",
          "--output", "db.json.tags"], "--tags and --output"),
        (["campaign", "--sessions", "3", "--seed", "1", "--store", "db.json",
          "--output", "db.json"], "--store and --output"),
        (["campaign", "--sessions", "3", "--seed", "1", "--store", "db.json",
          "--tags", "t.gt.jsonl", "--output", "t.jsonl"],
         "--tags and the --output ground truth"),
        (["campaign", "--sessions", "3", "--seed", "1", "--store", "t.manifest.json",
          "--tags", "db.json.tags", "--output", "t.jsonl"],
         "--store and the --output manifest"),
        (["session", "run", "--tag", "tag-000", "--seed", "1", "--store", "db.json",
          "--replay", "c.jsonl", "--output", "c.jsonl"], "--output and --replay"),
        (["session", "run", "--tag", "tag-000", "--seed", "1", "--store", "db.json",
          "--output", "db.json.tags"], "--tags and --output"),
        (["provision", "--count", "1", "--variant", "sasi", "--seed", "1",
          "--store", "db.json", "--tags", "db.json"], "--store and --tags"),
        (["provision", "--count", "1", "--variant", "sasi", "--seed", "1",
          "--store", "db.json", "--tags", "db.manifest.json"],
         "--tags and the --store manifest"),
    ], ids=["attack-input", "attack-input-dotdot", "attack-input-symlink",
            "attack-ground-truth", "attack-manifest-input", "campaign-tags",
            "campaign-store", "campaign-ground-truth-tags", "campaign-manifest-store",
            "session-replay", "session-tags", "provision-store-tags",
            "provision-manifest-tags"])
    def test_rejected_before_anything_is_written(self, tmp_path, capsys, caplog,
                                                 monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)
        provision(capsys, "db.json")
        run_cli(capsys, "campaign", "--sessions", "4", "--seed", "2", "--store", "db.json",
                "--force-keys", "zero", "--output", "c.jsonl")
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.jsonl").symlink_to(tmp_path / "c.jsonl")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        code, _ = run_cli(capsys, *argv)
        assert code == 2
        assert f"{named} name one file" in caplog.text
        assert {path.name: path.read_bytes()
                for path in tmp_path.iterdir() if path.is_file()} == before

    def test_manifest_replay_rewrites_its_own_manifest(self, tmp_path, capsys):
        # the manifest is read whole before the run; it is no option of the run
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "3", "--seed", "1",
                "--store", str(store), "--output", str(out))
        manifest = tmp_path / "t.manifest.json"
        before = manifest.read_bytes()
        code, _ = run_cli(capsys, "--manifest", str(manifest))
        assert code == 0
        assert manifest.read_bytes() == before


class TestNumericOptionRanges:
    @pytest.mark.parametrize("argv", [
        ["provision", "--count", "-3", "--variant", "sasi", "--seed", "1"],
        ["campaign", "--sessions", "-5", "--seed", "1", "--output", "t.jsonl"],
        ["campaign", "--sessions", "0", "--seed", "1", "--output", "t.jsonl"],
        ["campaign", "--sessions", "2", "--seed", "1", "--output", "t.jsonl",
         "--drop-d-rate", "7"],
        ["campaign", "--sessions", "2", "--seed", "1", "--output", "t.jsonl",
         "--drop-d-rate", "-0.1"],
        ["provision", "--count", "1", "--variant", "sasi", "--seed", "-7"],
        ["campaign", "--sessions", "2", "--seed", "-7", "--output", "t.jsonl"],
        ["session", "run", "--tag", "tag-000", "--seed", "-7"],
    ])
    def test_out_of_range_on_command_line(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--store", str(tmp_path / "db.json")])
        assert exc.value.code == 2

    def test_rate_bounds_are_inclusive(self, tmp_path, capsys):
        store = tmp_path / "db.json"
        provision(capsys, store)
        for rate in ("0", "1"):
            code, summary = run_cli(capsys, "campaign", "--sessions", "2", "--seed", "1",
                                    "--store", str(store), "--drop-d-rate", rate,
                                    "--output", str(tmp_path / "t.jsonl"))
            assert code == 0 and summary["drop_d_rate"] == float(rate)

    @pytest.mark.parametrize("manifest, option, value", [
        ("db.manifest.json", "count", -3),
        ("t.manifest.json", "sessions", -5),
        ("t.manifest.json", "sessions", "3"),
        ("t.manifest.json", "drop_d_rate", 7),
        ("db.manifest.json", "seed", -1),
        ("t.manifest.json", "seed", -1),
    ])
    def test_out_of_range_in_manifest(self, tmp_path, capsys, manifest, option, value):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
        run_cli(capsys, "campaign", "--sessions", "2", "--seed", "1",
                "--store", str(store), "--output", str(out))
        path = tmp_path / manifest
        payload = json.loads(path.read_text())
        payload["args"][option] = value
        path.write_text(json.dumps(payload))
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2

    def test_negative_seed_in_a_manifest_is_named(self, tmp_path, capsys, caplog):
        # random.Random seeds from abs(seed): a seed of -1 would replay seed 1
        store = tmp_path / "db.json"
        provision(capsys, store)
        run_cli(capsys, "session", "run", "--tag", "tag-000", "--seed", "1",
                "--store", str(store), "--output", str(tmp_path / "s.jsonl"))
        run_cli(capsys, "campaign", "--sessions", "2", "--seed", "1",
                "--store", str(store), "--output", str(tmp_path / "t.jsonl"))
        for name in ("db", "s", "t"):
            path = tmp_path / f"{name}.manifest.json"
            payload = json.loads(path.read_text())
            payload["args"]["seed"] = -1
            path.write_text(json.dumps(payload))
            caplog.clear()
            code, _ = run_cli(capsys, "--manifest", str(path))
            assert code == 2
            assert f"{path}: --seed: must be at least 0, not -1" in caplog.text

    def test_negative_session_index_is_an_error(self, tmp_path, capsys, caplog):
        # it would be written into the transcript as "session":-3
        store, out = tmp_path / "db.json", tmp_path / "s.jsonl"
        provision(capsys, store)
        argv = ["session", "run", "--tag", "tag-000", "--seed", "1", "--store", str(store),
                "--output", str(out), "--session-index"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-3"])
        assert exc.value.code == 2
        assert not out.exists()
        code, summary = run_cli(capsys, *argv, "0")
        assert code == 0 and summary["transcript"]["session"] == 0
        path = tmp_path / "s.manifest.json"
        payload = json.loads(path.read_text())
        payload["args"]["session_index"] = -1
        path.write_text(json.dumps(payload))
        caplog.clear()
        code, _ = run_cli(capsys, "--manifest", str(path))
        assert code == 2
        assert f"{path}: --session-index: must be at least 0, not -1" in caplog.text
