"""CLI: subcommand wiring, exit codes, manifests, file formats."""

import json

import pytest

from tagauth import simulator
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

    def test_variant_mismatch_is_usage_error(self, tmp_path, capsys):
        store = tmp_path / "db.json"
        provision(capsys, store, variant="sasi")
        code, _ = run_cli(capsys, "session", "run", "--variant", "gossamer",
                          "--tag", "tag-000", "--seed", "1", "--store", str(store))
        assert code == 2

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

    def test_replayed_challenge_is_harmless(self, tmp_path, capsys):
        store, out = tmp_path / "db.json", tmp_path / "t.jsonl"
        provision(capsys, store)
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

    def test_bench_manifest_takes_argparse_defaults(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "rfid-manifest/1", "subcommand": "bench",
                                    "args": {"what": "cost"}}))
        code, summary = run_cli(capsys, "--manifest", str(path))
        assert code == 0
        assert summary == run_cli(capsys, "bench", "cost", "--variant", "gossamer")[1]

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
