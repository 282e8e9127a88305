"""The benchmark's three workloads.

Each workload drives tagauth only through its public entry points
(``provision``, ``run_session``, ``Store.save/load``,
``save_tags/load_tags``, ``evaluate_attack`` and ``cli.main``) and gives
the program only inputs generated from the run's seed.  Load is
closed-loop: one caller, and a session starts only when the previous one
has returned.

A workload object owns one world:

* ``setup()`` builds it.  It is timed as ``setup_s`` and may be called
  several times; each call starts the world afresh.
* ``run_round(r)`` runs one fixed-size unit of the timed part.  Round
  ``r`` continues from where round ``r - 1`` left the world.
* ``check_round(r)`` checks the round's outputs, outside the timed part.
* ``attack()`` is the attack step for workloads that do not attack
  inside their rounds.
* ``final_checks()`` checks the world once the timed part is over.
* ``digest()`` hashes the outputs of the rounds run so far.

Why each workload exists, and which layers it should load, is written
down in README.md beside this file.
"""

import io
import json
import random
from array import array
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

from tagauth import cli, simulator
from tagauth.simulator import Forcing, NonceStream, Protocol
from tagauth.store import Store

from checks import (REJECTED, Digest, consistency_failures, oracle_mismatches,
                    record_from_json, record_from_objects, record_line, verdict_line)


class Ledger:
    """Attempted and failed operations of one run, with the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def count(self, what: str, attempted: int, failed: int = 0, detail: str = "") -> None:
        self.attempted += attempted
        self.failed += int(failed)
        if failed and len(self.notes) < 20:
            self.notes.append(f"{what}: {int(failed)} of {attempted} failed {detail}".rstrip())


@dataclass
class RoundStats:
    sessions: int
    session_wall: float
    trials: int = 0
    attack_wall: float = 0.0


class Workload:
    name = ""
    protocol: Protocol
    setup_reps = 1
    round_sessions = 0
    attack_in_round = False
    # Nominal (normalized) seconds per round and per attack pass on the
    # seed code.  A run does a fixed amount of work, as many rounds and
    # passes as --seconds buys at these rates, so that every run of a
    # workload does the same work whatever the machine's speed; the
    # fleet's state, and with it the cost of a session, drifts as it ages.
    round_s = 0.0
    attack_pass_s = 0.0
    reference = "compute"  # calibrate.py's reference slice for this workload
    # every check_every-th session of a run, by position, goes through the
    # oracle check
    check_every = 50

    def __init__(self, seed: int, workdir: Path, ledger: Ledger, oracles,
                 span=None) -> None:
        self.seed = seed
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.ledger = ledger
        self.oracles = oracles
        self.span = span or (lambda name: nullcontext())
        # Per-session on-CPU times; None leaves sessions untimed.  A
        # run_session call does no I/O, so its CPU time is its latency less
        # any time the host took the CPU away, which on a shared host is
        # what sets the tail.
        self.latencies: array | None = None
        self.outcomes: Counter = Counter()
        self.file_bytes: Counter = Counter()

    def _count_sessions(self, records, r: int) -> None:
        """Tally outcomes and oracle-check the sampled sessions of round ``r``."""
        outcomes = Counter(rec.outcome for rec in records)
        self.outcomes.update(outcomes)
        self.ledger.count("sessions", len(records), sum(outcomes[o] for o in REJECTED))
        first = r * self.round_sessions
        sampled = [rec for offset, rec in enumerate(records)
                   if (first + offset) % self.check_every == 0]
        bad = [(rec.session, oracle_mismatches(rec, self.oracles)) for rec in sampled]
        bad = [b for b in bad if b[1]]
        self.ledger.count("oracle check", len(sampled), len(bad), str(bad[:3]))

    def _check_consistency(self, tags: dict, store, probe_labels) -> None:
        failed = consistency_failures(tags, store, self.protocol.value, probe_labels)
        self.ledger.count("store consistency", len(tags), len(failed), str(failed[:3]))

    def _fleet_setup(self, count: int) -> None:
        """Provision ``count`` tags, write both state files and load them back."""
        tags, store = simulator.provision(count, self.protocol, self.seed)
        store_path = str(self.dir / "store.json")
        tags_path = str(self.dir / "store.json.tags")
        store.save(store_path)
        simulator.save_tags(tags, tags_path)
        self.store = Store.load(store_path)
        self.tags = simulator.load_tags(tags_path)
        self.file_bytes["store"] = (self.dir / "store.json").stat().st_size

    def attack(self) -> list[dict]:
        raise NotImplementedError

    def attack_failed(self, records: list[dict]) -> int:
        return 0


class ModCampaign(Workload):
    """One modified-Gossamer tag under honest traffic, via run_session."""

    name = "mod-campaign"
    protocol = Protocol.GOSSAMER_MOD
    setup_reps = 50
    round_sessions = 500
    round_s = 0.17
    attack_pass_s = 0.02

    def setup(self) -> None:
        self._fleet_setup(1)
        self.tag = self.tags["tag-000"]
        self.rng = NonceStream(self.seed)
        self.forcing = Forcing()
        self.first_round: list = []

    def run_round(self, r: int) -> RoundStats:
        run_session = simulator.run_session
        tag, store, forcing, rng = self.tag, self.store, self.forcing, self.rng
        lat = self.latencies
        first = r * self.round_sessions
        results = []
        start = perf_counter()
        for index in range(first, first + self.round_sessions):
            if lat is None:
                results.append(run_session(tag, store, forcing, rng, index))
            else:
                t0 = thread_time()
                results.append(run_session(tag, store, forcing, rng, index))
                lat.append(thread_time() - t0)
        wall = perf_counter() - start
        self._results = results
        return RoundStats(self.round_sessions, wall)

    def check_round(self, r: int) -> None:
        self._count_sessions([record_from_objects(t, g) for t, g in self._results], r)
        if r == 0:
            self.first_round = self._results
        self._results = []

    def attack(self) -> list[dict]:
        """gossamer-2 against the hardened variant over the first round."""
        transcripts = [t for t, _ in self.first_round]
        truths = [g for _, g in self.first_round]
        records, _ = simulator.evaluate_attack("gossamer-2", transcripts, truths)
        return records

    def attack_failed(self, records: list[dict]) -> int:
        # the paper's claim: the attack that breaks original Gossamer
        # recovers nothing from the modified variant
        return sum(bool(r["verdict"].ground_truth_match) for r in records)

    def final_checks(self) -> None:
        self._check_consistency(self.tags, self.store, set(self.tags))

    def digest(self) -> str:
        digest = Digest()
        for t, g in self.first_round:
            digest.add_line(record_line(record_from_objects(t, g)))
        for record in self.attack():
            digest.add_line(verdict_line(record))
        return digest.hexdigest()


class SasiFleet(Workload):
    """A 10^4-tag SASI fleet with 10% of D messages dropped."""

    name = "sasi-fleet"
    protocol = Protocol.SASI
    setup_reps = 3
    round_sessions = 200
    round_s = 0.32
    attack_pass_s = 0.012
    reference = "fleet"
    # Most sessions are a tag's first, where the reader's next and old
    # tuples are still equal; a denser sample reaches enough repeat
    # sessions to check the reader's tuple rotation.
    check_every = 5
    fleet_size = 10_000
    drop_rate = 0.1
    probes = 16

    def setup(self) -> None:
        self._fleet_setup(self.fleet_size)
        self.labels = sorted(self.tags)
        self.rng = NonceStream(self.seed)
        self.pick = random.Random(f"{self.name}/pick/{self.seed}")
        self.drops = random.Random(f"{self.name}/drop/{self.seed}")
        self.forcing = Forcing()
        self.next_index: Counter = Counter()
        # each tag's latest session, and consecutive sessions of one tag
        # as (first, second, first's ground truth) for the attack step
        self.last: dict = {}
        self.pairs: list = []
        self.first_round: list = []

    def run_round(self, r: int) -> RoundStats:
        run_session = simulator.run_session
        tags, labels, store, forcing, rng = (self.tags, self.labels, self.store,
                                             self.forcing, self.rng)
        pick, drops, next_index = self.pick.randrange, self.drops.random, self.next_index
        lat = self.latencies
        fleet = len(labels)
        results = []
        start = perf_counter()
        for _ in range(self.round_sessions):
            label = labels[pick(fleet)]
            forcing.drop_d = drops() < self.drop_rate
            index = next_index[label]
            next_index[label] = index + 1
            if lat is None:
                results.append((label, run_session(tags[label], store, forcing, rng, index)))
            else:
                t0 = thread_time()
                results.append((label, run_session(tags[label], store, forcing, rng, index)))
                lat.append(thread_time() - t0)
        wall = perf_counter() - start
        self._results = results
        return RoundStats(self.round_sessions, wall)

    def check_round(self, r: int) -> None:
        for label, (t, g) in self._results:
            if label in self.last:
                first, truth = self.last[label]
                self.pairs.append((first, t, truth))
            self.last[label] = (t, g)
        records = [record_from_objects(t, g) for _, (t, g) in self._results]
        self._count_sessions(records, r)
        if r == 0:
            self.first_round = records
        self._results = []

    def attack(self) -> list[dict]:
        """The SASI mod-96 attack over each pair of one tag's consecutive sessions."""
        records: list[dict] = []
        for first, second, truth in self.pairs:
            found, _ = simulator.evaluate_attack("sasi", [first, second], [truth])
            records.extend(found)
        return records

    def final_checks(self) -> None:
        probes = set(random.Random(f"{self.name}/probe/{self.seed}")
                     .sample(self.labels, self.probes))
        self._check_consistency(self.tags, self.store, probes)

    def digest(self) -> str:
        digest = Digest()
        for rec in self.first_round:
            digest.add_line(record_line(rec))
        for record in self.attack():
            digest.add_line(verdict_line(record))
        return digest.hexdigest()


class CliAttackPipeline(Workload):
    """The paper's gossamer-2 experiment end to end through ``cli.main``."""

    name = "cli-attack-pipeline"
    protocol = Protocol.GOSSAMER
    setup_reps = 36
    round_sessions = 1000
    round_s = 0.275
    attack_in_round = True

    def setup(self) -> None:
        self.store_path = str(self.dir / "store.json")
        self.output = self.dir / "campaign.jsonl"
        self.truth = self.dir / "campaign.gt.jsonl"
        self.verdicts = self.dir / "verdicts.jsonl"
        self.round_seeds = random.Random(f"{self.name}/{self.seed}")
        self._cli(["provision", "--count", "1", "--variant", self.protocol.value,
                   "--seed", str(self.seed), "--store", self.store_path])

    def _cli(self, argv: list[str]) -> str:
        out = io.StringIO()
        with self.span(f"cli.{argv[0]}"), redirect_stdout(out):
            code = cli.main(argv)
        self.ledger.count(f"cli {argv[0]}", 1, code != 0, f"(exit {code})")
        return out.getvalue()

    def _campaign(self, argv: list[str]) -> str:
        lat = self.latencies
        if lat is None:
            return self._cli(argv)
        # time each run_session call the CLI's campaign loop makes
        original = simulator.run_session

        def timed(*args, **kwargs):
            t0 = thread_time()
            try:
                return original(*args, **kwargs)
            finally:
                lat.append(thread_time() - t0)

        simulator.run_session = timed
        try:
            return self._cli(argv)
        finally:
            simulator.run_session = original

    def run_round(self, r: int) -> RoundStats:
        seed = self.round_seeds.getrandbits(32)
        t0 = perf_counter()
        self._campaign([
            "campaign", "--sessions", str(self.round_sessions), "--seed", str(seed),
            "--store", self.store_path, "--output", str(self.output),
            "--force-keys", "zero"])
        t1 = perf_counter()
        self._attack_text = self._cli([
            "attack", "gossamer-2", "--input", str(self.output),
            "--ground-truth", str(self.truth), "--output", str(self.verdicts)])
        t2 = perf_counter()
        trials = json.loads(self._attack_text)["trials"] if self._attack_text else 0
        return RoundStats(self.round_sessions, t1 - t0, trials, t2 - t1)

    def check_round(self, r: int) -> None:
        with open(self.output, encoding="utf-8") as t_fh, \
                open(self.truth, encoding="utf-8") as g_fh:
            records = [record_from_json(json.loads(t), json.loads(g))
                       for t, g in zip(t_fh, g_fh)]
        if len(records) != self.round_sessions:
            self.ledger.count("campaign output", 1, 1, f"({len(records)} lines)")
        self._count_sessions(records, r)
        summary = json.loads(self._attack_text) if self._attack_text else {}
        trials, matched = summary.get("trials", 0), summary.get("matched", 0)
        expected = sum(1 for a, b in zip(records, records[1:])
                       if a.outcome == b.outcome == "mutual_success")
        # a trial that does not fire or does not match ground truth fails,
        # and so does every expected trial the attack did not run
        self.ledger.count("gossamer-2 trials", max(trials, expected),
                          max(trials, expected) - matched)
        written = [self.output, self.truth, self.verdicts]
        self.file_bytes["jsonl_written"] += sum(p.stat().st_size for p in written)
        self.file_bytes["jsonl_read"] += sum(p.stat().st_size for p in written[:2])
        self.file_bytes["store"] = Path(self.store_path).stat().st_size

    def final_checks(self) -> None:
        store = Store.load(self.store_path)
        tags = simulator.load_tags(f"{self.store_path}.tags")
        self._check_consistency(tags, store, set(tags))

    def digest(self) -> str:
        digest = Digest()
        for path in (self.output, self.truth, self.verdicts):
            digest.add_bytes(path.read_bytes())
        return digest.hexdigest()


WORKLOADS = {w.name: w for w in (ModCampaign, SasiFleet, CliAttackPipeline)}
