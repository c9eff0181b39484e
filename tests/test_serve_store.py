"""Persistence: backends, snapshot/replay, and the concurrent-submit hammer."""

from __future__ import annotations

import json
import os
import random
import sys
import threading
from pathlib import Path

import pytest

from repro.runestone import build_distributed_module, build_raspberry_pi_module
from repro.runestone.module import Module
from repro.serve import Client, CourseApp, demo_registry
from repro.serve.load import answer_pool
from repro.serve.store import (
    JsonlBackend,
    MemoryBackend,
    ProgressStore,
    open_backend,
)


@pytest.fixture(scope="module")
def module():
    return build_raspberry_pi_module()


@pytest.fixture()
def store(module):
    return ProgressStore(module)


class TestBackends:
    def test_memory_round_trip(self):
        backend = MemoryBackend()
        backend.append({"op": "enroll", "learner": "a"})
        backend.append({"op": "enroll", "learner": "b"})
        assert [r["learner"] for r in backend.replay()] == ["a", "b"]
        backend.rewrite([{"op": "enroll", "learner": "c"}])
        assert len(backend) == 1

    def test_jsonl_round_trip(self, tmp_path):
        backend = JsonlBackend(tmp_path / "log.jsonl")
        backend.append({"op": "enroll", "learner": "a"})
        backend.append({"op": "submit", "learner": "a", "answer": [1, 2]})
        records = list(backend.replay())
        assert records[1]["answer"] == [1, 2]
        backend.close()

    def test_jsonl_skips_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        backend = JsonlBackend(path)
        backend.append({"op": "enroll", "learner": "a"})
        with path.open("a") as fh:
            fh.write('{"op": "enroll", "lear')  # crash mid-append
        records = list(backend.replay())
        assert len(records) == 1 and backend.skipped_lines == 1
        backend.close()

    def test_jsonl_rewrite_is_atomic(self, tmp_path):
        path = tmp_path / "log.jsonl"
        backend = JsonlBackend(path)
        backend.append({"op": "enroll", "learner": "a"})
        backend.rewrite([{"op": "enroll", "learner": "z"}])
        assert not path.with_suffix(".jsonl.tmp").exists()
        assert [r["learner"] for r in backend.replay()] == ["z"]

    def test_jsonl_missing_file_replays_empty(self, tmp_path):
        assert list(JsonlBackend(tmp_path / "none.jsonl").replay()) == []

    def test_open_backend_factory(self, tmp_path):
        assert isinstance(open_backend(None, None, "x"), MemoryBackend)
        assert isinstance(open_backend("memory", None, "x"), MemoryBackend)
        jb = open_backend("jsonl", str(tmp_path), "pi")
        assert isinstance(jb, JsonlBackend) and jb.path.name == "pi.jsonl"
        with pytest.raises(ValueError, match="unknown persistence"):
            open_backend("sqlite", None, "x")


class TestProgressStore:
    def test_enroll_is_idempotent(self, store):
        p1, created1 = store.enroll("alice")
        p2, created2 = store.enroll("alice")
        assert created1 and not created2 and p1 is p2
        assert store.learners() == ["alice"]

    def test_enroll_rejects_bad_names(self, store):
        with pytest.raises(ValueError):
            store.enroll("")
        with pytest.raises(ValueError):
            store.enroll(None)

    def test_submit_requires_enrollment(self, store):
        with pytest.raises(KeyError, match="not enrolled"):
            store.submit("ghost", "sp_mc_1", "A")

    def test_submit_journals_inside_the_lock(self, store):
        store.enroll("alice")
        store.submit("alice", "sp_mc_1", "A")
        ops = [r["op"] for r in store.backend.replay()]
        assert ops == ["enroll", "submit"]

    def test_unjsonable_answer_degrades_to_repr(self, store):
        store.enroll("alice")
        store.submit("alice", "sp_mc_1", object())
        record = list(store.backend.replay())[-1]
        assert "__repr__" in record["answer"]
        # The journal line itself must be serializable.
        json.dumps(record)

    def test_gradebook_report_shape(self, store):
        store.enroll("alice")
        store.submit("alice", "sp_mc_1", "zzz")  # wrong
        report = store.gradebook_report()
        assert report["learners"] == 1
        assert report["records"]["alice"]["attempts"] == 1
        assert report["hardest_questions"][0]["activity_id"] == "sp_mc_1"


class TestSnapshotReplay:
    def test_replay_reproduces_the_gradebook(self, module, tmp_path):
        backend = JsonlBackend(tmp_path / "c.jsonl")
        store = ProgressStore(module, backend)
        store.enroll("alice")
        store.submit("alice", "sp_mc_1", "A")
        store.complete("alice", "1.1")
        original = store.gradebook_report()

        rebuilt = ProgressStore(module, JsonlBackend(tmp_path / "c.jsonl"))
        assert rebuilt.replay() == 3
        assert rebuilt.gradebook_report() == original
        backend.close()

    def test_replay_skips_unknown_ids(self, module):
        backend = MemoryBackend()
        backend.append({"op": "enroll", "learner": "a"})
        backend.append({"op": "submit", "learner": "a", "activity_id": "gone_1",
                        "answer": "A"})
        backend.append({"op": "submit", "learner": "ghost", "activity_id": "sp_mc_1",
                        "answer": "A"})
        backend.append({"op": "dance"})
        backend.append({"bad": "record"})
        store = ProgressStore(module, backend)
        assert store.replay() == 1  # just the enroll survives
        assert store.learners() == ["a"]

    def test_snapshot_compacts_and_preserves_state(self, module, tmp_path):
        backend = JsonlBackend(tmp_path / "c.jsonl")
        store = ProgressStore(module, backend)
        store.enroll("alice")
        for _ in range(5):
            store.submit("alice", "sp_mc_1", "zzz")
        before = store.gradebook_report()
        kept = store.snapshot()
        assert kept == 6  # 1 enroll + 5 attempts (attempt history is state)
        rebuilt = ProgressStore(module, JsonlBackend(tmp_path / "c.jsonl"))
        rebuilt.replay()
        assert rebuilt.gradebook_report() == before


class TestConcurrentSubmits:
    """The satellite-1 regression: hammer submit; no attempt may be lost."""

    THREADS = 8
    PER_THREAD = 25

    def test_same_learner_no_lost_attempts(self, store):
        store.enroll("alice")
        barrier = threading.Barrier(self.THREADS)

        def hammer():
            barrier.wait()
            for _ in range(self.PER_THREAD):
                store.submit("alice", "sp_mc_1", "A")

        threads = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        total = self.THREADS * self.PER_THREAD
        progress = store.progress("alice")
        assert len(progress.attempts) == total
        assert len(list(store.backend.replay())) == total + 1  # + enroll

    def test_mixed_learners_and_enrolls(self, store):
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker: int):
            name = f"learner-{worker % 4}"  # deliberate enroll collisions
            barrier.wait()
            store.enroll(name)
            for _ in range(self.PER_THREAD):
                store.submit(name, "sp_mc_1", "A")

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        report = store.gradebook_report()
        assert report["learners"] == 4
        total_attempts = sum(r["attempts"] for r in report["records"].values())
        assert total_attempts == self.THREADS * self.PER_THREAD

    def test_progress_submit_is_thread_safe_directly(self, module):
        """LearnerProgress's own lock holds without the store layer."""
        from repro.runestone.progress import LearnerProgress

        progress = LearnerProgress("solo", module)
        threads = [
            threading.Thread(
                target=lambda: [
                    progress.submit("sp_mc_1", "A") for _ in range(self.PER_THREAD)
                ]
            )
            for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(progress.attempts) == self.THREADS * self.PER_THREAD

    def test_racing_gradebook_enrolls_one_winner(self, module):
        from repro.runestone.progress import Gradebook

        gradebook = Gradebook(module)
        outcomes: list[str] = []
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            try:
                gradebook.enroll("dup")
                outcomes.append("won")
            except ValueError:
                outcomes.append("lost")

        threads = [threading.Thread(target=race) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("won") == 1 and len(gradebook.records) == 1


class TestOpenJournal:
    """The JSONL journal stays open between appends: each record still
    reaches the file before its request returns, a snapshot's rename is
    followed, and closing the app releases every handle."""

    def test_record_is_on_disk_before_anything_closes(self, tmp_path):
        app = CourseApp(
            demo_registry(backend="jsonl", data_dir=str(tmp_path)), metrics_name=None
        )
        try:
            r = Client(app).post("/join/PI2020", json_body={"learner": "alice"})
            assert r.status == 201
            fresh = JsonlBackend(tmp_path / "pi-2020.jsonl")
            assert list(fresh.replay()) == [{"op": "enroll", "learner": "alice"}]
        finally:
            app.close()

    def test_append_after_snapshot_lands_in_the_compacted_log(self, module, tmp_path):
        path = tmp_path / "c.jsonl"
        store = ProgressStore(module, JsonlBackend(path))
        store.enroll("alice")
        for _ in range(3):
            store.submit("alice", "sp_mc_1", "zzz")
        kept = store.snapshot()
        compacted = list(JsonlBackend(path).replay())
        assert len(compacted) == kept == 4
        store.submit("alice", "sp_mc_1", "A")
        assert list(JsonlBackend(path).replay()) == compacted + [
            {"op": "submit", "learner": "alice", "activity_id": "sp_mc_1", "answer": "A"}
        ]
        store.backend.close()

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_close_releases_every_journal(self, tmp_path):
        def journal_fds() -> list[str]:
            targets = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    targets.append(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:
                    continue
            return [t for t in targets if t.startswith(str(tmp_path))]

        app = CourseApp(
            demo_registry(backend="jsonl", data_dir=str(tmp_path)), metrics_name=None
        )
        client = Client(app)
        for code in ("PI2020", "MPI2020"):
            assert client.post(f"/join/{code}", json_body={"learner": "a"}).status == 201
        assert len(journal_fds()) == 2
        app.close()
        assert journal_fds() == []

    def test_journal_order_is_gradebook_order(self, module, tmp_path):
        store = ProgressStore(module, JsonlBackend(tmp_path / "c.jsonl"))
        store.enroll("alice")
        barrier = threading.Barrier(4)

        def hammer(worker: int):
            barrier.wait()
            for i in range(50):
                store.submit("alice", "sp_mc_1", f"{worker}-{i}")

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        store.backend.close()
        journaled = [
            r["answer"] for r in JsonlBackend(tmp_path / "c.jsonl").replay()
            if r["op"] == "submit"
        ]
        assert journaled == [a.answer for a in store.progress("alice").attempts]


def reference_report(store: ProgressStore) -> dict:
    """The gradebook as the per-learner properties compute it."""
    gradebook = store.gradebook
    records = {
        name: {
            "attempts": len(p.attempts),
            "questions_correct": p.questions_answered_correctly,
            "completion": p.completion_fraction,
            "score": p.question_score,
            "minutes": p.minutes_spent,
        }
        for name, p in sorted(gradebook.records.items())
    }
    return {
        "module": store.module.slug,
        "learners": len(records),
        "completion_rate": gradebook.completion_rate(),
        "hardest_questions": [
            {"activity_id": aid, "first_attempt_rate": rate}
            for aid, rate in gradebook.hardest_questions()
        ],
        "records": records,
    }


def random_cohort(module: Module, seed: int, learners: int | None = None) -> ProgressStore:
    """A seeded cohort: repeated right, wrong and partly right attempts in
    random order, and some learners with every section completed."""
    rng = random.Random(seed)
    store = ProgressStore(module)
    answers = []
    for aid, right, wrong in answer_pool(module):
        choices = [wrong] if right is None else [right, wrong]
        if isinstance(right, dict) and len(right) > 1:
            partial = dict(right)
            partial[next(iter(partial))] = "not-this-one"
            choices.append(partial)
        answers.append((aid, choices))
    sections = [s.number for s in module.all_sections()]
    for j in range(rng.randint(0, 30) if learners is None else learners):
        name = f"learner-{rng.randrange(10 ** 6)}-{j}"
        store.enroll(name)
        for _ in range(rng.randint(0, 12)):
            aid, choices = rng.choice(answers)
            store.submit(name, aid, rng.choice(choices))
        done = sections if rng.random() < 0.3 else rng.sample(
            sections, rng.randint(0, len(sections))
        )
        for number in done:
            store.complete(name, number, rng.choice((None, rng.uniform(0, 20))))
    return store


MODULES = [build_raspberry_pi_module(), build_distributed_module()]


class TestOnePassGradebook:
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("which", range(len(MODULES)), ids=["pi", "mpi"])
    def test_matches_the_reference(self, which, seed):
        store = random_cohort(MODULES[which], seed)
        assert store.gradebook_report() == reference_report(store)

    @pytest.mark.parametrize("learners", [0, 10, 200])
    def test_reads_the_questions_once_per_report(self, monkeypatch, learners):
        store = random_cohort(MODULES[0], seed=learners, learners=learners)
        calls = []
        all_questions = Module.all_questions

        def counted(self):
            calls.append(1)
            return all_questions(self)

        monkeypatch.setattr(Module, "all_questions", counted)
        report = store.gradebook_report()
        assert report["learners"] == learners
        assert len(calls) == 1
