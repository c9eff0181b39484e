"""Per-cohort progress stores behind a pluggable persistence backend.

A :class:`ProgressStore` owns one cohort's :class:`~repro.runestone.Gradebook`
and serializes every mutation through a single lock — the single-writer
discipline that makes concurrent ``submit`` calls from the serving layer
safe (the progress objects themselves also lock; see
:mod:`repro.runestone.progress`).  Every accepted mutation is appended to
a backend as a plain dict record:

* ``{"op": "enroll", "learner": ...}``
* ``{"op": "submit", "learner": ..., "activity_id": ..., "answer": ...}``
* ``{"op": "complete", "learner": ..., "section": ..., "minutes": ...}``

Backends are append-only logs with replay: :class:`MemoryBackend` (the
default; nothing survives the process) and :class:`JsonlBackend` (one
JSON object per line in a file).  Rebuilding a store is
``store.replay()`` — grading is deterministic, so replaying the submit
log reproduces the exact gradebook, which is what makes the log a
sufficient snapshot format.  ``snapshot()`` compacts the log to the
records that still matter.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

from ..runestone.module import Module
from ..runestone.progress import Gradebook, LearnerProgress
from ..runestone.questions import GradeResult

__all__ = [
    "Backend",
    "MemoryBackend",
    "JsonlBackend",
    "ProgressStore",
    "open_backend",
]


class Backend:
    """Append-only record log.  Subclasses override ``append``, ``replay``
    and ``rewrite``; ``close`` releases what the log holds open (nothing
    by default)."""

    def append(self, record: dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def replay(self) -> Iterator[dict[str, Any]]:  # pragma: no cover
        raise NotImplementedError

    def rewrite(self, records: Iterable[dict[str, Any]]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemoryBackend(Backend):
    """In-process log; the default for tests and ephemeral cohorts."""

    def __init__(self) -> None:
        self._records: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def append(self, record: dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)

    def replay(self) -> Iterator[dict[str, Any]]:
        with self._lock:
            snapshot = list(self._records)
        return iter(snapshot)

    def rewrite(self, records: Iterable[dict[str, Any]]) -> None:
        with self._lock:
            self._records = list(records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class JsonlBackend(Backend):
    """One JSON object per line, appended and fsync-free by design.

    The log is opened at the first append and kept open: each record is
    one buffered write and one flush, so it reaches the file (one
    ``write`` system call) before ``append`` returns.  Append-only writes
    survive crashes of everything above them (a torn final line is
    skipped on replay with a note rather than poisoning the whole
    cohort).  ``rewrite`` (used by :meth:`ProgressStore.snapshot`)
    replaces the log atomically via a temp file + rename and closes the
    handle, so the next append opens the new file; :meth:`close` releases
    the handle.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh: BinaryIO | None = None
        self.skipped_lines = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":")).encode() + b"\n"
        with self._lock:
            if self._fh is None:
                self._fh = self.path.open("ab")
            self._fh.write(line)
            self._fh.flush()

    def replay(self) -> Iterator[dict[str, Any]]:
        if not self.path.exists():
            return iter(())
        records: list[dict[str, Any]] = []
        self.skipped_lines = 0
        with self._lock, self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    # Torn tail from a crash mid-append: recoverable.
                    self.skipped_lines += 1
        return iter(records)

    def rewrite(self, records: Iterable[dict[str, Any]]) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with self._lock:
            self._close()
            with tmp.open("w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            tmp.replace(self.path)

    def close(self) -> None:
        with self._lock:
            self._close()

    def _close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def open_backend(spec: str | None, data_dir: str | None, slug: str) -> Backend:
    """Backend factory for the CLI: ``memory`` or ``jsonl`` (+ data dir)."""
    if spec in (None, "memory"):
        return MemoryBackend()
    if spec == "jsonl":
        root = Path(data_dir or "serve-data")
        return JsonlBackend(root / f"{slug}.jsonl")
    raise ValueError(f"unknown persistence backend {spec!r} (memory|jsonl)")


class ProgressStore:
    """One cohort's progress, safe for concurrent mutation.

    All writes funnel through ``self._lock`` *and* are journaled to the
    backend inside the critical section, so the log order is exactly the
    order the gradebook saw.  Reads that return live objects hold the
    lock only to fetch references; aggregate reads (:meth:`gradebook_report`)
    compute under the lock for a consistent view.
    """

    def __init__(self, module: Module, backend: Backend | None = None) -> None:
        self.module = module
        self.backend = backend or MemoryBackend()
        self.gradebook = Gradebook(module)
        self._lock = threading.RLock()

    # ------------------------------------------------------------- mutation
    def enroll(self, learner: str) -> tuple[LearnerProgress, bool]:
        """Idempotent enrollment: (progress, created?)."""
        if not learner or not isinstance(learner, str):
            raise ValueError("learner name must be a non-empty string")
        with self._lock:
            existing = self.gradebook.records.get(learner)
            if existing is not None:
                return existing, False
            progress = self.gradebook.enroll(learner)
            self.backend.append({"op": "enroll", "learner": learner})
            return progress, True

    def submit(self, learner: str, activity_id: str, answer: Any) -> GradeResult:
        """Grade + record one submission (KeyError on unknown ids)."""
        with self._lock:
            progress = self._progress(learner)
            result = progress.submit(activity_id, answer)
            self.backend.append(
                {
                    "op": "submit",
                    "learner": learner,
                    "activity_id": activity_id,
                    "answer": _jsonable(answer),
                }
            )
            return result

    def complete(
        self, learner: str, section: str, minutes: float | None = None
    ) -> None:
        with self._lock:
            progress = self._progress(learner)
            progress.complete_section(section, minutes)
            self.backend.append(
                {
                    "op": "complete",
                    "learner": learner,
                    "section": section,
                    "minutes": minutes,
                }
            )

    # -------------------------------------------------------------- queries
    def _progress(self, learner: str) -> LearnerProgress:
        try:
            return self.gradebook.records[learner]
        except KeyError:
            raise KeyError(f"learner {learner!r} is not enrolled") from None

    def learners(self) -> list[str]:
        with self._lock:
            return sorted(self.gradebook.records)

    def progress(self, learner: str) -> LearnerProgress:
        with self._lock:
            return self._progress(learner)

    def gradebook_report(self) -> dict[str, Any]:
        """The instructor view, computed under the lock for consistency.

        One pass over each learner's attempts yields the values the
        :class:`LearnerProgress` properties and
        :meth:`Gradebook.hardest_questions` compute by rescanning them per
        question; the module's questions and sections are read once.
        """
        with self._lock:
            question_ids = [q.activity_id for q in self.module.all_questions()]
            distinct = set(question_ids)
            sections = sum(1 for _ in self.module.all_sections())
            # activity id -> [learners whose first attempt was right, learners who tried]
            firsts = {aid: [0, 0] for aid in distinct}
            finished = 0
            records = {}
            for name, p in sorted(self.gradebook.records.items()):
                best: dict[str, float] = {}
                solved: set[str] = set()
                for attempt in p.attempts:
                    aid, result = attempt.activity_id, attempt.result
                    if aid not in best:
                        best[aid] = result.score
                        if aid in firsts:
                            firsts[aid][0] += result.correct
                            firsts[aid][1] += 1
                    elif result.score > best[aid]:
                        best[aid] = result.score
                    if result.correct:
                        solved.add(aid)
                completion = len(p.completed_sections) / sections if sections else 1.0
                finished += completion == 1.0
                score = 1.0
                if question_ids:
                    score = sum(best.get(aid, 0.0) for aid in question_ids) / len(
                        question_ids
                    )
                records[name] = {
                    "attempts": len(p.attempts),
                    "questions_correct": len(solved & distinct),
                    "completion": completion,
                    "score": score,
                    "minutes": p.minutes_spent,
                }
            hardest = sorted(
                (
                    (aid, firsts[aid][0] / firsts[aid][1])
                    for aid in question_ids
                    if firsts[aid][1]
                ),
                key=lambda row: row[1],
            )
            return {
                "module": self.module.slug,
                "learners": len(records),
                "completion_rate": finished / len(records) if records else 0.0,
                "hardest_questions": [
                    {"activity_id": aid, "first_attempt_rate": rate}
                    for aid, rate in hardest
                ],
                "records": records,
            }

    # ------------------------------------------------------ snapshot/replay
    def replay(self) -> int:
        """Rebuild state from the backend log; returns records applied.

        Unknown learners/activities in the log (e.g. the module shrank
        between runs) are skipped rather than fatal: a serving layer must
        boot on the history it has.
        """
        applied = 0
        with self._lock:
            for record in self.backend.replay():
                try:
                    op = record.get("op")
                    if op == "enroll":
                        if record["learner"] not in self.gradebook.records:
                            self.gradebook.enroll(record["learner"])
                    elif op == "submit":
                        self._progress(record["learner"]).submit(
                            record["activity_id"], record["answer"]
                        )
                    elif op == "complete":
                        self._progress(record["learner"]).complete_section(
                            record["section"], record.get("minutes")
                        )
                    else:
                        continue
                    applied += 1
                except (KeyError, TypeError, ValueError):
                    continue
        return applied

    def snapshot(self) -> int:
        """Compact the backend log to the current state; returns records kept."""
        with self._lock:
            records: list[dict[str, Any]] = []
            for learner, progress in self.gradebook.records.items():
                records.append({"op": "enroll", "learner": learner})
                for attempt in progress.attempts:
                    records.append(
                        {
                            "op": "submit",
                            "learner": learner,
                            "activity_id": attempt.activity_id,
                            "answer": _jsonable(attempt.answer),
                        }
                    )
                for section in sorted(progress.completed_sections):
                    records.append(
                        {
                            "op": "complete",
                            "learner": learner,
                            "section": section,
                            "minutes": None,
                        }
                    )
            self.backend.rewrite(records)
            return len(records)


def _jsonable(answer: Any) -> Any:
    """Best-effort JSON projection of an answer for the journal.

    Answers arriving over HTTP are already JSON values; direct API users
    may pass anything, and a journaling failure must not lose the graded
    attempt — degrade to ``repr`` instead.
    """
    try:
        json.dumps(answer)
        return answer
    except (TypeError, ValueError):
        return {"__repr__": repr(answer)}
