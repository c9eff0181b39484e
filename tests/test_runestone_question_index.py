"""``Module.find_question`` answers from an activity-id index.

Every submission (and every replayed journal record) looks its question
up; the index must give exactly what a scan of the module gives, and
follow ``Module.add``, ``Module.reindex`` and ``CohortRegistry.edit_module``.
"""

from __future__ import annotations

import pytest

from repro.runestone import (
    Chapter,
    FillInTheBlank,
    Module,
    Section,
    build_distributed_module,
    build_raspberry_pi_module,
)
from repro.serve import Client, CourseApp, demo_registry

PI = "raspberry-pi-handout"


def _scan(module: Module, activity_id: str):
    for q in module.all_questions():
        if q.activity_id == activity_id:
            return q
    raise KeyError(activity_id)


def _no_scan(monkeypatch) -> None:
    monkeypatch.setattr(Module, "all_questions", lambda self: pytest.fail("scanned"))


def _blank(activity_id: str, answer: float = 4) -> FillInTheBlank:
    return FillInTheBlank(activity_id=activity_id, prompt="?", numeric_answer=answer)


class TestIndexMatchesTheScan:
    @pytest.mark.parametrize(
        "build", [build_raspberry_pi_module, build_distributed_module], ids=["pi", "mpi"]
    )
    def test_every_shipped_question(self, build):
        module = build()
        questions = module.all_questions()
        assert questions
        for q in questions:
            assert module.find_question(q.activity_id) is _scan(module, q.activity_id)

    def test_a_hit_scans_nothing(self, monkeypatch):
        module = build_raspberry_pi_module()
        last = module.all_questions()[-1]
        _no_scan(monkeypatch)
        assert module.find_question(last.activity_id) is last

    def test_duplicate_id_resolves_to_the_first_like_the_scan(self):
        first, second = _blank("dup", 1), _blank("dup", 2)
        module = Module("m", "M", "a").add(
            Chapter(1, "c").add(Section("1.1", "s").add(first, second))
        )
        assert module.find_question("dup") is first is _scan(module, "dup")



class TestReindexing:
    def test_add_reindexes(self, monkeypatch):
        module = Module("m", "M", "a")
        with pytest.raises(KeyError):
            module.find_question("q")
        q = _blank("q")
        module.add(Chapter(1, "c").add(Section("1.1", "s").add(q)))
        _no_scan(monkeypatch)
        assert module.find_question("q") is q

    def test_reindex_makes_a_late_question_findable(self, monkeypatch):
        section = Section("1.1", "s")
        module = Module("m", "M", "a").add(Chapter(1, "c").add(section))
        late = _blank("late")
        section.add(late)  # behind the index's back
        with pytest.raises(KeyError):
            module.find_question("late")
        module.reindex()
        _no_scan(monkeypatch)
        assert module.find_question("late") is late

    def test_constructed_with_chapters_is_indexed(self, monkeypatch):
        q = _blank("q")
        module = Module("m", "M", "a", chapters=[Chapter(1, "c").add(Section("1.1", "s").add(q))])
        _no_scan(monkeypatch)
        assert module.find_question("q") is q


class TestEditsThroughTheRegistry:
    @pytest.fixture()
    def app(self):
        app = CourseApp(demo_registry(), metrics_name=None)
        yield app
        app.close()

    @pytest.fixture()
    def client(self, app):
        client = Client(app)
        assert client.post("/join/PI2020", json_body={"learner": "ada"}).status == 201
        return client

    @staticmethod
    def _submit(client, activity_id, answer):
        return client.post(f"/m/{PI}/submit", json_body={
            "cohort": "pi-2020", "learner": "ada",
            "activity_id": activity_id, "answer": answer,
        })

    def test_removed_question_is_refused(self, app, client):
        question = app.registry.module(PI).all_questions()[0]
        assert self._submit(client, question.activity_id, "?").status == 200

        def remove(module):
            for section in module.all_sections():
                section.blocks[:] = [b for b in section.blocks if b is not question]

        app.registry.edit_module(PI, edit=remove)
        r = self._submit(client, question.activity_id, "?")
        assert r.status == 404
        assert r.json()["error"]["code"] == "unknown_activity"

    def test_added_question_is_graded(self, app, client, monkeypatch):
        new = _blank("pi_cores_blank", 4)
        app.registry.edit_module(PI, edit=lambda m: next(m.all_sections()).add(new))
        _no_scan(monkeypatch)
        r = self._submit(client, "pi_cores_blank", 4)
        assert r.status == 200
        assert r.json()["correct"] is True and r.json()["activity_id"] == "pi_cores_blank"
