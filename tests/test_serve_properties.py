"""Properties of the served routes, over generated requests.

* No request — any method, path, query string and body — is answered
  with a 5xx, and none escapes the app as an exception.
* Any JSON value submitted as an answer is graded (200) or refused (400),
  and the cohort's journal holds one line per accepted mutation.
* Under any interleaving of reads and edits, a read returns exactly the
  bytes its payload encodes to from the live module at its current
  version, so no cached body outlives an edit.
"""

from __future__ import annotations

import json
from urllib.parse import quote, urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runestone import build_distributed_module, build_raspberry_pi_module
from repro.serve import Client, CourseApp, demo_registry
from repro.serve.asgi import run_app

from tests.test_serve_cache import expected_body

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
INSTRUCTOR = ("x-instructor-key", "instructor")
COHORTS = {"raspberry-pi-handout": "pi-2020", "mpi-distributed-handout": "mpi-2020"}
MODULE_IDS = list(COHORTS)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)

# Path segments and query keys: the route vocabulary mixed with anything.
words = st.sampled_from(
    ["m", "join", "submit", "edit", "gradebook", "healthz", "readyz", "metricz",
     "cohorts", "PI2020", "MPI2020", "pi-2020", "mpi-2020", *MODULE_IDS]
) | st.text(max_size=10)
bodies = st.binary(max_size=64) | st.builds(
    lambda doc: json.dumps(doc).encode(),
    st.dictionaries(
        st.sampled_from(["learner", "cohort", "activity_id", "answer"]) | st.text(max_size=6),
        json_values,
        max_size=5,
    ),
)


@pytest.fixture(scope="module")
def app():
    app = CourseApp(metrics_name=None)
    yield app
    app.close()


@PROPERTY
@given(
    method=st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD"])
    | st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=7),
    segments=st.lists(words, max_size=4),
    query=st.lists(
        st.tuples(st.sampled_from(["format", "section"]) | st.text(max_size=6),
                  st.sampled_from(["html", "text", "1.1", "2.3"]) | st.text(max_size=6)),
        max_size=3,
    ),
    body=bodies,
    keyed=st.booleans(),
)
def test_no_request_gets_a_server_error(app, method, segments, query, body, keyed):
    target = "/" + "/".join(quote(s, safe="") for s in segments)
    if query:
        target += "?" + urlencode(query)
    response = run_app(
        app, method, target, body=body, headers=[INSTRUCTOR] if keyed else []
    )
    assert response.status < 500, (method, target, body, response.body)
    assert isinstance(response.json(), (dict, list))


@pytest.fixture(scope="module")
def journaled(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("journals")
    app = CourseApp(demo_registry(backend="jsonl", data_dir=str(data_dir)), metrics_name=None)
    client = Client(app)
    accepted = {}
    for module_id, cohort in COHORTS.items():
        code = app.registry.cohort(cohort).class_code
        assert client.post(f"/join/{code}", json_body={"learner": "prop"}).status == 201
        accepted[cohort] = 1
    yield app, client, data_dir, accepted
    app.close()


@settings(PROPERTY, max_examples=40)
@given(answer=json_values)
def test_any_answer_is_graded_or_refused_and_journaled_once(journaled, answer):
    app, client, data_dir, accepted = journaled
    for module_id, cohort in COHORTS.items():
        for question in app.registry.module(module_id).all_questions():
            r = client.post(
                f"/m/{module_id}/submit",
                json_body={"cohort": cohort, "learner": "prop",
                           "activity_id": question.activity_id, "answer": answer},
            )
            assert r.status in (200, 400), (question.activity_id, answer, r.body)
            accepted[cohort] += r.status == 200
        with open(data_dir / f"{cohort}.jsonl", "rb") as fh:
            assert sum(1 for _ in fh) == accepted[cohort]


SECTIONS = {
    module.slug: [s.number for s in module.all_sections()]
    for module in (build_raspberry_pi_module(), build_distributed_module())
}
reads = st.sampled_from(MODULE_IDS).flatmap(
    lambda module_id: st.tuples(
        st.just("read"),
        st.just(module_id),
        st.sampled_from(["html", "text"]),
        st.none() | st.sampled_from(SECTIONS[module_id]),
    )
)
edits = st.tuples(st.just("edit"), st.sampled_from(MODULE_IDS), st.none() | st.text(max_size=8))


@settings(PROPERTY, max_examples=60)
@given(ops=st.lists(reads | edits, min_size=1, max_size=12))
def test_reads_return_the_live_module_after_any_edits(app, ops):
    client = Client(app, headers=[INSTRUCTOR])
    for op in ops:
        if op[0] == "edit":
            _, module_id, title = op
            if title is None:
                assert client.post(f"/m/{module_id}/edit").status == 200
            else:
                app.registry.edit_module(module_id, lambda m: setattr(m, "title", title))
            continue
        _, module_id, fmt, section = op
        target = f"/m/{module_id}?format={fmt}"
        if section is not None:
            target += f"&section={section}"
        r = client.get(target)
        assert r.status == 200
        assert r.body == expected_body(app, module_id, fmt, section), target
