"""The ``serve_cohort`` workload: workshop cohorts on the served handout.

Closed loop, two client threads, no think time, against ``CourseApp`` with
its default admission settings and JSONL persistence, driven through
``repro.serve.Client``.  The server is booted from a seeded journal of an
earlier session.  Each round is one cohort's workshop: its learners join,
read the module and most of its sections, and answer one or two questions
wrong then right; the instructor polls the cohort's gradebook twice, and
every few rounds edits a module and reads it back.

Request times fall into classes -- section reads, module reads, joins and
submissions, gradebook polls -- with little overlap, and a percentile near
the edge between two classes swings between them from run to run.  With
eight to eleven section reads per learner, section reads are about two
thirds of all requests, so the median lies inside them and the 90th
percentile inside the joins and submissions.

A round uses a cohort of its own, and a server session runs one round on
each of its ``COHORTS`` cohorts; then the server is closed and the next
session boots a new one from a fresh copy of the seeded journal.
``ProgressStore`` keeps every learner it has seen and the gradebook scans
them all, so one server fed for a whole run would make each poll slower
than the last (about 80 us per learner here), and its memory would grow
with the requests the run completed: a faster program would read as a
larger one.  Sessions of a fixed size keep every round the same work and
the peak memory that of one session.
"""

from __future__ import annotations

import copy
import gc
import itertools
import json
import shutil
import threading
import time
from array import array
from pathlib import Path
from typing import Any

import benchlib as bl

COHORTS = 128             # rounds per server session, one cohort each
EARLIER_LEARNERS = 8      # per cohort, in the seeded journal
LEARNERS_PER_ROUND = 40
EDIT_EVERY = 4            # rounds between module edits
CLIENTS = 2
INSTRUCTOR_KEY = "instructor"

READ_KEYS = {"module", "title", "version", "format", "section", "activities", "rendered"}
SUBMIT_KEYS = {"activity_id", "correct", "score", "feedback"}
GRADEBOOK_KEYS = {"module", "learners", "completion_rate", "hardest_questions", "records"}


def cohort_slug(index: int) -> str:
    return f"ws-{index:03d}"


def class_code(index: int) -> str:
    return f"WS{index:03d}"


def earlier_learner(cohort: int, j: int) -> str:
    return f"earlier-{cohort:03d}-{j}"


# ---------------------------------------------------------------------------
# Inputs: answers picked from the modules' question data, the earlier
# session's journal, and each round's plan
# ---------------------------------------------------------------------------

def answer_pair(question: Any) -> tuple[Any, Any] | None:
    """(right, wrong) answers read off a question's data, or None if the
    question's answer cannot be read off (a free-text pattern)."""
    from repro.runestone.questions import (
        DragAndDrop,
        FillInTheBlank,
        MultipleChoice,
        OrderingProblem,
    )

    if isinstance(question, MultipleChoice):
        wrong = next(c.label for c in question.choices if c.label != question.correct_label)
        return question.correct_label, wrong
    if isinstance(question, FillInTheBlank):
        if question.numeric_answer is None:
            return None
        return question.numeric_answer, question.numeric_answer + 2 * question.tolerance + 1.0
    if isinstance(question, DragAndDrop):
        right = dict(question.pairs)
        terms = [t for t, _ in question.pairs]
        defs = [d for _, d in question.pairs]
        wrong = dict(zip(terms, defs[1:] + defs[:1])) if len(defs) > 1 else {terms[0]: ""}
        return right, wrong
    if isinstance(question, OrderingProblem):
        return list(question.steps), list(reversed(question.steps))
    return None


class ModuleInfo:
    """What the benchmark reads off one module before the server boots."""

    def __init__(self, module: Any) -> None:
        self.slug = module.slug
        self.sections = [s.number for s in module.all_sections()]
        self.questions = []
        for q in module.all_questions():
            pair = answer_pair(q)
            if pair is not None:
                self.questions.append((q.activity_id, *pair))


class Expected:
    """The benchmark's own log: learners, attempts and journal records."""

    def __init__(self) -> None:
        self.attempts: list[dict[str, int]] = [dict() for _ in range(COHORTS)]
        self.records = [0] * COHORTS
        self.versions: dict[str, int] = {}

    def enroll(self, cohort: int, learner: str) -> None:
        self.attempts[cohort][learner] = 0
        self.records[cohort] += 1

    def submit(self, cohort: int, learner: str) -> None:
        self.attempts[cohort][learner] += 1
        self.records[cohort] += 1


def pick_answers(rng, info: ModuleInfo) -> list[tuple[str, Any, bool]]:
    """One or two questions, each answered wrong then right."""
    chosen = rng.sample(info.questions, rng.randint(1, 2))
    return [
        (aid, answer, ok)
        for aid, right, wrong in chosen
        for answer, ok in ((wrong, False), (right, True))
    ]


def write_earlier_session(seed: int, infos: list[ModuleInfo], data_dir: Path,
                          expected: Expected) -> int:
    """The seeded journal a server boots from: one JSONL file per cohort."""
    rng = bl.rng_for("serve_cohort", seed, "journal")
    data_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    for c in range(COHORTS):
        info = infos[c % len(infos)]
        lines = []
        for j in range(EARLIER_LEARNERS):
            learner = earlier_learner(c, j)
            lines.append({"op": "enroll", "learner": learner})
            expected.enroll(c, learner)
            for aid, answer, _ok in pick_answers(rng, info):
                lines.append({"op": "submit", "learner": learner,
                              "activity_id": aid, "answer": answer})
                expected.submit(c, learner)
        with open(data_dir / f"{cohort_slug(c)}.jsonl", "w", encoding="utf-8") as fh:
            for record in lines:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        total += len(lines)
    return total


def round_plan(seed: int, rnd: int, infos: list[ModuleInfo]) -> list[tuple]:
    """The items of one round, in the order the two clients take them.

    ``("learner", cohort, name, format, sections, answers)``,
    ``("gradebook", cohort)`` and ``("edit", module_slug)``.
    """
    rng = bl.rng_for("serve_cohort", seed, "round", rnd)
    cohort = rnd % COHORTS
    info = infos[cohort % len(infos)]
    items: list[tuple] = []
    for j in range(LEARNERS_PER_ROUND):
        sections = rng.sample(info.sections, rng.randint(8, 11))
        items.append(("learner", cohort, f"r{rnd}-{j}", rng.choice(("html", "text")),
                      sections, pick_answers(rng, info)))
        if j == LEARNERS_PER_ROUND // 2 - 1:
            items.append(("gradebook", cohort))
    items.append(("gradebook", cohort))
    if rnd % EDIT_EVERY == 0:
        edited = infos[(rnd // EDIT_EVERY) % len(infos)].slug
        items.insert(rng.randrange(len(items) + 1), ("edit", edited))
    return items


# ---------------------------------------------------------------------------
# Output checks (pure functions; a reason string means the check failed)
# ---------------------------------------------------------------------------

def check_response(kind: str, expect: dict, status: int | None, body: bytes) -> str | None:
    if status != expect["status"]:
        return f"{kind}: status {status}, expected {expect['status']}"
    try:
        doc = json.loads(body)
    except ValueError:
        return f"{kind}: body is not JSON"
    if not isinstance(doc, dict):
        return f"{kind}: body is not a JSON object"
    if kind == "join":
        if doc.get("cohort") != expect["cohort"] or doc.get("learner") != expect["learner"]:
            return "join: wrong cohort or learner"
        if doc.get("already_enrolled") is not False:
            return "join: first join reported as already enrolled"
    elif kind in ("read", "section", "reread"):
        if set(doc) != READ_KEYS:
            return f"{kind}: keys {sorted(doc)}"
        if doc["module"] != expect["module"] or doc["format"] != expect["format"]:
            return f"{kind}: wrong module or format"
        if doc["section"] != expect.get("section"):
            return f"{kind}: wrong section"
        rendered = doc["rendered"]
        if not isinstance(rendered, str) or not rendered:
            return f"{kind}: empty render"
        if kind == "section" and not rendered.startswith(expect["section"] + " "):
            return "section: render does not open with its section number"
        if not isinstance(doc["version"], int) or doc["version"] < 1:
            return f"{kind}: bad version"
        if kind == "reread" and doc["version"] != expect["version"]:
            return f"reread: version {doc['version']}, expected {expect['version']}"
    elif kind == "submit":
        if set(doc) != SUBMIT_KEYS or doc["activity_id"] != expect["activity_id"]:
            return "submit: wrong shape or activity"
        if doc["correct"] is not expect["correct"]:
            return f"submit: correct={doc['correct']}, expected {expect['correct']}"
        if not 0.0 <= doc["score"] <= 1.0:
            return "submit: score out of [0, 1]"
    elif kind == "gradebook":
        if set(doc) != GRADEBOOK_KEYS or doc["learners"] != len(doc["records"]):
            return "gradebook: wrong shape"
        missing = [n for n in expect["present"] if n not in doc["records"]]
        if missing:
            return f"gradebook: missing learners {missing[:3]}"
    elif kind == "edit":
        if doc != {"module": expect["module"], "version": expect["version"]}:
            return f"edit: {doc}"
    return None


def check_gradebook(doc: dict, attempts: dict[str, int]) -> str | None:
    """The gradebook lists exactly these learners with these attempt counts."""
    records = doc.get("records")
    if not isinstance(records, dict):
        return "gradebook has no records"
    got = {name: row.get("attempts") for name, row in records.items()}
    if got != attempts:
        missing = sorted(set(attempts) - set(got))
        extra = sorted(set(got) - set(attempts))
        wrong = sorted(n for n in set(got) & set(attempts) if got[n] != attempts[n])
        return f"gradebook differs: missing {missing[:3]}, extra {extra[:3]}, attempts {wrong[:3]}"
    if doc.get("learners") != len(attempts):
        return "gradebook learner count differs"
    return None


def check_journal_lines(path: Path, expected_records: int) -> str | None:
    with open(path, "rb") as fh:
        lines = sum(1 for line in fh if line.strip())
    if lines != expected_records:
        return f"{path.name}: {lines} journal lines, expected {expected_records}"
    return None


# ---------------------------------------------------------------------------
# The server and the clients
# ---------------------------------------------------------------------------

def boot(data_dir: Path):
    """Build the registry over the shipped modules and boot ``CourseApp``."""
    from repro.runestone import build_distributed_module, build_raspberry_pi_module
    from repro.serve import CohortRegistry, CourseApp, JsonlBackend

    registry = CohortRegistry()
    modules = [build_raspberry_pi_module(), build_distributed_module()]
    for module in modules:
        registry.add_module(module)
    for c in range(COHORTS):
        slug = cohort_slug(c)
        registry.create_cohort(
            slug, class_code(c), modules[c % len(modules)].slug,
            backend=JsonlBackend(data_dir / f"{slug}.jsonl"),
            instructor_key=INSTRUCTOR_KEY,
        )
    return CourseApp(registry)


class Driver:
    """Runs rounds with two closed-loop clients and keeps what they saw."""

    def __init__(self, app: Any, infos: list[ModuleInfo], expected: Expected,
                 tracer: bl.Tracer | None) -> None:
        from repro.serve import Client

        self.app = app
        self.cohort_module = [infos[c % len(infos)].slug for c in range(COHORTS)]
        self.expected = expected
        self.tracer = tracer
        self.clients = [Client(app) for _ in range(CLIENTS)]

    def _request(self, client, log, kind, expect, method, target, **kwargs) -> None:
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                resp = client.request(method, target, **kwargs)
            else:
                resp = self.tracer.call(f"request.{kind}", client.request, method, target,
                                        trace=self.tracer.new_trace(), **kwargs)
            status, body = resp.status, resp.body
        except Exception as exc:  # noqa: BLE001 - a crashed request is a failed one
            status, body = None, repr(exc).encode()
        log.append((kind, expect, status, body, time.perf_counter() - t0))

    def _item(self, client, item: tuple, log: list) -> None:
        keyed = {"headers": [("x-instructor-key", INSTRUCTOR_KEY)]}
        if item[0] == "learner":
            _, cohort, name, fmt, sections, answers = item
            slug, module = cohort_slug(cohort), self.cohort_module[cohort]
            self._request(client, log, "join",
                          {"status": 201, "cohort": slug, "learner": name},
                          "POST", f"/join/{class_code(cohort)}", json_body={"learner": name})
            self._request(client, log, "read",
                          {"status": 200, "module": module, "format": fmt},
                          "GET", f"/m/{module}?format={fmt}")
            for number in sections:
                self._request(client, log, "section",
                              {"status": 200, "module": module, "format": "text",
                               "section": number},
                              "GET", f"/m/{module}?format=text&section={number}")
            for aid, answer, ok in answers:
                self._request(client, log, "submit",
                              {"status": 200, "activity_id": aid, "correct": ok},
                              "POST", f"/m/{module}/submit",
                              json_body={"cohort": slug, "learner": name,
                                         "activity_id": aid, "answer": answer})
        elif item[0] == "gradebook":
            cohort = item[1]
            present = [earlier_learner(cohort, j) for j in range(EARLIER_LEARNERS)]
            self._request(client, log, "gradebook", {"status": 200, "present": present},
                          "GET", f"/gradebook/{cohort_slug(cohort)}", **keyed)
        else:
            module = item[1]
            version = self.expected.versions.get(module, 1) + 1
            self.expected.versions[module] = version
            self._request(client, log, "edit",
                          {"status": 200, "module": module, "version": version},
                          "POST", f"/m/{module}/edit", **keyed)
            self._request(client, log, "reread",
                          {"status": 200, "module": module, "format": "html",
                           "version": version},
                          "GET", f"/m/{module}?format=html")

    def run_round(self, items: list[tuple]) -> tuple[float, list]:
        """Both clients take items in order until none is left."""
        counter = itertools.count()
        logs: list[list] = [[] for _ in self.clients]

        def client_loop(k: int) -> None:
            while (i := next(counter)) < len(items):
                self._item(self.clients[k], items[i], logs[k])

        threads = [threading.Thread(target=client_loop, args=(k,))
                   for k in range(len(self.clients))]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0, [entry for log in logs for entry in log]

    def account(self, items: list[tuple]) -> None:
        """Add a round's enrolments and submissions to the expected log."""
        for item in items:
            if item[0] == "learner":
                _, cohort, name, _fmt, _sections, answers = item
                self.expected.enroll(cohort, name)
                for _ in answers:
                    self.expected.submit(cohort, name)

    def check_state(self, data_dir: Path, result: bl.RunResult, when: str) -> None:
        from repro.serve import Client

        client = Client(self.app, headers=[("x-instructor-key", INSTRUCTOR_KEY)])
        for c in range(COHORTS):
            resp = client.get(f"/gradebook/{cohort_slug(c)}")
            reason = check_response("gradebook", {"status": 200, "present": []},
                                    resp.status, resp.body)
            if reason is None:
                reason = check_gradebook(resp.json(), self.expected.attempts[c])
            if reason is None:
                reason = check_journal_lines(data_dir / f"{cohort_slug(c)}.jsonl",
                                             self.expected.records[c])
            if reason is not None:
                result.fail_check(f"{when}: {cohort_slug(c)}: {reason}")


# ---------------------------------------------------------------------------
# Traced run: the benchmark's wrappers around each layer's entry points
# ---------------------------------------------------------------------------

class TimedLock:
    """Stands in for a store's lock and records how long each acquire waited."""

    def __init__(self, inner: Any, tracer: bl.Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._tracer.call("serve.store.lock_wait", self._inner.acquire, blocking, timeout)

    def release(self) -> None:
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()


def install_wrappers(tracer: bl.Tracer, undo: list) -> dict:
    import repro.serve.app as app_mod
    from repro.runestone.progress import LearnerProgress
    from repro.serve import Backpressure, CohortRegistry, CourseApp, JsonlBackend, ProgressStore

    counters = {"response_bytes": 0}
    counted = threading.Lock()
    json_response = app_mod.json_response

    def encode(*args: Any, **kwargs: Any):
        response = tracer.call("serve.encode", json_response, *args, **kwargs)
        with counted:
            counters["response_bytes"] += len(response.body)
        return response

    wrapped = [
        (Backpressure, "__call__", "serve.admission"),
        (CourseApp, "_route", "serve.route"),
        (ProgressStore, "enroll", "serve.store"),
        (ProgressStore, "submit", "serve.store"),
        (ProgressStore, "gradebook_report", "serve.store.gradebook"),
        (JsonlBackend, "append", "serve.store.journal_append"),
        (LearnerProgress, "submit", "runestone.grade"),
        (CohortRegistry, "replay_all", "serve.replay"),
        (app_mod, "render_section_text", "runestone.render"),
    ]
    for owner, attr, span in wrapped:
        bl.patch(owner, attr, tracer.wrap(span, getattr(owner, attr)), undo)
    bl.patch(app_mod, "_FORMATS", {fmt: tracer.wrap("runestone.render", fn)
                                   for fmt, fn in app_mod._FORMATS.items()}, undo)
    bl.patch(app_mod, "json_response", encode, undo)
    return counters


def layer_metrics(tracer: bl.Tracer, latencies, counters, cache_delta: dict,
                  journal_bytes: int) -> dict[str, float]:
    """Per-layer values from the spans of the timed requests (those in a
    request's trace; boots and checks are left out)."""
    by_name: dict[str, list[list]] = {}
    for span in tracer.spans:
        if span[0] >= 0:
            by_name.setdefault(span[1], []).append(span)

    def med(name: str) -> float:
        rows = by_name.get(name, [])
        return bl.ms(bl.median(s[3] - s[2] for s in rows)) if rows else 0.0

    # Admission wait: from entering Backpressure to reaching the router.
    admission_waits = [
        s[2] - tracer.spans[s[4]][2]
        for s in by_name.get("serve.route", [])
        if s[4] >= 0 and tracer.spans[s[4]][1] == "serve.admission"
    ]
    store_calls = sum(len(by_name.get(name, []))
                      for name in ("serve.store", "serve.store.gradebook"))
    lock_wait = sum(s[3] - s[2] for s in by_name.get("serve.store.lock_wait", []))
    values = {}
    for kind in ("read", "section", "join", "submit", "gradebook", "edit"):
        times = latencies.get(kind)
        values[f"serve.route.{kind}_ms"] = bl.ms(bl.median(times)) if times else 0.0
    values.update({
        "serve.admission_wait_ms": bl.ms(sum(admission_waits) / len(admission_waits))
        if admission_waits else 0.0,
        "serve.store.lock_wait_ms": bl.ms(lock_wait / store_calls) if store_calls else 0.0,
        "serve.store.journal_append_ms": med("serve.store.journal_append"),
        "serve.store.journal_appends": len(by_name.get("serve.store.journal_append", [])),
        "serve.store.journal_bytes": journal_bytes,
        "serve.store.gradebook_ms": med("serve.store.gradebook"),
        "runestone.grade_ms": med("runestone.grade"),
        "runestone.render_ms": med("runestone.render"),
        "runestone.renders": len(by_name.get("runestone.render", [])),
        "serve.cache.hits": cache_delta["hits"],
        "serve.cache.misses": cache_delta["misses"],
        "serve.cache.hit_ratio":
            cache_delta["hits"] / max(1, cache_delta["hits"] + cache_delta["misses"]),
        "serve.encode_ms": med("serve.encode"),
        "serve.response_bytes": counters["response_bytes"],
    })
    return values


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def run(seed: int, seconds: float, trace: bool, result: bl.RunResult,
        work_dir: Path) -> None:
    from repro.runestone import build_distributed_module, build_raspberry_pi_module

    infos = [ModuleInfo(build_raspberry_pi_module()), ModuleInfo(build_distributed_module())]
    seeded_dir, live_dir = work_dir / "seeded", work_dir / "live"
    seeded = Expected()
    seeded_records = write_earlier_session(seed, infos, seeded_dir, seeded)

    tracer = bl.Tracer() if trace else None
    undo: list = []
    counters = install_wrappers(tracer, undo) if tracer else {}
    timed, rnd, sessions = 0.0, 0, 0
    latencies: dict[str, array] = {}
    cache_delta = {"hits": 0, "misses": 0}
    journal_bytes = 0
    try:
        while timed < seconds:
            shutil.copytree(seeded_dir, live_dir)
            app = boot(live_dir)
            try:
                if app.replayed_records != seeded_records:
                    result.fail_check(f"boot replayed {app.replayed_records} records, "
                                      f"expected {seeded_records}")
                driver = Driver(app, infos, copy.deepcopy(seeded), tracer)
                driver.check_state(live_dir, result, f"session {sessions} after boot")
                if tracer is not None:
                    for cohort in app.registry.cohorts.values():
                        cohort.store._lock = TimedLock(cohort.store._lock, tracer)
                journal_paths = sorted(live_dir.glob("*.jsonl"))
                journal_start = sum(p.stat().st_size for p in journal_paths)
                cache_start = app.cache.stats()
                for _ in range(COHORTS):
                    if timed >= seconds:
                        break
                    items = round_plan(seed, rnd, infos)
                    wall, log = driver.run_round(items)
                    timed += wall
                    driver.account(items)
                    for kind, expect, status, body, dt in log:
                        result.attempted += 1
                        latencies.setdefault(kind, array("d")).append(dt)
                        reason = check_response(kind, expect, status, body)
                        if reason is not None:
                            result.failed += 1
                            if len(result.problems) < 5:
                                result.problems.append(reason)
                    rnd += 1
                cache_end = app.cache.stats()
                for key in cache_delta:
                    cache_delta[key] += cache_end[key] - cache_start[key]
                journal_bytes += sum(p.stat().st_size for p in journal_paths) - journal_start
                driver.check_state(live_dir, result, f"session {sessions} end")
            finally:
                app.close()
                shutil.rmtree(live_dir, ignore_errors=True)
            sessions += 1
            del app, driver
            gc.collect()
        peak_rss = bl.peak_rss_mb([], 0)
    finally:
        bl.unpatch(undo)

    times = [dt for samples in latencies.values() for dt in samples]
    ops_per_s = len(times) / timed
    result.note(f"rounds {rnd}, sessions {sessions}, requests {len(times)}, "
                f"timed {timed:.3f} s, p99 {bl.ms(bl.percentile(times, 99)):.3f} ms")
    if tracer is None:
        setups = bl.cold_setups("serve_cohort", seed, str(seeded_dir))
        result.note(f"cold set-ups {' '.join(f'{s:.3f}' for s in setups)} s")
        result.values.update({
            "setup_s": bl.median(setups),
            "ops_per_s": ops_per_s,
            "p50_ms": bl.ms(bl.percentile(times, 50)),
            "p90_ms": bl.ms(bl.percentile(times, 90)),
            "peak_rss_mb": peak_rss,
        })
        return
    result.values.update(layer_metrics(tracer, latencies, counters, cache_delta, journal_bytes))
    result.values.update({
        "serve.replay_s": bl.median(tracer.durations("serve.replay")),
        "serve.replayed_records": seeded_records,
        "obs.traced_ops_per_s": ops_per_s,
        "obs.dropped_events": 0,
    })
    self_ms: dict[str, float] = {}
    for name, total in tracer.self_time_totals().items():
        layer = "request" if name.startswith("request.") else name
        self_ms[layer] = self_ms.get(layer, 0.0) + bl.ms(total) / len(times)
    result.note("self time per request (ms): " + " ".join(
        f"{name}={value:.4f}" for name, value in sorted(self_ms.items()))
        + f"; sum {sum(self_ms.values()):.4f}, mean request "
        f"{bl.ms(sum(times) / len(times)):.4f}")
    written = tracer.write(bl.OUT_DIR / "spans-serve_cohort.jsonl.gz")
    result.note(f"wrote {written} spans to {bl.OUT_DIR.name}/spans-serve_cohort.jsonl.gz")
