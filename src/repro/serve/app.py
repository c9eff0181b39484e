"""The course platform application: routes over the Runestone engine.

:class:`CourseApp` is the served surface of :mod:`repro.runestone` — the
JSON API a remote cohort hits from a browser, assembled from the tenancy
registry, the rendered-module cache, and the robustness middleware:

========  ==================================  ====================================
method    path                                 purpose
========  ==================================  ====================================
GET       ``/healthz``                         liveness (process is up)
GET       ``/readyz``                          readiness (registry replayed/warm)
GET       ``/metricz``                         live metrics snapshot
POST      ``/join/<class_code>``               enroll a learner into a cohort
GET       ``/m/<module_id>``                   rendered module (cached body)
POST      ``/m/<module_id>/submit``            grade + record one answer
POST      ``/m/<module_id>/edit``              authoring edit → cache invalidation
GET       ``/gradebook/<cohort>``              instructor gradebook (keyed)
GET       ``/cohorts``                         tenancy overview
========  ==================================  ====================================

Every response is JSON; every failure is the structured error envelope
with a stable ``code``.  Instructor surfaces require the cohort's key in
the ``x-instructor-key`` header.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from ..obs.metrics import register_provider, unregister_provider
from ..runestone.render import render_html, render_section_text, render_text
from .asgi import (
    JSON_CONTENT_TYPE,
    HTTPError,
    Request,
    Response,
    json_response,
    read_body,
    send_response,
)
from .cache import RenderCache
from .middleware import (
    Backpressure,
    Deadline,
    ErrorEnvelope,
    Latency,
    ServeMetrics,
    check_deadline,
)
from .registry import CohortRegistry, demo_registry

__all__ = ["CourseApp"]

_FORMATS: dict[str, Callable] = {"text": render_text, "html": render_html}


class CourseApp:
    """One served course platform instance (an ASGI-style callable)."""

    def __init__(
        self,
        registry: CohortRegistry | None = None,
        *,
        cache_capacity: int = 64,
        max_inflight: int = 8,
        max_queue: int = 32,
        deadline_s: float = 2.0,
        metrics_name: str | None = "serve",
        warm: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else demo_registry()
        self.cache = RenderCache(cache_capacity)
        self.registry.on_edit(self.cache.invalidate)
        self.metrics = ServeMetrics()
        self.started_at = time.time()
        self.ready = False
        self.metrics_name = metrics_name

        self.backpressure = Backpressure(
            self._route,
            self.metrics,
            max_inflight=max_inflight,
            max_queue=max_queue,
        )
        stack = Deadline(self.backpressure, timeout_s=deadline_s)
        stack = ErrorEnvelope(stack, self.metrics)
        self._stack = Latency(stack, self.metrics)

        if metrics_name:
            register_provider(metrics_name, self.metrics_snapshot)

        # Boot sequence: replay persisted cohort logs, optionally pre-render
        # the modules' read bodies into the cache, then declare readiness.
        self.replayed_records = self.registry.replay_all()
        if warm:
            for module_id in self.registry.modules:
                self._read_body(module_id, "html", None)
        self.ready = True

    # ----------------------------------------------------------------- ASGI
    def __call__(self, scope: dict, receive: Callable, send: Callable) -> None:
        if scope.get("type") != "http":  # pragma: no cover - defensive
            raise ValueError(f"unsupported scope type {scope.get('type')!r}")
        self._stack(scope, receive, send)

    def close(self) -> None:
        """Close every cohort's journal and unhook the process-wide metrics
        provider (tests build many apps)."""
        for cohort in self.registry.cohorts.values():
            cohort.store.backend.close()
        if self.metrics_name:
            unregister_provider(self.metrics_name)

    def metrics_snapshot(self) -> dict[str, Any]:
        snap = self.metrics.snapshot()
        snap["cache"] = self.cache.stats()
        snap["uptime_s"] = time.time() - self.started_at
        return snap

    # --------------------------------------------------------------- router
    def _route(self, scope: dict, receive: Callable, send: Callable) -> None:
        request = Request.from_scope(scope, read_body(receive))
        segments = [s for s in request.path.split("/") if s]
        method = request.method
        check_deadline(scope)

        handler: Callable[..., Response] | None = None
        args: tuple = ()
        route = ""
        if method == "GET" and segments == ["healthz"]:
            route, handler = "GET /healthz", self._healthz
        elif method == "GET" and segments == ["readyz"]:
            route, handler = "GET /readyz", self._readyz
        elif method == "GET" and segments == ["metricz"]:
            route, handler = "GET /metricz", self._metricz
        elif method == "GET" and segments == ["cohorts"]:
            route, handler = "GET /cohorts", self._cohorts
        elif method == "POST" and len(segments) == 2 and segments[0] == "join":
            route, handler, args = "POST /join/<code>", self._join, (segments[1],)
        elif method == "GET" and len(segments) == 2 and segments[0] == "m":
            route, handler, args = "GET /m/<id>", self._read_module, (segments[1],)
        elif (
            method == "POST"
            and len(segments) == 3
            and segments[0] == "m"
            and segments[2] == "submit"
        ):
            route, handler, args = "POST /m/<id>/submit", self._submit, (segments[1],)
        elif (
            method == "POST"
            and len(segments) == 3
            and segments[0] == "m"
            and segments[2] == "edit"
        ):
            route, handler, args = "POST /m/<id>/edit", self._edit, (segments[1],)
        elif method == "GET" and len(segments) == 2 and segments[0] == "gradebook":
            route, handler, args = (
                "GET /gradebook/<cohort>",
                self._gradebook,
                (segments[1],),
            )

        if handler is None:
            scope["route"] = f"{method} (unrouted)"
            raise HTTPError(404, "unknown_route", f"no route for {method} {request.path}")
        scope["route"] = route
        response = handler(request, *args)
        check_deadline(scope)
        send_response(send, response)

    # ------------------------------------------------------------- handlers
    def _healthz(self, _request: Request) -> Response:
        return json_response(
            {"status": "ok", "uptime_s": time.time() - self.started_at}
        )

    def _readyz(self, _request: Request) -> Response:
        if not self.ready:
            raise HTTPError(503, "not_ready", "registry is still loading")
        return json_response(
            {
                "status": "ready",
                "modules": len(self.registry.modules),
                "cohorts": len(self.registry.cohorts),
                "replayed_records": self.replayed_records,
            }
        )

    def _metricz(self, _request: Request) -> Response:
        return json_response(self.metrics_snapshot())

    def _cohorts(self, _request: Request) -> Response:
        return json_response(self.registry.to_dict())

    def _join(self, request: Request, class_code: str) -> Response:
        try:
            cohort = self.registry.by_code(class_code)
        except KeyError:
            raise HTTPError(
                404, "unknown_class_code", f"no cohort with class code {class_code!r}"
            ) from None
        payload = self._json_object(request)
        learner = payload.get("learner")
        if not isinstance(learner, str) or not learner.strip():
            raise HTTPError(
                400, "bad_request", "body must include a non-empty 'learner' string"
            )
        try:
            _progress, created = cohort.store.enroll(learner.strip())
        except ValueError as exc:
            raise HTTPError(400, "bad_request", str(exc)) from None
        if created:
            cohort.joined += 1
        return json_response(
            {
                "cohort": cohort.slug,
                "module": cohort.module.slug,
                "learner": learner.strip(),
                "already_enrolled": not created,
            },
            status=200 if not created else 201,
        )

    def _read_body(self, module_id: str, fmt: str, section: str | None) -> bytes:
        """The encoded body of one read, from the cache or built on a miss."""
        module = self.registry.module(module_id)
        version = self.registry.module_version(module_id)
        variant = f"v{version}:{fmt}" + (f":s{section}" if section else "")

        def build() -> bytes:
            if section is None:
                rendered = _FORMATS[fmt](module)
            else:
                rendered = render_section_text(module.find_section(section))
            return json_response(
                {
                    "module": module.slug,
                    "title": module.title,
                    "version": version,
                    "format": fmt,
                    "section": section,
                    "activities": [q.activity_id for q in module.all_questions()],
                    "rendered": rendered,
                }
            ).body

        return self.cache.get(module_id, variant, build)

    def _read_module(self, request: Request, module_id: str) -> Response:
        fmt = request.param("format", "html")
        if fmt not in _FORMATS:
            raise HTTPError(
                400, "bad_format", f"format must be one of {sorted(_FORMATS)}"
            )
        try:
            self.registry.module(module_id)
        except KeyError as exc:
            raise HTTPError(404, "unknown_module", exc.args[0]) from None
        section = request.param("section")
        try:
            body = self._read_body(module_id, fmt, section)
        except KeyError as exc:
            raise HTTPError(404, "unknown_section", exc.args[0]) from None
        return Response(headers=[JSON_CONTENT_TYPE], body=body)

    def _submit(self, request: Request, module_id: str) -> Response:
        payload = self._json_object(request)
        for key in ("cohort", "learner", "activity_id"):
            if not isinstance(payload.get(key), str) or not payload[key]:
                raise HTTPError(
                    400,
                    "bad_request",
                    f"body must include a non-empty {key!r} string",
                )
        if "answer" not in payload:
            raise HTTPError(400, "bad_request", "body must include 'answer'")
        try:
            cohort = self.registry.cohort(payload["cohort"])
        except KeyError as exc:
            raise HTTPError(404, "unknown_cohort", exc.args[0]) from None
        if cohort.module.slug != module_id:
            raise HTTPError(
                404,
                "unknown_module",
                f"cohort {cohort.slug!r} is not working through {module_id!r}",
            )
        try:
            result = cohort.store.submit(
                payload["learner"], payload["activity_id"], payload["answer"]
            )
        except KeyError as exc:
            code = (
                "unknown_learner"
                if "not enrolled" in exc.args[0]
                else "unknown_activity"
            )
            raise HTTPError(404, code, exc.args[0]) from None
        except (TypeError, ValueError, AttributeError) as exc:
            # Grading rejected the payload shape outright (untrusted input).
            raise HTTPError(
                400, "bad_answer", f"answer is not gradeable: {exc}"
            ) from None
        return json_response(
            {
                "activity_id": result.activity_id,
                "correct": result.correct,
                "score": result.score,
                "feedback": result.feedback,
            }
        )

    def _edit(self, request: Request, module_id: str) -> Response:
        self._require_instructor(request)
        try:
            version = self.registry.edit_module(module_id)
        except KeyError as exc:
            raise HTTPError(404, "unknown_module", exc.args[0]) from None
        return json_response({"module": module_id, "version": version})

    def _gradebook(self, request: Request, slug: str) -> Response:
        try:
            cohort = self.registry.cohort(slug)
        except KeyError as exc:
            raise HTTPError(404, "unknown_cohort", exc.args[0]) from None
        key = request.headers.get("x-instructor-key")
        if key != cohort.instructor_key:
            raise HTTPError(
                403, "forbidden", "gradebook requires the cohort's instructor key"
            )
        return json_response(cohort.store.gradebook_report())

    # -------------------------------------------------------------- helpers
    def _require_instructor(self, request: Request) -> None:
        key = request.headers.get("x-instructor-key")
        if not key or all(
            key != c.instructor_key for c in self.registry.cohorts.values()
        ):
            raise HTTPError(403, "forbidden", "requires an instructor key")

    @staticmethod
    def _json_object(request: Request) -> dict[str, Any]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(400, "bad_request", "body must be a JSON object")
        return payload
