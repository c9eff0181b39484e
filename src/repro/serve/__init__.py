"""``repro.serve`` — the Runestone course platform as a real service.

The paper's modules were *served* to remote cohorts; this package is that
serving layer grown from the in-process engine in :mod:`repro.runestone`:

* :mod:`~repro.serve.asgi` — a minimal in-repo ASGI-style protocol, JSON
  helpers, and an in-process client;
* :mod:`~repro.serve.app` — :class:`CourseApp`, the route surface
  (join/read/submit/gradebook/healthz/readyz/metricz);
* :mod:`~repro.serve.registry` — multi-tenant cohorts behind class codes;
* :mod:`~repro.serve.store` — per-cohort progress stores over pluggable
  persistence (memory, append-only JSONL with snapshot/replay);
* :mod:`~repro.serve.cache` — the LRU rendered-module cache with explicit
  invalidation and obs-visible hit/miss counters;
* :mod:`~repro.serve.middleware` — deadlines, bounded-queue backpressure
  (503 + Retry-After), error envelopes, request-latency histograms;
* :mod:`~repro.serve.httpd` — the stdlib ThreadingHTTPServer adapter
  (``repro serve``);
* :mod:`~repro.serve.load` — the closed-loop load harness
  (``repro serve-load`` and the ``course_serve_*`` bench kernels).

See ``docs/serving.md`` for the guided tour.
"""

from .._lazy import attach as _attach

# Each name is imported on first use: a server that answers requests in
# process never loads ``httpd`` (and ``http.server``) or the load harness.
_EXPORTS = {
    "CourseApp": "app",
    "Client": "asgi",
    "ClientResponse": "asgi",
    "HTTPError": "asgi",
    "Request": "asgi",
    "Response": "asgi",
    "run_app": "asgi",
    "RenderCache": "cache",
    "CourseServer": "httpd",
    "make_server": "httpd",
    "serve_forever": "httpd",
    "start_background": "httpd",
    "LoadReport": "load",
    "answer_pool": "load",
    "run_load": "load",
    "Backpressure": "middleware",
    "Deadline": "middleware",
    "ErrorEnvelope": "middleware",
    "Latency": "middleware",
    "ServeMetrics": "middleware",
    "check_deadline": "middleware",
    "Cohort": "registry",
    "CohortRegistry": "registry",
    "demo_registry": "registry",
    "JsonlBackend": "store",
    "MemoryBackend": "store",
    "ProgressStore": "store",
    "open_backend": "store",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _attach(
    __name__,
    _EXPORTS,
    submodules=("app", "asgi", "cache", "httpd", "load", "middleware", "registry", "store"),
)
