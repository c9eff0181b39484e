"""``repro.obs`` — unified tracing, metrics, and timeline profiling.

One event bus spans both runtimes: the two seams of :mod:`repro.obs.hooks`
(``openmp`` and ``mpi``) feed timestamped events into a bounded
:class:`Recorder`; :func:`build_profile` pairs them into spans, lanes,
and wait attribution; exporters render Chrome trace-event JSON (open in
Perfetto) and JSON reports.  ``repro trace <target>`` is the CLI front
end.  See ``docs/observability.md`` for the guided tour.
"""

from .._lazy import attach as _attach

# Each name is imported on first use: the runtimes import the hook seam
# (``repro.obs.hooks``) and the course server imports ``metrics``, and
# neither pays for the recorder, the profiler or the exporters.
_EXPORTS = {
    "Event": "events",
    "sanitize_args": "events",
    "Recorder": "recorder",
    "ForwardedEvents": "recorder",
    "record": "recorder",
    "active": "recorder",
    "run_traced_chunk": "recorder",
    "adopt_forked_recorder": "recorder",
    "collect_forwarded": "recorder",
    "ingest_forwarded": "recorder",
    "Counter": "metrics",
    "Histogram": "metrics",
    "MetricSet": "metrics",
    "collect_metrics": "metrics",
    "serialization_totals": "metrics",
    "register_provider": "metrics",
    "unregister_provider": "metrics",
    "snapshot_providers": "metrics",
    "Span": "profile",
    "Lane": "profile",
    "RunProfile": "profile",
    "build_profile": "profile",
    "render_text": "profile",
    "render_timeline": "profile",
    "timeline_from_events": "profile",
    "to_chrome_trace": "export",
    "write_chrome_trace": "export",
    "profile_report": "export",
    "validate_chrome_trace": "export",
    "EXEMPLARS": "targets",
    "resolve_target": "targets",
    "trace_target": "targets",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _attach(
    __name__,
    _EXPORTS,
    submodules=("events", "export", "hooks", "metrics", "profile", "recorder", "targets"),
)
