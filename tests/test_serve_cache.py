"""Rendered-module LRU cache: policy, counters, and edit invalidation."""

from __future__ import annotations

import pytest

from repro.runestone import render_html, render_section_text, render_text
from repro.serve import Client, CourseApp
from repro.serve.asgi import json_response
from repro.serve.cache import RenderCache


class TestLRUPolicy:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RenderCache(0)

    def test_miss_then_hit(self):
        cache = RenderCache(4)
        calls = []

        def render():
            calls.append(1)
            return "rendered"

        assert cache.get("m", "v1:html", render) == "rendered"
        assert cache.get("m", "v1:html", render) == "rendered"
        assert len(calls) == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_distinct_variants_cached_separately(self):
        cache = RenderCache(4)
        cache.get("m", "v1:html", lambda: "html")
        assert cache.get("m", "v1:text", lambda: "text") == "text"
        assert len(cache) == 2

    def test_lru_evicts_least_recently_used(self):
        cache = RenderCache(2)
        cache.get("a", "v", lambda: "A")
        cache.get("b", "v", lambda: "B")
        cache.get("a", "v", lambda: "A")  # refresh a; b is now LRU
        cache.get("c", "v", lambda: "C")  # evicts b
        assert cache.stats()["evictions"] == 1
        cache.get("a", "v", lambda: "A2")
        assert cache.stats()["hits"] == 2  # a survived
        assert cache.get("b", "v", lambda: "B2") == "B2"  # b was evicted

    def test_invalidate_drops_all_variants_of_one_module(self):
        cache = RenderCache(8)
        cache.get("m", "v1:html", lambda: "h")
        cache.get("m", "v1:text", lambda: "t")
        cache.get("other", "v1:html", lambda: "o")
        assert cache.invalidate("m") == 2
        assert len(cache) == 1
        assert cache.stats()["invalidations"] == 2

    def test_invalidate_unknown_module_is_a_noop(self):
        cache = RenderCache(2)
        assert cache.invalidate("ghost") == 0

    def test_clear(self):
        cache = RenderCache(2)
        cache.get("m", "v", lambda: "x")
        cache.clear()
        assert len(cache) == 0


class TestEditInvalidation:
    """The bug these pin: a stale render must not outlive a module edit."""

    INSTRUCTOR = [("x-instructor-key", "instructor")]

    def test_edit_invalidates_served_renders(self):
        app = CourseApp(metrics_name=None)
        try:
            client = Client(app)
            client.get("/m/raspberry-pi-handout")  # cached (warm boot)
            misses_before = app.cache.stats()["misses"]

            doc = client.post(
                "/m/raspberry-pi-handout/edit", json_body={},
                headers=self.INSTRUCTOR,
            ).json()
            assert doc["version"] == 2

            read = client.get("/m/raspberry-pi-handout").json()
            assert read["version"] == 2
            assert app.cache.stats()["misses"] == misses_before + 1  # re-rendered
            assert app.cache.stats()["invalidations"] >= 1
        finally:
            app.close()

    def test_registry_edit_callback_reaches_the_cache(self):
        app = CourseApp(metrics_name=None)
        try:
            Client(app).get("/m/mpi-distributed-handout?format=text")
            dropped_before = app.cache.stats()["invalidations"]
            app.registry.edit_module("mpi-distributed-handout")
            assert app.cache.stats()["invalidations"] > dropped_before
            # Other modules' entries survive the targeted invalidation.
            assert len(app.cache) >= 1
        finally:
            app.close()

    def test_edit_with_mutation_changes_the_render(self):
        app = CourseApp(metrics_name=None, warm=False)
        try:
            client = Client(app)
            before = client.get("/m/raspberry-pi-handout?format=text").json()

            def retitle(module):
                module.title = "Edited Title"

            app.registry.edit_module("raspberry-pi-handout", retitle)
            after = client.get("/m/raspberry-pi-handout?format=text").json()
            assert after["rendered"] != before["rendered"]
            assert "Edited Title" in after["rendered"]
        finally:
            app.close()


def expected_body(app: CourseApp, module_id: str, fmt: str, section: str | None) -> bytes:
    """The read body as the route has always built it: render the live
    module, then encode the whole payload through ``json_response``."""
    module = app.registry.module(module_id)
    if section is None:
        rendered = {"html": render_html, "text": render_text}[fmt](module)
    else:
        rendered = render_section_text(module.find_section(section))
    return json_response(
        {
            "module": module.slug,
            "title": module.title,
            "version": app.registry.module_version(module_id),
            "format": fmt,
            "section": section,
            "activities": [q.activity_id for q in module.all_questions()],
            "rendered": rendered,
        }
    ).body


class TestCachedBodies:
    """A read returns the cached encoded body; it must be the same bytes
    the payload encodes to, on a miss and on a hit, before and after an
    edit."""

    def _check_every_variant(self, app: CourseApp, client: Client) -> int:
        checked = 0
        for module_id, module in app.registry.modules.items():
            numbers = [None] + [s.number for s in module.all_sections()]
            for fmt in ("html", "text"):
                for number in numbers:
                    target = f"/m/{module_id}?format={fmt}"
                    if number is not None:
                        target += f"&section={number}"
                    want = expected_body(app, module_id, fmt, number)
                    for _ in range(2):  # the miss, then the hit
                        resp = client.get(target)
                        assert resp.status == 200
                        assert resp.headers["content-type"] == "application/json"
                        assert resp.body == want, target
                    checked += 1
        return checked

    def test_every_variant_matches_the_encoded_payload(self):
        app = CourseApp(metrics_name=None, cache_capacity=1024)
        try:
            client = Client(app)
            variants = self._check_every_variant(app, client)
            stats = app.cache.stats()
            # One miss per variant (the html module reads were warmed at
            # boot), one hit per second read.
            assert stats["misses"] == variants
            assert stats["hits"] == variants + len(app.registry.modules)

            def retitle(module):
                module.title = module.title + " (edited)"

            for module_id in list(app.registry.modules):
                app.registry.edit_module(module_id, retitle)
            assert self._check_every_variant(app, client) == variants
        finally:
            app.close()

    def test_a_hit_builds_nothing(self, monkeypatch):
        import repro.serve.app as app_mod

        app = CourseApp(metrics_name=None)
        try:
            client = Client(app)
            client.get("/m/raspberry-pi-handout?format=text&section=1.1")
            calls = []
            monkeypatch.setattr(
                app_mod, "json_response",
                lambda *a, **k: calls.append(a) or json_response(*a, **k),
            )
            module = app.registry.module("raspberry-pi-handout")
            monkeypatch.setattr(
                type(module), "all_questions",
                lambda self: calls.append("all_questions") or [],
            )
            resp = client.get("/m/raspberry-pi-handout?format=text&section=1.1")
            assert resp.status == 200 and calls == []
        finally:
            app.close()

    def test_unknown_section_is_neither_counted_nor_cached(self):
        app = CourseApp(metrics_name=None)
        try:
            before = app.cache.stats()
            r = Client(app).get("/m/raspberry-pi-handout?section=99.9")
            assert r.status == 404
            after = app.cache.stats()
            assert (after["hits"], after["misses"], after["size"]) == (
                before["hits"], before["misses"], before["size"],
            )
        finally:
            app.close()
