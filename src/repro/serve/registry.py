"""Multi-tenant cohort registry: class codes, modules, per-cohort stores.

The tenancy model follows the paper's delivery setup (and the classhub
shape): *modules* are shared content keyed by slug; a *cohort* is one
class section working through one module, addressed by a human-friendly
class code (``POST /join/PI2020``) the instructor hands out.  Each
cohort owns an isolated :class:`~repro.serve.store.ProgressStore`, so
tenants never see each other's gradebooks, and a per-cohort
``instructor_key`` gates the instructor surfaces.

Module edits go through :meth:`CohortRegistry.edit_module`, which
re-indexes the module's questions, bumps its version and notifies
listeners — that is the explicit invalidation seam the rendered-module
cache subscribes to.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from ..runestone.module import Module
from .store import Backend, ProgressStore

__all__ = ["Cohort", "CohortRegistry", "demo_registry"]

#: Demo instructor key; real deployments pass their own per cohort.
DEMO_INSTRUCTOR_KEY = "instructor"


@dataclass
class Cohort:
    """One tenant: a class section enrolled via one class code."""

    slug: str
    class_code: str
    module: Module
    store: ProgressStore
    instructor_key: str = DEMO_INSTRUCTOR_KEY
    joined: int = 0

    def to_dict(self) -> dict:
        return {
            "slug": self.slug,
            "class_code": self.class_code,
            "module": self.module.slug,
            "learners": len(self.store.learners()),
        }


@dataclass
class CohortRegistry:
    """All modules and cohorts one server instance is serving."""

    modules: dict[str, Module] = field(default_factory=dict)
    cohorts: dict[str, Cohort] = field(default_factory=dict)
    module_versions: dict[str, int] = field(default_factory=dict)
    _by_code: dict[str, str] = field(default_factory=dict)
    _edit_listeners: list[Callable[[str], None]] = field(default_factory=list)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    # -------------------------------------------------------------- modules
    def add_module(self, module: Module) -> None:
        with self._lock:
            if module.slug in self.modules:
                raise ValueError(f"module {module.slug!r} already registered")
            self.modules[module.slug] = module
            self.module_versions[module.slug] = 1

    def module(self, module_id: str) -> Module:
        try:
            return self.modules[module_id]
        except KeyError:
            raise KeyError(f"unknown module {module_id!r}") from None

    def module_version(self, module_id: str) -> int:
        return self.module_versions.get(module_id, 0)

    def on_edit(self, listener: Callable[[str], None]) -> None:
        """Subscribe to module edits (the cache registers its invalidator)."""
        self._edit_listeners.append(listener)

    def edit_module(
        self, module_id: str, edit: Callable[[Module], None] | None = None
    ) -> int:
        """Apply an authoring edit and broadcast the invalidation.

        ``edit`` mutates the module in place (may be ``None`` when the
        caller already mutated it); either way the module's question index
        is rebuilt, the version bumps and every listener hears about it.
        This is the only way a served module may change.  Returns the new
        version.
        """
        with self._lock:
            module = self.module(module_id)
            if edit is not None:
                edit(module)
            module.reindex()
            self.module_versions[module_id] = self.module_version(module_id) + 1
            version = self.module_versions[module_id]
        for listener in list(self._edit_listeners):
            listener(module_id)
        return version

    # -------------------------------------------------------------- cohorts
    def create_cohort(
        self,
        slug: str,
        class_code: str,
        module_id: str,
        *,
        backend: Backend | None = None,
        instructor_key: str = DEMO_INSTRUCTOR_KEY,
    ) -> Cohort:
        with self._lock:
            if slug in self.cohorts:
                raise ValueError(f"cohort {slug!r} already exists")
            code = class_code.strip().upper()
            if code in self._by_code:
                raise ValueError(f"class code {class_code!r} already in use")
            module = self.module(module_id)
            cohort = Cohort(
                slug=slug,
                class_code=code,
                module=module,
                store=ProgressStore(module, backend),
                instructor_key=instructor_key,
            )
            self.cohorts[slug] = cohort
            self._by_code[code] = slug
            return cohort

    def cohort(self, slug: str) -> Cohort:
        try:
            return self.cohorts[slug]
        except KeyError:
            raise KeyError(f"unknown cohort {slug!r}") from None

    def by_code(self, class_code: str) -> Cohort:
        slug = self._by_code.get(class_code.strip().upper())
        if slug is None:
            raise KeyError(f"no cohort with class code {class_code!r}")
        return self.cohorts[slug]

    def replay_all(self) -> int:
        """Rebuild every cohort from its backend log (server boot path)."""
        return sum(c.store.replay() for c in self.cohorts.values())

    def to_dict(self) -> dict:
        return {
            "modules": {
                slug: {"title": m.title, "version": self.module_version(slug)}
                for slug, m in sorted(self.modules.items())
            },
            "cohorts": [c.to_dict() for _slug, c in sorted(self.cohorts.items())],
        }


def demo_registry(
    *,
    backend: str | None = None,
    data_dir: str | None = None,
    instructor_key: str = DEMO_INSTRUCTOR_KEY,
) -> CohortRegistry:
    """The server's default tenancy: both shipped modules, two cohorts.

    Mirrors the paper's two workshop tracks — the Raspberry Pi shared-memory
    morning (class code ``PI2020``) and the distributed-memory afternoon
    (``MPI2020``).
    """
    from ..runestone import build_distributed_module, build_raspberry_pi_module
    from .store import open_backend

    registry = CohortRegistry()
    pi = build_raspberry_pi_module()
    mpi = build_distributed_module()
    registry.add_module(pi)
    registry.add_module(mpi)
    registry.create_cohort(
        "pi-2020",
        "PI2020",
        pi.slug,
        backend=open_backend(backend, data_dir, "pi-2020"),
        instructor_key=instructor_key,
    )
    registry.create_cohort(
        "mpi-2020",
        "MPI2020",
        mpi.slug,
        backend=open_backend(backend, data_dir, "mpi-2020"),
        instructor_key=instructor_key,
    )
    return registry
