"""What a course-server cold start imports, each case in a fresh interpreter.

A served request touches the Runestone engine and the serving layer only,
so booting ``CourseApp`` and answering every kind of learner and
instructor request must load neither NumPy nor either parallel runtime;
the package roots still resolve every name they re-export.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Modules a served request has no use for.
NOT_LOADED = (
    "numpy",
    "repro.mpi",
    "repro.openmp",
    "repro.patternlets",
    "repro.exemplars",
    "repro.analysis",
    "repro.serve.httpd",
)


def _python(source: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-c", source], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SERVE_A_COHORT = f"""
import json, sys
import repro.serve
from repro.serve import Client, CourseApp, demo_registry

app = CourseApp(demo_registry())
client = Client(app)
slug, module = "pi-2020", "raspberry-pi-handout"
question = app.registry.module(module).all_questions()[0].activity_id
statuses = [
    client.post("/join/PI2020", json_body={{"learner": "ada"}}).status,
    client.get(f"/m/{{module}}").status,
    client.get(f"/m/{{module}}?format=text&section=1.1").status,
    client.post(f"/m/{{module}}/submit", json_body={{
        "cohort": slug, "learner": "ada", "activity_id": question, "answer": "?"}}).status,
    client.get(f"/gradebook/{{slug}}", headers=[("x-instructor-key", "instructor")]).status,
]
app.close()
print(json.dumps({{"statuses": statuses,
                  "loaded": [m for m in {NOT_LOADED!r} if m in sys.modules]}}))
"""

RESOLVE_THE_ROOTS = """
import json, sys
import repro
lazy = "repro.mpi" not in sys.modules
mpi = repro.mpi
from repro import mpirun, parallel_for
import repro.serve
make_server = repro.serve.make_server
print(json.dumps({
    "lazy": lazy,
    "mpi": mpi is sys.modules["repro.mpi"],
    "mpirun": mpirun is sys.modules["repro.mpi.launcher"].mpirun,
    "ranks": mpirun(lambda comm: comm.Get_rank(), 2),
    "parallel_for": parallel_for is sys.modules["repro.openmp.loops"].parallel_for,
    "make_server": make_server is sys.modules["repro.serve.httpd"].make_server,
    "dir": sorted({"mpi", "mpirun", "serve"} - set(dir(repro))),
}))
"""


class TestServerColdStart:
    def test_serving_a_cohort_loads_no_runtime(self):
        result = _python(SERVE_A_COHORT)
        assert result["statuses"] == [201, 200, 200, 200, 200]
        assert result["loaded"] == []

    def test_package_roots_still_resolve_every_name(self):
        result = _python(RESOLVE_THE_ROOTS)
        assert result == {
            "lazy": True,
            "mpi": True,
            "mpirun": True,
            "ranks": [0, 1],
            "parallel_for": True,
            "make_server": True,
            "dir": [],
        }
