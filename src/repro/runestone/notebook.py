"""Colab/Jupyter notebook emulation.

The distributed module delivers the MPI patternlets as a Google Colab
notebook whose code cells follow one idiom (visible in the paper's Fig. 2):

* a ``%%writefile NNname.py`` cell that saves the patternlet source, then
* a ``!mpirun --allow-run-as-root -np 4 python NNname.py`` cell that runs it.

This module models exactly that: a :class:`Notebook` of markdown/code
cells, a virtual file store for ``%%writefile``, shell-escape execution of
``mpirun`` commands against :mod:`repro.mpi`, and plain-Python cells
executed in a persistent namespace — enough to run the whole patternlets
notebook headlessly and capture every output.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["MarkdownCell", "CodeCell", "CellResult", "Notebook"]


@dataclass(frozen=True)
class MarkdownCell:
    """Expository prose between code cells."""

    source: str


@dataclass(frozen=True)
class CodeCell:
    """A runnable cell: magic, shell escape, or plain Python."""

    source: str

    @property
    def first_line(self) -> str:
        for line in self.source.splitlines():
            if line.strip():
                return line.strip()
        return ""

    @property
    def is_writefile(self) -> bool:
        return self.first_line.startswith("%%writefile")

    @property
    def is_shell(self) -> bool:
        return self.first_line.startswith("!")


@dataclass
class CellResult:
    """Captured outcome of executing one cell."""

    cell_index: int
    kind: str  # "markdown" | "writefile" | "mpirun" | "python"
    stdout: str = ""
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Notebook:
    """An executable notebook with a virtual filesystem."""

    title: str
    cells: list[MarkdownCell | CodeCell] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    namespace: dict[str, Any] = field(default_factory=dict)
    default_np: int = 4

    def md(self, source: str) -> "Notebook":
        self.cells.append(MarkdownCell(source))
        return self

    def code(self, source: str) -> "Notebook":
        self.cells.append(CodeCell(source))
        return self

    # ------------------------------------------------------------------ execution
    def run_cell(self, index: int) -> CellResult:
        """Execute one cell by position and capture its output."""
        cell = self.cells[index]
        if isinstance(cell, MarkdownCell):
            return CellResult(index, "markdown")
        try:
            if cell.is_writefile:
                return self._run_writefile(index, cell)
            if cell.is_shell:
                return self._run_shell(index, cell)
            return self._run_python(index, cell)
        except Exception as exc:  # noqa: BLE001 - surfaced as the cell's error
            kind = (
                "writefile" if cell.is_writefile
                else "mpirun" if cell.is_shell
                else "python"
            )
            return CellResult(index, kind, error=f"{type(exc).__name__}: {exc}")

    def run_all(self) -> list[CellResult]:
        """Execute every cell top to bottom (Colab's 'Run all')."""
        return [self.run_cell(i) for i in range(len(self.cells))]

    def _run_writefile(self, index: int, cell: CodeCell) -> CellResult:
        header, _, body = cell.source.partition("\n")
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"malformed writefile magic: {header!r}")
        filename = parts[1]
        self.files[filename] = body
        return CellResult(index, "writefile", stdout=f"Writing {filename}")

    def _run_shell(self, index: int, cell: CodeCell) -> CellResult:
        # Imported here, not at module load: building or serving a handout
        # runs no cell, and the launcher loads the whole MPI runtime.
        from ..mpi.launcher import parse_mpirun_command, run_script

        command = cell.first_line[1:].strip()
        if not command.startswith(("mpirun", "mpiexec")):
            raise ValueError(
                f"the notebook emulator only supports mpirun shell escapes, got "
                f"{command!r}"
            )
        invocation = parse_mpirun_command(command)
        try:
            source = self.files[invocation.script]
        except KeyError:
            raise FileNotFoundError(
                f"{invocation.script}: write it first with %%writefile"
            ) from None
        result = run_script(
            source,
            invocation.np,
            script_name=invocation.script,
            argv=invocation.extra_args,
        )
        return CellResult(index, "mpirun", stdout=result.stdout)

    def _run_python(self, index: int, cell: CodeCell) -> CellResult:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            exec(compile(cell.source, f"<cell {index}>", "exec"), self.namespace)
        return CellResult(index, "python", stdout=buffer.getvalue().rstrip("\n"))

    # ---------------------------------------------------------------- export
    def to_ipynb(self, results: list[CellResult] | None = None) -> dict[str, Any]:
        """Export as an nbformat-4 notebook document (a real ``.ipynb``).

        With ``results`` (from :meth:`run_all`), captured stdout is attached
        as each code cell's output stream — so the exported file looks like
        an executed Colab notebook.
        """
        by_index = {r.cell_index: r for r in (results or [])}
        cells: list[dict[str, Any]] = []
        for index, cell in enumerate(self.cells):
            if isinstance(cell, MarkdownCell):
                cells.append(
                    {"cell_type": "markdown", "metadata": {},
                     "source": cell.source.splitlines(keepends=True)}
                )
                continue
            outputs = []
            result = by_index.get(index)
            if result is not None and result.stdout:
                outputs.append(
                    {
                        "output_type": "stream",
                        "name": "stdout",
                        "text": (result.stdout + "\n").splitlines(keepends=True),
                    }
                )
            cells.append(
                {
                    "cell_type": "code",
                    "execution_count": index if result is not None else None,
                    "metadata": {},
                    "source": cell.source.splitlines(keepends=True),
                    "outputs": outputs,
                }
            )
        return {
            "nbformat": 4,
            "nbformat_minor": 5,
            "metadata": {
                "title": self.title,
                "kernelspec": {
                    "display_name": "Python 3",
                    "language": "python",
                    "name": "python3",
                },
                "language_info": {"name": "python"},
            },
            "cells": cells,
        }

    def save_ipynb(
        self, path: "str | Path", results: list[CellResult] | None = None
    ) -> Path:
        """Write the nbformat JSON to disk; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_ipynb(results), indent=1))
        return path
