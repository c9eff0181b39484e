"""Module linting: catch authoring mistakes before learners do.

Instructors adapting the materials ("freely available for any instructor
to adapt") will edit module content.  :func:`validate_module` checks the
invariants the engine and the session simulator rely on and returns a
list of findings, each tagged as an error (would break delivery) or a
warning (probably a mistake).
"""

from __future__ import annotations

from dataclasses import dataclass

from .content import Video
from .module import Module
from .questions import (
    DragAndDrop,
    FillInTheBlank,
    MultipleChoice,
    OrderingProblem,
)

__all__ = ["Finding", "validate_module"]


@dataclass(frozen=True)
class Finding:
    """One lint result."""

    level: str  # "error" | "warning"
    where: str  # section number or module
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.level}] {self.where}: {self.message}"


def validate_module(module: Module, run_activities: bool = False) -> list[Finding]:
    """Lint a module; empty list means clean.

    With ``run_activities`` the referenced patternlets are actually
    executed and their declared ``expected`` keys checked — slower, but the
    check that catches renamed result fields.
    """
    findings: list[Finding] = []

    def error(where: str, message: str) -> None:
        findings.append(Finding("error", where, message))

    def warning(where: str, message: str) -> None:
        findings.append(Finding("warning", where, message))

    # ---- structural ----------------------------------------------------------
    if not module.chapters:
        error(module.slug, "module has no chapters")
    section_numbers = [s.number for s in module.all_sections()]
    for number in {n for n in section_numbers if section_numbers.count(n) > 1}:
        error(number, "duplicate section number")

    activity_ids = [q.activity_id for q in module.all_questions()]
    for activity_id in {a for a in activity_ids if activity_ids.count(a) > 1}:
        error(activity_id, "duplicate question activity id")

    # ---- pacing --------------------------------------------------------------
    for section in module.all_sections():
        if section.minutes <= 0:
            error(section.number, "section has non-positive pacing minutes")
    if module.session_minutes == 0:
        error(module.slug, "no in-session time (every chapter is pre-work?)")
    elif not module.fits_lab_period():
        warning(
            module.slug,
            f"session pacing is {module.session_minutes} min, beyond the "
            f"{module.target_minutes}-min lab period",
        )

    # ---- questions -------------------------------------------------------------
    for question in module.all_questions():
        where = question.activity_id
        if isinstance(question, MultipleChoice):
            if len(question.choices) < 2:
                error(where, "multiple choice needs at least two options")
            correct = next(
                c for c in question.choices if c.label == question.correct_label
            )
            if not correct.feedback:
                warning(where, "correct choice has no feedback text")
        elif isinstance(question, FillInTheBlank):
            if question.numeric_answer is None and not question.answer_pattern:
                error(where, "blank has neither a numeric answer nor a pattern")
            if question.numeric_answer is not None and question.tolerance < 0:
                error(where, "negative tolerance")
        elif isinstance(question, (DragAndDrop, OrderingProblem)):
            pass  # their constructors already enforce well-formedness

    # ---- media ------------------------------------------------------------------
    for section in module.all_sections():
        for block in section.blocks:
            if isinstance(block, Video) and block.duration_s > 15 * 60:
                warning(
                    section.number,
                    f"video '{block.title}' is {block.duration_s // 60} min; "
                    "self-paced modules favor short videos",
                )

    # ---- activities ----------------------------------------------------------------
    # The catalog loads both runtimes; only this check needs it.
    from ..patternlets import get_patternlet

    for section in module.all_sections():
        for activity in section.activities:
            where = f"{section.number}:{activity.title}"
            try:
                patternlet = get_patternlet(activity.paradigm, activity.patternlet)
            except KeyError:
                error(where, f"unknown patternlet "
                             f"{activity.paradigm}:{activity.patternlet}")
                continue
            if not activity.expected:
                warning(where, "activity declares no expected result keys")
            elif run_activities:
                kwargs = (
                    {"iterations": 500} if activity.patternlet == "race" else {}
                )
                result = patternlet.run(**kwargs)
                for key in activity.expected:
                    if key not in result.values:
                        error(
                            where,
                            f"expected key {key!r} not in "
                            f"{activity.patternlet} results "
                            f"({sorted(result.values)})",
                        )
    return findings
