"""Module structure: chapters, sections, activities, and pacing.

A virtual handout is a :class:`Module` of :class:`Chapter` s of
:class:`Section` s.  Sections hold content blocks, questions, and
:class:`HandsOnActivity` references into the patternlet registry.  The
pacing model encodes the paper's 2-hour design (30 min concepts, 60 min
hands-on, 30 min exemplars).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .content import Block
from .questions import Question

__all__ = ["HandsOnActivity", "Section", "Chapter", "Module"]


@dataclass(frozen=True)
class HandsOnActivity(Block):
    """A hands-on exercise backed by a registered patternlet or exemplar.

    ``paradigm``/``patternlet`` address the registry; ``instructions`` is
    what the learner reads; ``expected`` names the values the learner
    should observe (used by the delivery simulation's checking).
    """

    title: str
    paradigm: str
    patternlet: str
    instructions: str
    expected: tuple[str, ...] = ()


@dataclass
class Section:
    """One numbered section (e.g. "2.3 Race Conditions")."""

    number: str
    title: str
    blocks: list[Block] = field(default_factory=list)
    minutes: int = 5

    def add(self, *blocks: Block) -> "Section":
        self.blocks.extend(blocks)
        return self

    @property
    def questions(self) -> list[Question]:
        return [b for b in self.blocks if isinstance(b, Question)]

    @property
    def activities(self) -> list[HandsOnActivity]:
        return [b for b in self.blocks if isinstance(b, HandsOnActivity)]


@dataclass
class Chapter:
    """A module chapter grouping sections with a pacing budget.

    ``pre_work`` marks chapters completed *before* the synchronous session
    (the paper had participants set up their Pis ahead of the morning
    activity), so they do not count against the 2-hour lab period.
    """

    number: int
    title: str
    sections: list[Section] = field(default_factory=list)
    pre_work: bool = False

    def add(self, section: Section) -> "Chapter":
        self.sections.append(section)
        return self

    @property
    def minutes(self) -> int:
        return sum(s.minutes for s in self.sections)


@dataclass
class Module:
    """A complete self-paced virtual handout.

    Questions are indexed by activity id for :meth:`find_question`, which
    every submission calls.  :meth:`add` and :meth:`reindex` rebuild the
    index; an edit that changes questions any other way must call
    :meth:`reindex` (a served module changes only through
    ``CohortRegistry.edit_module``, which does).
    """

    slug: str
    title: str
    audience: str
    chapters: list[Chapter] = field(default_factory=list)
    target_minutes: int = 120  # "approximately 2 hours"
    _questions: dict[str, Question] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.reindex()

    def add(self, chapter: Chapter) -> "Module":
        self.chapters.append(chapter)
        self.reindex()
        return self

    def reindex(self) -> None:
        """Rebuild the activity-id index (the first question wins a duplicate id)."""
        index: dict[str, Question] = {}
        for q in self.all_questions():
            index.setdefault(q.activity_id, q)
        self._questions = index

    # ----------------------------------------------------------------- queries
    def all_sections(self) -> Iterator[Section]:
        for ch in self.chapters:
            yield from ch.sections

    def all_questions(self) -> list[Question]:
        return [q for s in self.all_sections() for q in s.questions]

    def all_activities(self) -> list[HandsOnActivity]:
        return [a for s in self.all_sections() for a in s.activities]

    def find_question(self, activity_id: str) -> Question:
        try:
            return self._questions[activity_id]
        except (KeyError, TypeError):
            raise KeyError(f"no question {activity_id!r} in module {self.slug}") from None

    def find_section(self, number: str) -> Section:
        for s in self.all_sections():
            if s.number == number:
                return s
        raise KeyError(f"no section {number!r} in module {self.slug}")

    @property
    def total_minutes(self) -> int:
        return sum(ch.minutes for ch in self.chapters)

    @property
    def session_minutes(self) -> int:
        """Minutes of in-session pacing (pre-work chapters excluded)."""
        return sum(ch.minutes for ch in self.chapters if not ch.pre_work)

    @property
    def prework_minutes(self) -> int:
        return sum(ch.minutes for ch in self.chapters if ch.pre_work)

    def fits_lab_period(self, slack_minutes: int = 15) -> bool:
        """Does the in-session pacing fit the standard 2-hour lab period?"""
        return self.session_minutes <= self.target_minutes + slack_minutes

    def pacing_table(self) -> list[tuple[str, int]]:
        """(chapter title, minutes) rows — the module's time budget."""
        return [(ch.title, ch.minutes) for ch in self.chapters]
