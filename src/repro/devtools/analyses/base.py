"""The :class:`Analysis` interface of the whole-program passes."""

from __future__ import annotations

from collections.abc import Iterable

from repro.devtools.callgraph import ProjectIndex
from repro.devtools.engine import Violation


class Analysis:
    """Base class for one whole-program analysis.

    Subclasses set :attr:`rule_id` / :attr:`summary` and implement
    :meth:`check` over the assembled
    :class:`~repro.devtools.callgraph.ProjectIndex`.
    """

    rule_id: str = "SPC000"
    summary: str = ""

    def check(self, project: ProjectIndex) -> Iterable[Violation]:
        """Yield violations over the whole-program index."""
        raise NotImplementedError


__all__ = ["Analysis"]
