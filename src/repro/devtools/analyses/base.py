"""The :class:`Analysis` interface shared by the SPC008–SPC010 passes."""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.devtools.callgraph import ProjectIndex
from repro.devtools.engine import FileContext, Violation


class Analysis:
    """Base class for one whole-program analysis.

    Subclasses set :attr:`rule_id` / :attr:`summary`, optionally
    override :meth:`extract` to distill per-file facts (must return
    JSON-serializable data — it is cached on disk keyed by file
    mtime/size), and implement :meth:`check` over the assembled
    :class:`~repro.devtools.callgraph.ProjectIndex`.
    """

    rule_id: str = "SPC000"
    summary: str = ""

    def extract(self, ctx: FileContext) -> Any | None:
        """Per-file facts for this analysis; ``None`` when uninterested."""
        return None

    def check(self, project: ProjectIndex) -> Iterable[Violation]:
        """Yield violations over the whole-program index."""
        raise NotImplementedError


__all__ = ["Analysis"]
