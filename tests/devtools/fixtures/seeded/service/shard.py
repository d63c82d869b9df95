"""Seeded SPC009 fixture: phase-1 reserves that can leak capacity."""

from typing import Any


class _Scheduler:
    def reserve_external(self, app_id: str, consumptions: Any) -> None:
        raise NotImplementedError

    def withdraw(self, app_id: str) -> None:
        raise NotImplementedError


class _Ledger:
    def consume(self, loads: Any, rate: float) -> None:
        raise NotImplementedError


class SeededCoordinator:
    def __init__(self) -> None:
        self.scheduler = _Scheduler()
        self._ledger = _Ledger()
        self._log: list[dict[str, Any]] = []

    def reserve_when_urgent(
        self, app_id: str, consumptions: Any, urgent: bool
    ) -> None:
        self.scheduler.reserve_external(app_id, consumptions)
        if urgent:
            self._log.append({"type": "reserve", "app_id": app_id})

    def commit_entries(self, entries: list[tuple[Any, float]]) -> None:
        try:
            for loads, rate in entries:
                self._ledger.consume(loads, rate)
        except ValueError as error:
            raise RuntimeError(f"aborted mid-commit: {error}") from error
