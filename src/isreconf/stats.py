"""Coarse run counters surfaced by the CLI.

Process-local and reset per command; bench workers run in separate
processes, so the counters never race.
"""

from __future__ import annotations

_counts: dict[str, int] = {}


def reset() -> None:
    _counts.clear()


def inc(name: str, amount: int = 1) -> None:
    _counts[name] = _counts.get(name, 0) + amount


def get(name: str) -> int:
    return _counts.get(name, 0)
