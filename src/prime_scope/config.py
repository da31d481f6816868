"""Run configuration shared by searches and the CLI.  Every search is
deterministic in its inputs, so the configuration holds only bounds and the
output format."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    """Bounds and rendering.

    height_bound   -- cap on the canonical height enumeration used by
                      witness/translation searches (default 1000).
    precision_cap  -- cap on the p-adic working exponent N (lifts are computed
                      mod p^N; default 1000).
    output         -- "json" or "text" rendering in the CLI.
    """

    height_bound: int = 1000
    precision_cap: int = 1000
    output: str = "json"

    def __post_init__(self):
        if self.height_bound <= 0 or self.precision_cap <= 0:
            raise ValueError("bounds must be positive")
        if self.output not in ("json", "text"):
            raise ValueError("output must be json or text")


DEFAULT = Config()
