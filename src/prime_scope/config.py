"""Run configuration shared by searches and the CLI.  Every search is
deterministic in its inputs, so the configuration holds only bounds."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    """Search bounds.

    height_bound   -- cap on the canonical height enumeration used by
                      witness/translation searches (default 1000).
    precision_cap  -- cap on the p-adic working exponent N (lifts are computed
                      mod p^N; default 1000).
    """

    height_bound: int = 1000
    precision_cap: int = 1000

    def __post_init__(self):
        if self.height_bound <= 0 or self.precision_cap <= 0:
            raise ValueError("bounds must be positive")


DEFAULT = Config()
