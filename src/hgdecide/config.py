"""Engine configuration.

A single immutable dataclass carries the resource caps.  Environment
variables provide defaults; CLI flags override.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_PRECISION_CAP = "HG_PRECISION_CAP"
ENV_SCAN_CAP = "HG_SCAN_CAP"


@dataclass(frozen=True)
class EngineConfig:
    # Hard ceiling for interval refinement (bits).  Hitting it is a resource
    # error, never a verdict.
    precision_cap_bits: int = 1 << 16
    # Ceiling for exact term scans (brute force, tail scans).
    scan_cap: int = 10**6

    def __post_init__(self):
        if self.precision_cap_bits < 64:
            raise ValueError("precision cap below 64 bits")
        if self.scan_cap < 1:
            raise ValueError("scan cap must be positive")

    @classmethod
    def from_env(cls) -> "EngineConfig":
        kwargs = {}
        if ENV_PRECISION_CAP in os.environ:
            kwargs["precision_cap_bits"] = int(os.environ[ENV_PRECISION_CAP])
        if ENV_SCAN_CAP in os.environ:
            kwargs["scan_cap"] = int(os.environ[ENV_SCAN_CAP])
        return cls(**kwargs)

    def with_overrides(self, **overrides) -> "EngineConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


DEFAULT_CONFIG = EngineConfig()
