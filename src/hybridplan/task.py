"""Task definition: the ordered critical configurations the end effector must
attain, with per-configuration payload-hold flags."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(eq=False)
class Task:
    id: str
    configs: list                    # ordered critical poses
    hold: list = field(default_factory=list)   # True while carrying a payload

    def __post_init__(self):
        if len(self.configs) < 2:
            raise ValueError("task needs at least 2 critical configurations")
        if not self.hold:
            self.hold = [False] * len(self.configs)
        if len(self.hold) != len(self.configs):
            raise ValueError("hold flags must match the configuration count")

