"""Task definition: the ordered critical configurations the end effector must
attain, with per-configuration payload-hold flags."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hybridplan.dualquat import DualQuaternion


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


def save_task(task: Task, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"task {task.id}\n")
        for pose, hold in zip(task.configs, task.hold):
            vals = " ".join("%.17g" % x for x in pose.as_array())
            fh.write(f"config {vals} hold {1 if hold else 0}\n")


def load_task(path) -> Task:
    task_id = "task"
    configs, hold = [], []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if tok[0] == "task":
                if len(tok) != 2:
                    raise ValueError(f"task line {line!r}: 'task' takes one id")
                task_id = tok[1]
            elif tok[0] == "config":
                if len(tok) != 11 or tok[9] != "hold" or tok[10] not in ("0", "1"):
                    raise ValueError(f"task line {line!r}: 'config' takes 8 numbers "
                                     "and 'hold 0' or 'hold 1'")
                vals = np.array([float(v) for v in tok[1:9]])
                configs.append(DualQuaternion.from_array(vals))
                hold.append(tok[10] == "1")
            else:
                raise ValueError(f"unknown task-file key '{tok[0]}'")
    return Task(task_id, configs, hold)
