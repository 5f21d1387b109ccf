"""Task definition: the ordered critical configurations the end effector must
attain, with per-configuration payload-hold flags."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from hybridplan import records
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


# fields after the key on each line of a task file
TASK_FIELDS = {"task": 1, "config": 10}


def save_task(task: Task, path) -> None:
    records.write(path, [records.line("task", task.id)] + [
        records.line("config", pose.as_array(), "hold", int(hold))
        for pose, hold in zip(task.configs, task.hold)])


def load_task(path) -> Task:
    task_id, configs, hold = "task", [], []
    for key, f in records.read_keyed(Path(path).read_text(), TASK_FIELDS, "task"):
        if key == "task":
            task_id = f[0]
        elif f[8] != "hold" or f[9] not in ("0", "1"):
            raise records.bad_line("task", [key, *f],
                                   "'config' takes 8 numbers and 'hold 0' or 'hold 1'")
        else:
            configs.append(DualQuaternion.from_array(f[:8]))
            hold.append(f[9] == "1")
    return Task(task_id, configs, hold)
