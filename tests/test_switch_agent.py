import numpy as np
import pytest

from hybridplan.kinematics import planar_3r
from hybridplan.switch_agent import train_switch
from hybridplan.trajectory import SOURCE_LFD, JointTrajectory


def test_train_switch_rejects_scenarios_without_bands():
    # with no band anywhere the rollout loop could never fill a batch
    model = planar_3r()
    n = 6
    cands = JointTrajectory(np.tile(model.home, (n, 1)), np.full(n, SOURCE_LFD, np.uint8),
                            np.ones(n), np.zeros(n, dtype=np.uint8))
    with pytest.raises(ValueError, match="band"):
        train_switch([(cands, []), (cands, [])], model, [], batches=1)
