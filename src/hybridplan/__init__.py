"""Hybrid manipulator motion planning.

Task-space skill retargeting, a joint-space feasibility-aware policy-gradient
planner, and a learned switching agent, built on a dual-quaternion kinematics
core, analytic primitive collision checking, and a tessellated workspace
feasibility map.
"""

__version__ = "0.1.0"

from hybridplan.dualquat import DualQuaternion, dq_mul, dq_sclerp  # noqa: F401
