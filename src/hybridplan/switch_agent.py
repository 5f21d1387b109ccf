"""Learned switching between the demonstration-derived joint trajectory and
the joint-space bridge trajectories.

Around every feasible/infeasible boundary the agent walks the decision
window and chooses, waypoint by waypoint, whether to keep executing the
current source or hand over; the first flip fixes the handover index.
Handover inserts a capped joint-space blend, and ``densify`` bounds every
step of the assembled trajectory; both split edges by the rule stated in
``hybridplan.trajectory``.  The training reward is the
per-point feasibility sum (normalized manipulability minus collision) of the
executed window, which is exactly the trajectory-level reward restricted to
the points the decision can influence.  The task-space plan is (N, 8) pose
lanes, and its brackets are rows of them.  ``geometry.score_lanes`` annotates
the joint rows a decision reads: the candidates, the bridges and the blends
the training reward scores, all of a band's blends in one call.  The
executed path that ``assemble`` joins and ``densify`` bounds carries points,
sources and success only, and ``workcell.execute`` judges it by its own walk
of every checked row.

The demonstration-derived joint trajectory takes each pose's exact elbow
branches (``kinematics.closed_form_branches``) on planar RR and 3R arms.
Any other chain takes one solution per pose from ``_chained_ik_free``: the
chained IK of general chains lives here, beside its one caller.  Per pose the
collision-free candidates are allowed, or every candidate when none is free;
a Viterbi pass picks the allowed sequence whose largest joint step is
smallest, the step ``densify`` splits, then the smallest summed step.  A
pose without a candidate holds the configuration before it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from hybridplan.dualquat import dq_to_lanes
from hybridplan.feasibility import POSE_TOL
from hybridplan.geometry import collision_index, score_lanes
from hybridplan.kinematics import RobotModel, closed_form_branches, ik_attempt
from hybridplan.rl_core import (
    CategoricalPolicy,
    PpoConfig,
    RolloutBatch,
    ValueNet,
    ppo_update,
)
from hybridplan.trajectory import SOURCE_DRL, SOURCE_LFD, JointTrajectory, subdivide
from hybridplan.workcell import SMOOTH_BOUND_DEG

ACT_KEEP, ACT_SWITCH = 0, 1
CHAIN_IK_SEED = 0         # the random stream of the chained IK restarts
CHAIN_IK_ATTEMPTS = 6     # IK descents per pose of the chained IK


@dataclass
class SwitchConfig:
    # global smoothness bound for traj_final: the payload-drop bound of
    # ``workcell.execute``, so a densified trajectory never drops the payload
    smooth_bound_deg: ClassVar[float] = SMOOTH_BOUND_DEG
    window: ClassVar[int] = 5                # K: decision points within +-K of a boundary
    blend_points: ClassVar[int] = 10         # max inserted handover points
    blend_step_deg: ClassVar[float] = 2.0    # per-step cap inside a blend

    def obs_dim(self, dof: int) -> int:
        span = 2 * self.window + 1
        return 2 * span * (dof + 2) + 2


def switch_ppo_config() -> PpoConfig:
    """Discrete-PPO training defaults for the switching agent."""
    return PpoConfig(learning_rate=1e-3, discount=0.96, minibatch_size=32, num_steps=200)


def switch_reward(traj: JointTrajectory) -> float:
    """Sum over trajectory points of man' - COL."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    return float(np.sum(traj.man - traj.col.astype(float)))


# ------------------------------------------------------------------ #
# Candidate construction
# ------------------------------------------------------------------ #
def lfd_joint_candidates(poses, model: RobotModel, obstacles):
    """Joint trajectory of a task-space plan, one configuration per pose,
    annotated by its own normalized manipulability and collision index.

    Each pose's candidates are its ``closed_form_branches`` at the position
    tolerance of ``POSE_TOL``; on a chain the closed form does not cover,
    they are one solution of ``_chained_ik_free``, the chained IK of general
    chains.  Every candidate is scored by one ``score_lanes`` call.
    A pose allows its collision-free candidates, or every candidate when
    none is free, and ``_min_jump_picks`` chooses one allowed candidate per
    pose.  A pose without a candidate holds the configuration before it
    (home at the start of the plan).
    """
    lanes = dq_to_lanes(poses).reshape(-1, 8)
    branches = closed_form_branches(model, lanes, POSE_TOL[0])
    if branches is None:
        branches = _chained_ik_free(lanes, model, obstacles)[:, None]
    reached = ~np.isnan(branches[..., 0])
    man, col = np.zeros(reached.shape), np.ones(reached.shape, dtype=np.uint8)
    row_man, row_col = score_lanes(model, np.vstack([model.home, branches[reached]]), obstacles)
    man[reached], col[reached] = row_man[1:], row_col[1:]
    free = col == 0
    allowed = np.where(free.any(axis=1)[:, None], free, reached)
    has = allowed.any(axis=1)
    active = np.flatnonzero(has)
    picks = np.array(_min_jump_picks(branches[active], allowed[active]), dtype=int)
    # each pose's row of [home, picks]: that of the last pose with a pick
    at = np.cumsum(has)
    return JointTrajectory(np.vstack([model.home, branches[active, picks]])[at],
                           np.full(len(lanes), SOURCE_LFD, np.uint8),
                           np.concatenate([row_man[:1], man[active, picks]])[at],
                           np.concatenate([row_col[:1], col[active, picks]])[at])


def _chained_ik_free(lanes, model: RobotModel, obstacles) -> np.ndarray:
    """(N, dof) IK solutions of (N, 8) lanes that prefer collision-free ones,
    NaN rows where none was reached, on one random stream from
    ``CHAIN_IK_SEED``.

    Each pose gets ``CHAIN_IK_ATTEMPTS`` ``ik_attempt`` descents to
    ``POSE_TOL``: the first from the last solution (home for the first pose),
    each later one from a uniform random seed drawn after a descent without a
    collision-free solution.  A pose keeps its first collision-free solution
    (scalar ``collision_index``), else its first solution reached."""
    rng = np.random.default_rng(CHAIN_IK_SEED)
    lo, hi = model.limits_lo, model.limits_hi
    out = np.full((len(lanes), model.dof), np.nan)
    prev = model.home
    for i, pose in enumerate(lanes):
        seed, theta = prev, None
        for _ in range(CHAIN_IK_ATTEMPTS):
            sol = ik_attempt(model, pose, seed, *POSE_TOL, max_iters=150)
            if sol is not None:
                if collision_index(model, sol, obstacles) == 0:
                    theta = sol
                    break
                if theta is None:
                    theta = sol
            seed = rng.uniform(lo, hi)
        if theta is not None:
            out[i] = prev = theta
    return out


def _min_jump_picks(branches, allowed) -> list:
    """One branch index per pose of (n, B, dof) candidates, each pose with at
    least one ``allowed`` (n, B) candidate.

    A Viterbi pass over the infinity-norm joint steps between consecutive
    poses (``trajectory.edge_steps``) finds the smallest largest step; a
    second pass, over the steps no larger than that, the smallest sum of
    steps, added from the first pose on.  Ties go to the lower branch index,
    at the last pose first, then at the pose before it, and so on."""
    if len(branches) == 0:
        return []
    nb = allowed.shape[1]
    steps = np.max(np.abs(branches[1:, None] - branches[:-1, :, None]), axis=-1)
    steps = np.where(allowed[:-1, :, None] & allowed[1:, None, :], steps, np.inf).tolist()
    start = [0.0 if ok else np.inf for ok in allowed[0].tolist()]
    worst = start
    for w in steps:                 # w[a][b]: from branch a to branch b
        worst = [min(max(worst[a], w[a][b]) for a in range(nb)) for b in range(nb)]
    bound = min(worst)
    total, back = start, []
    for w in steps:
        best = [(np.inf, 0)] * nb
        for b in range(nb):
            for a in range(nb):
                if w[a][b] <= bound and total[a] + w[a][b] < best[b][0]:
                    best[b] = (total[a] + w[a][b], a)
        total = [t for t, _ in best]
        back.append([a for _, a in best])
    picks = [total.index(min(total))]
    for prev in reversed(back):
        picks.append(prev[picks[-1]])
    return picks[::-1]


def _blend_rows(theta_a, theta_b, cfg: SwitchConfig) -> JointTrajectory:
    """Unscored joint-space handover ramp between two waypoints (exclusive
    endpoints): the inserted rows of their edge split at ``blend_step_deg``,
    at most ``blend_points`` of them, each DRL-sourced."""
    ends = np.array([theta_a, theta_b], dtype=float)
    pts = subdivide(ends, np.radians(cfg.blend_step_deg), cfg.blend_points + 1)[0][1:-1]
    return JointTrajectory(pts, np.full(len(pts), SOURCE_DRL, np.uint8))


def blend(ends, model, obstacles, cfg: SwitchConfig) -> list:
    """The handover ramps of ``_blend_rows`` between each (theta_a, theta_b)
    of ``ends``, annotated by one ``score_lanes`` call over all their rows:
    the blends ``executed_window_reward`` scores.  A row scores alike
    however the rows are batched."""
    ramps = [_blend_rows(a, b, cfg) for a, b in ends]
    man, col = score_lanes(model, np.concatenate([r.points for r in ramps]), obstacles)
    at = np.cumsum([len(r) for r in ramps])[:-1]
    return [JointTrajectory(r.points, r.source, m, c)
            for r, m, c in zip(ramps, np.split(man, at), np.split(col, at))]


def _resample_rows(arr: np.ndarray, k: int) -> np.ndarray:
    pos = np.linspace(0, len(arr) - 1, k)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, len(arr) - 1)
    u = (pos - lo)[:, None] if arr.ndim == 2 else (pos - lo)
    return arr[lo] * (1 - u) + arr[hi] * u


@dataclass
class Boundary:
    kind: str                 # "entry" (LFD -> DRL) or "exit" (DRL -> LFD)
    index: int                # boundary waypoint index in the task-space plan
    lo: int                   # decision window, inclusive
    hi: int


@dataclass
class BandPlan:
    """One infeasible band: its bridge and the two decision windows."""
    seg_start: int
    seg_end: int
    bridge: JointTrajectory
    entry: Boundary
    exit: Boundary


def find_bands(classification, lfd_cands: JointTrajectory, cfg: SwitchConfig,
               bridge_fn) -> list:
    """Build a BandPlan per interior infeasible segment.

    ``bridge_fn(start_pose, goal_pose, start_theta) -> JointTrajectory``.
    Head/tail infeasible segments have no bracket on one side and stay on the
    demonstration-derived candidates.
    """
    bands = []
    n = len(classification.poses)
    for seg, before, after in classification.infeasible_brackets():
        if before is None or after is None:
            continue
        i, j = seg.start, seg.end
        bridge = bridge_fn(before, after, lfd_cands.points[i - 1])
        entry = Boundary("entry", i - 1,
                         max(0, i - 1 - cfg.window), min(i - 1 + cfg.window, j))
        exit_ = Boundary("exit", j + 1,
                         max(i, j + 1 - cfg.window), min(j + 1 + cfg.window, n - 1))
        bands.append(BandPlan(i, j, bridge, entry, exit_))
    return bands


def boundary_observation(band: BandPlan, boundary: Boundary, j: int,
                         lfd_cands: JointTrajectory, cfg: SwitchConfig) -> np.ndarray:
    """Flattened window of both sources' joints plus annotations plus the
    normalized boundary distance and kind flag."""
    span = 2 * cfg.window + 1
    n = len(lfd_cands)
    idx = np.clip(np.arange(j - cfg.window, j + cfg.window + 1), 0, n - 1)
    lfd_block = np.concatenate([
        lfd_cands.points[idx].ravel(),
        lfd_cands.man[idx],
        lfd_cands.col[idx].astype(float),
    ])
    bridge = band.bridge
    pts = _resample_rows(bridge.points, span)
    man = _resample_rows(bridge.man, span)
    col = _resample_rows(bridge.col.astype(float), span)
    drl_block = np.concatenate([pts.ravel(), man, col])
    extra = np.array([(j - boundary.index) / max(cfg.window, 1),
                      1.0 if boundary.kind == "entry" else -1.0])
    return np.concatenate([lfd_block, drl_block, extra])


# ------------------------------------------------------------------ #
# Assembly
# ------------------------------------------------------------------ #
def assemble(lfd_cands: JointTrajectory, bands: list, switches: list,
             model, obstacles, cfg: SwitchConfig) -> JointTrajectory:
    """The executed path for given per-band handover indices [(switch_in,
    switch_out), ...]: the candidate slices, each band's bridge and the
    unscored handover rows of ``_blend_rows`` joined by
    ``JointTrajectory.concat``, so without annotations, with or without a
    band; successful when every bridge is.  Nothing is scored, so ``model``
    and ``obstacles`` are not read; they stay because ``perfbench`` passes
    them by position (ROADMAP item 22 may drop them)."""
    parts = []
    cursor = 0
    for band, (s_in, s_out) in zip(bands, switches):
        parts.append(lfd_cands[cursor:s_in + 1])
        parts.append(_blend_rows(lfd_cands.points[s_in], band.bridge.points[0], cfg))
        parts.append(band.bridge)
        parts.append(_blend_rows(band.bridge.points[-1], lfd_cands.points[s_out], cfg))
        cursor = s_out
    out = JointTrajectory.concat(*parts, lfd_cands[cursor:])
    out.success = all(b.bridge.success for b in bands)
    return out


def densify(traj: JointTrajectory, model, obstacles, bound_deg) -> JointTrajectory:
    """Insert linear joint interpolation so no step exceeds the bound: each
    edge split at the bound; an inserted point takes the source of the
    waypoint it leads to.  The result carries points, sources and ``traj``'s
    success, without annotations.  A path outside ``model``'s joint limits is
    refused before it is split.  ``obstacles`` is not read; it stays because
    ``perfbench`` passes it by position (ROADMAP item 22 may drop it)."""
    if not bound_deg > 0:
        raise ValueError(f"bound_deg must be positive, got {bound_deg}")
    model.refuse_outside_limits(traj.points)
    pts, at = subdivide(traj.points, np.radians(bound_deg))
    return JointTrajectory(pts, traj.source[np.searchsorted(at, np.arange(len(pts)))],
                           success=traj.success)


def _walk_band(band, lfd_cands, cfg, choose, start=0):
    """Run the sequential first-flip decisions for one band, the entry window
    first and from ``start`` on.  ``choose(obs, boundary, j) -> action``;
    returns (switch_in, switch_out): per window the first index switched at,
    else its last (``start`` for an entry window wholly before it)."""
    out = []
    for boundary, lo in ((band.entry, max(band.entry.lo, start)), (band.exit, band.exit.lo)):
        switch = max(boundary.hi, lo)
        for j in range(lo, boundary.hi + 1):
            obs = boundary_observation(band, boundary, j, lfd_cands, cfg)
            if choose(obs, boundary, j) == ACT_SWITCH:
                switch = j
                break
        out.append(switch)
    return tuple(out)


def heuristic_switches(bands) -> list:
    """Switch exactly at the classified boundaries."""
    return [(b.entry.index, b.exit.index) for b in bands]


def policy_switches(policy, bands, lfd_cands, cfg) -> list:
    """Greedy handover indices from the policy, band by band.  Bands fewer
    than 2K + 1 poses apart have overlapping windows, so each entry window
    starts at the previous band's exit handover: ``assemble`` never walks the
    candidates backwards from one band to the next."""
    def choose(obs, boundary, j):
        return policy.mean_action(obs)
    out = []
    for band in bands:
        out.append(_walk_band(band, lfd_cands, cfg, choose, out[-1][1] if out else 0))
    return out


def executed_window_reward(lfd_cands, band, s_in, s_out, model, obstacles,
                           cfg, blends=None) -> float:
    """Eq.-9 style reward restricted to the points the decisions control,
    for handover indices within the band's decision windows.

    ``blends``, a dict kept per band, holds the band's handover blends: the
    entry blend depends only on ``s_in`` and the exit blend only on
    ``s_out``, so when the band is first met one ``blend`` call builds and
    scores the blends of every index of both windows."""
    if not (band.entry.lo <= s_in <= band.entry.hi and band.exit.lo <= s_out <= band.exit.hi):
        raise ValueError(f"handover ({s_in}, {s_out}) outside the decision windows "
                         f"[{band.entry.lo}, {band.entry.hi}] and [{band.exit.lo}, {band.exit.hi}]")
    prefix = lfd_cands[band.entry.lo:s_in + 1]
    suffix = lfd_cands[s_out:band.exit.hi + 1]
    blends = {} if blends is None else blends
    if not blends:
        ins = range(band.entry.lo, band.entry.hi + 1)
        outs = range(band.exit.lo, band.exit.hi + 1)
        ends = [(lfd_cands.points[s], band.bridge.points[0]) for s in ins] \
            + [(band.bridge.points[-1], lfd_cands.points[s]) for s in outs]
        keys = [("in", s) for s in ins] + [("out", s) for s in outs]
        blends.update(zip(keys, blend(ends, model, obstacles, cfg)))
    total = switch_reward(prefix) + switch_reward(suffix)
    for b in (blends["in", s_in], blends["out", s_out]):
        if len(b):
            total += switch_reward(b)
    return total


# ------------------------------------------------------------------ #
# Training
# ------------------------------------------------------------------ #
def brute_force_switches(band, lfd_cands, model, obstacles, cfg) -> tuple:
    """Exhaustive best (switch_in, switch_out) for one band."""
    best = None
    blends = {}
    for s_in in range(band.entry.lo, band.entry.hi + 1):
        for s_out in range(band.exit.lo, band.exit.hi + 1):
            r = executed_window_reward(lfd_cands, band, s_in, s_out,
                                       model, obstacles, cfg, blends)
            if best is None or r > best[0]:
                best = (r, s_in, s_out)
    return best[1], best[2]


def train_switch(scenarios, model, obstacles, cfg=None, seed=0, batches=30):
    """Train the discrete switching policy with ``switch_ppo_config``.

    ``scenarios`` is a list of (lfd_cands, bands) pairs prepared from
    training tasks (both upstream planners already trained).  Returns
    (policy, value_net, curve).
    """
    if not scenarios:
        raise ValueError("no switching scenarios: train the upstream planners first")
    if not any(bands for _, bands in scenarios):
        raise ValueError("no switching scenario has a band to train on")
    cfg = cfg or SwitchConfig()
    ppo_cfg = switch_ppo_config()
    rng = np.random.default_rng(seed)
    dof = scenarios[0][0].points.shape[1]
    policy = CategoricalPolicy(cfg.obs_dim(dof), 2, rng=rng)
    value_net = ValueNet(cfg.obs_dim(dof), rng=rng)
    span = 2 * cfg.window + 1
    blends = {}                      # (scenario, band) -> that band's handover blends
    curve = []
    for b in range(batches):
        T = ppo_cfg.num_steps
        obs_buf = np.zeros((T, cfg.obs_dim(dof)))
        act_buf = np.zeros(T)
        logp_buf = np.zeros(T)
        rew_buf = np.zeros(T)
        done_buf = np.zeros(T)
        t = 0
        while t < T:
            k_scenario = int(rng.integers(len(scenarios)))
            lfd_cands, bands = scenarios[k_scenario]
            if not bands:
                continue
            k_band = int(rng.integers(len(bands)))
            band = bands[k_band]
            decisions = []

            def choose(obs, boundary, j):
                a, logp = policy.act(obs, rng)
                decisions.append((obs, a, logp))
                return a

            s_in, s_out = _walk_band(band, lfd_cands, cfg, choose)
            r = executed_window_reward(lfd_cands, band, s_in, s_out, model, obstacles,
                                       cfg, blends.setdefault((k_scenario, k_band), {})) / span
            for k, (obs, a, logp) in enumerate(decisions):
                if t >= T:
                    break
                obs_buf[t] = obs
                act_buf[t] = a
                logp_buf[t] = logp
                rew_buf[t] = r if k == len(decisions) - 1 else 0.0
                done_buf[t] = 1.0 if k == len(decisions) - 1 else 0.0
                t += 1
        batch = RolloutBatch(obs_buf, act_buf, logp_buf, rew_buf, done_buf,
                             obs_buf[-1])
        stats = ppo_update(policy, value_net, batch, ppo_cfg, rng)
        stats["epoch"] = b
        curve.append(stats)
    return policy, value_net, curve
