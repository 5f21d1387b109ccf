"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, then does its
timed work in rounds through ``run_round``: a training phase, then queries.
Every round repeats the same deterministic work, so the quality figures must
come out identical in every round; a round that disagrees with the first
fails the run's checks.  Timings are kept per item (a map build, a task's
training, one query), at the reference speed when the tally has a
speedometer, and an item counts at the median of its repeats.

* ``map``    -- build_map over the wall cell; queries are classify_trajectory
                lookups of straight task-space paths on the built map.
* ``skills`` -- per-task train_hrl, then plan_lfd over rigidly placed copies of
                every task, scored against the exhaustive_plan optimum.
* ``hybrid`` -- the whole pipeline: map + HRL tables in set-up, DRL bridge and
                switch training, then plan-to-validated-trajectory for every
                task instance.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from hybridplan.dualquat import quat_to_euler
from hybridplan.drl_planner import DrlEnvConfig, plan_drl, train_drl
from hybridplan.feasibility import OK, build_map, classify_trajectory, obstacles_signature
from hybridplan.geometry import collision_index
from hybridplan.hrl_planner import (
    HrlConfig,
    QTables,
    extrinsic_reward,
    intrinsic_reward,
    plan_lfd,
    train_hrl,
)
from hybridplan.kinematics import fk, robot_hash
from hybridplan.lfd import chordal_distance
from hybridplan.rl_core import PpoConfig
from hybridplan.switch_agent import (
    SwitchConfig,
    assemble,
    densify,
    find_bands,
    heuristic_switches,
    lfd_joint_candidates,
    policy_switches,
    train_switch,
)
from hybridplan.workcell import SuccessCriteria, Workcell, execute

import inputs

clock = time.perf_counter


@dataclass
class Tally:
    """Everything a run measures.  ``train_s`` and ``query_ms`` map an item
    to its timing samples, one per round; ``quality`` is (successes, base) of
    the first round."""
    train_s: defaultdict = field(default_factory=lambda: defaultdict(list))
    query_ms: defaultdict = field(default_factory=lambda: defaultdict(list))
    quality: tuple = None
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    check_failures: list = field(default_factory=list)
    report: dict = field(default_factory=dict)       # workload-specific figures
    manifest: dict = field(default_factory=dict)
    speed: object = None             # a speed.Speedometer, or None for raw times

    def since(self, t0: float) -> float:
        """Seconds from ``t0`` to now, at the reference speed when a
        speedometer is attached."""
        return clock() - t0 if self.speed is None else self.speed.since(t0)

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        self.errors[type(exc).__name__] += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.check_failures) < 20:
            self.check_failures.append(what)

    def set_quality(self, hits: int, base: int) -> None:
        if self.quality is None:
            self.quality = (hits, base)
        else:
            self.check(self.quality == (hits, base),
                       f"quality {hits}/{base} differs from first round "
                       f"{self.quality[0]}/{self.quality[1]}")

    # Each item counts at the median of its repeats, so a run reads the speed
    # the shared machine had for most of it (see the README).
    def median_train_s(self) -> float:
        """Training time with every trained item at the median of its repeats."""
        return float(sum(np.median(v) for v in self.train_s.values()))

    def median_query_ms(self) -> list:
        """Each query item at the median of its repeats."""
        return [float(np.median(v)) for v in self.query_ms.values()]


def _timing(samples_ms) -> dict:
    p50, p90 = np.percentile(samples_ms, [50, 90])
    return {"p50": float(p50), "p90": float(p90), "mean": float(np.mean(samples_ms)),
            "n": len(samples_ms), "unit": "ms"}


def _yaw(pose) -> float:
    return float(quat_to_euler(pose.real)[2])


def _wrap(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


# ------------------------------------------------------------------ #
# map
# ------------------------------------------------------------------ #
MAP_VOXEL = 0.3
# build_map's IK restart stream.  Fixed: at 90 cells the build time moves by
# a quarter from one stream to another (2.6-3.6 s over run seeds 1-5), more
# than the benchmark's bound; the run seed drives the query paths instead.
MAP_IK_SEED = 0
PATH_POSES = 100                       # poses per straight query path


@dataclass
class MapSizes:
    box_lo: tuple = (-0.3, -0.6)       # reaches past the 1.2 m reach on +x
    box_hi: tuple = (1.5, 0.9)
    yaw_bins: int = 3
    queries: int = 120                 # straight paths classified per round
    witness_checks: int = 16           # OK cells re-verified per round


class MapWorkload:
    name = "map"

    def __init__(self, seed, sizes=None):
        self.seed = seed
        self.sizes = sizes or MapSizes()

    def setup(self, tally: Tally) -> None:
        sz = self.sizes
        rng = np.random.default_rng(self.seed)
        self.model = inputs.robot()
        # the scene is fixed: moving the wall or the box changes the verdict mix
        # and so the work of build_map
        self.cell = inputs.wall_cell()
        self.box = ([*sz.box_lo, -0.1], [*sz.box_hi, 0.1])
        self.paths = []                # straight in (x, y), yaw interpolated linearly
        for _ in range(sz.queries):
            a, b = (np.array([*rng.uniform(self.box[0][:2], self.box[1][:2]),
                              rng.uniform(-np.pi, np.pi)]) for _ in range(2))
            self.paths.append([inputs.planar_pose(*(a + u * (b - a)))
                               for u in np.linspace(0, 1, PATH_POSES)])
        self.check_rng_seed = int(rng.integers(1 << 31))
        tally.manifest.update(robot_hash=robot_hash(self.model),
                              obstacles_signature=obstacles_signature(self.cell.obstacles))

    def run_round(self, tally: Tally) -> None:
        sz = self.sizes
        tally.attempted += 1
        t = clock()
        fmap = build_map(self.model, self.cell.obstacles, self.box, MAP_VOXEL,
                         orientation_spec=(np.pi, (1, 1, sz.yaw_bins)), seed=MAP_IK_SEED)
        tally.train_s["build_map"].append(tally.since(t))
        ok = int(np.sum(fmap.reasons == OK))
        tally.set_quality(ok, fmap.n_cells)
        for k, path in enumerate(self.paths):
            tally.attempted += 1
            t = clock()
            classify_trajectory(path, fmap)
            tally.query_ms[k].append(1e3 * tally.since(t))
        self._check_witnesses(fmap, tally)

    def figures(self, tally: Tally) -> dict:
        hits, base = tally.quality
        builds = len(tally.train_s["build_map"])
        return {"map_cells_per_s": {"value": base / tally.median_train_s(), "builds": builds,
                                    "unit": "cells/s"},
                "map_feasible_frac": {"value": hits / base, "ok_cells": hits, "cells": base},
                "classify_ms": _timing(tally.median_query_ms())}

    def _check_witnesses(self, fmap, tally: Tally) -> None:
        """Re-verify a sample of OK cells: the stored witness reaches the cell
        centre within the cell tolerance, inside the joint limits, without
        collision."""
        rng = np.random.default_rng(self.check_rng_seed)
        ok_cells = np.flatnonzero(fmap.reasons == OK)
        pick = rng.choice(ok_cells, size=min(self.sizes.witness_checks, len(ok_cells)),
                          replace=False)
        cells = list(fmap.all_cells())
        half_pos = 0.5 * fmap.voxel_size
        half_rot = float(np.min(fmap.theta_max / np.asarray(fmap.orient_counts)))
        slack = 1e-4                   # witnesses are stored as float32
        for i in pick:
            vox, ori = cells[i]
            target = fmap.cell_pose(vox, ori)
            w = fmap.witnesses[i].astype(float)
            reached = fk(self.model, w)
            dp = reached.translation()[:2] - target.translation()[:2]
            tally.check(np.hypot(*dp) <= half_pos + slack
                        and abs(_wrap(_yaw(reached) - _yaw(target))) <= half_rot + slack
                        and self.model.within_limits(w, tol=slack)
                        and collision_index(self.model, w, self.cell.obstacles) == 0,
                        f"map cell {int(i)}: witness does not verify")


# ------------------------------------------------------------------ #
# skills
# ------------------------------------------------------------------ #
@dataclass
class SkillsSizes:
    tasks: int = 8
    placements: int = 13               # planned instances per task
    episodes: int = 32                 # train_hrl episodes per task


def hrl_config() -> HrlConfig:
    """Exact configurations (no jitter) and full-step updates: with the
    optimistic zero initialisation of the tables, mostly greedy episodes then
    enumerate every segment/skill choice once, so a trained table's greedy
    plan should be the exhaustive optimum."""
    return HrlConfig(alpha=1.0, eps_start=0.1, eps_end=0.0, eps_decay=32.0,
                     jitter_pos=(0.0, 0.0, 0.0), jitter_rot=0.0)


class SkillsWorkload:
    name = "skills"

    def __init__(self, seed, sizes=None):
        self.seed = seed
        self.sizes = sizes or SkillsSizes()

    def setup(self, tally: Tally) -> None:
        rng = np.random.default_rng(self.seed)
        self.library = inputs.skill_library()
        self.tasks, discarded = inputs.skill_tasks(rng, self.library, self.sizes.tasks,
                                                   self.sizes.placements)
        tally.report.update(tasks_kept=len(self.tasks), tasks_discarded=discarded)
        tally.manifest.update(robot_hash=None, obstacles_signature=None)

    def run_round(self, tally: Tally) -> None:
        sz = self.sizes
        tables = []
        for k, st in enumerate(self.tasks):
            tally.attempted += 1
            t = clock()
            tables.append(train_hrl([st.task], self.library, episodes=sz.episodes,
                                    config=hrl_config(), seed=self.seed * 1000 + k))
            tally.train_s[k].append(tally.since(t))
        optimal = planned = 0
        for st, table in zip(self.tasks, tables):
            for inst in st.instances:
                planned += 1
                tally.attempted += 1
                t = clock()
                try:
                    plan = plan_lfd(inst, self.library, table)
                except Exception as exc:   # a plan that raises is a failed, non-optimal op
                    tally.fail(exc)
                    continue
                tally.query_ms[inst.id].append(1e3 * tally.since(t))
                optimal += self._check_plan(inst, plan, st.optimum, tally)
        tally.set_quality(optimal, planned)

    def figures(self, tally: Tally) -> dict:
        hits, base = tally.quality
        episodes = len(self.tasks) * self.sizes.episodes
        return {"hrl_episodes_per_s": {"value": episodes / tally.median_train_s(),
                                       "episodes": episodes, "unit": "episodes/s"},
                "hrl_optimal_rate": {"value": hits / base, "optimal": hits, "instances": base},
                "lfd_plan_ms": _timing(tally.median_query_ms()),
                "tasks": {"kept": tally.report["tasks_kept"],
                          "discarded": tally.report["tasks_discarded"]}}

    def _check_plan(self, inst, plan, optimum, tally: Tally) -> bool:
        """Plan passes through every critical configuration in order and
        scores no better than the optimum; returns whether it is optimal."""
        poses, at = plan["poses"], 0
        for j, config in enumerate(inst.configs):
            while at < len(poses) and chordal_distance(poses[at], config) > 1e-6:
                at += 1
            tally.check(at < len(poses), f"{inst.id}: plan misses configuration {j}")
        reward = extrinsic_reward([intrinsic_reward(self.library[skill], inst.configs[a:b + 1])
                                   for (a, b), skill in plan["segments"]])
        tol = 1e-7 * max(1.0, abs(optimum))
        tally.check(reward <= optimum + tol,
                    f"{inst.id}: plan reward {reward} exceeds optimum {optimum}")
        return abs(reward - optimum) <= tol


# ------------------------------------------------------------------ #
# hybrid
# ------------------------------------------------------------------ #
POINTS_PER_GAP = 12                    # plan_lfd interpolation between configurations


def _params(*policies) -> np.ndarray:
    """The policies' weights and biases as one flat array; None adds nothing."""
    return np.concatenate([np.ravel(a) for p in policies if p is not None
                           for a in p.net.weights + p.net.biases] + [np.empty(0)])


@dataclass
class HybridSizes:
    yaw_bins: int = 3                  # odd, so one bin is centred on yaw 0
    train_tasks: int = 12              # switching scenarios
    instances: int = 100
    crossing_share: float = 0.3
    drl_batches: int = 3
    drl_steps: int = 512
    episode_budget: int = 40
    switch_batches: int = 2


class HybridWorkload:
    name = "hybrid"

    def __init__(self, seed, sizes=None):
        self.seed = seed
        self.sizes = sizes or HybridSizes()

    def setup(self, tally: Tally) -> None:
        sz = self.sizes
        rng = np.random.default_rng(self.seed)
        self.model = inputs.robot()
        self.cell = inputs.wall_cell(rng)
        obstacles = self.cell.obstacles
        self.workcell = Workcell("bench_wall", [-1.3, -1.3, -0.1], [1.3, 1.3, 0.1], obstacles)
        self.fmap = build_map(self.model, obstacles, inputs.hybrid_map_box(self.cell),
                              inputs.HYBRID_VOXEL,
                              orientation_spec=(np.pi, (1, 1, sz.yaw_bins)),
                              seed=self.seed)
        self.library = inputs.line_library()

        def bridged(task):
            # one skill and two configurations: the plan does not depend on the tables
            poses = plan_lfd(task, self.library, QTables(), self.fmap,
                             points_per_gap=POINTS_PER_GAP)["poses"]
            return any(before is not None and after is not None for _, before, after in
                       classify_trajectory(poses, self.fmap).infeasible_brackets())

        goals = inputs.far_goals(self.fmap, self.cell)
        self.train_tasks, d1 = inputs.hybrid_tasks(rng, self.model, self.cell, sz.train_tasks,
                                                   sz.crossing_share, bridged, goals)
        self.instances, d2 = inputs.hybrid_tasks(rng, self.model, self.cell, sz.instances,
                                                 sz.crossing_share, bridged, goals)
        all_tasks = self.train_tasks + self.instances
        self.tables = train_hrl(all_tasks, self.library, episodes=len(all_tasks),
                                seed=self.seed, fmap=self.fmap)
        self.env_cfg = DrlEnvConfig(episode_budget=sz.episode_budget, man_baseline=1.0)
        self.switch_cfg = SwitchConfig()
        tally.report.update(tasks_discarded=d1 + d2)
        tally.manifest.update(robot_hash=robot_hash(self.model),
                              obstacles_signature=obstacles_signature(obstacles))

    def _plan(self, task):
        return plan_lfd(task, self.library, self.tables, self.fmap,
                        points_per_gap=POINTS_PER_GAP)

    def _bridge(self, start, goal, start_theta):
        return plan_drl(self.policy, self.model, self.cell.obstacles, start, goal,
                        self.env_cfg, theta0=start_theta)

    def _train(self, tally: Tally) -> None:
        """Harvest the infeasible brackets of every task's plan, train the DRL
        bridge on them, then train the switch on the training tasks."""
        sz = self.sizes
        obstacles = self.cell.obstacles
        classified = []
        pairs = []
        for task in self.train_tasks + self.instances:
            poses = self._plan(task)["poses"]
            cls = classify_trajectory(poses, self.fmap)
            classified.append((poses, cls))
            pairs += [(before, after) for _, before, after in cls.infeasible_brackets()
                      if before is not None and after is not None]
        # episodes start from the bracket cell's map witness, not a fresh IK
        witnesses = [self.fmap.lookup(before).witness for before, _ in pairs]
        # with no bracket anywhere, no plan has a band and nothing needs a bridge
        self.policy = None
        if pairs:
            pool = self.fmap.witnesses[self.fmap.reasons == OK]
            self.policy, _, _ = train_drl(pairs, self.model, obstacles, self.env_cfg,
                                          PpoConfig(num_steps=sz.drl_steps), seed=self.seed,
                                          batches=sz.drl_batches, start_witnesses=witnesses,
                                          start_pool=pool)
        scenarios = []
        for poses, cls in classified[:len(self.train_tasks)]:
            cands = lfd_joint_candidates(poses, self.model, obstacles)
            scenarios.append((cands, find_bands(cls, cands, self.switch_cfg, self._bridge)))
        # train_switch never returns when no scenario has a band
        self.switch_policy = None
        if any(bands for _, bands in scenarios):
            self.switch_policy, _, _ = train_switch(scenarios, self.model, obstacles,
                                                    self.switch_cfg, seed=self.seed,
                                                    batches=sz.switch_batches)
        tally.report.update(drl_pairs=len(pairs),
                            switch_scenarios_with_bands=sum(bool(b) for _, b in scenarios))

    def run_round(self, tally: Tally) -> None:
        tally.attempted += 1
        t = clock()
        self._train(tally)
        tally.train_s["train"].append(tally.since(t))
        # training is seeded: every round must train the same policies
        params = _params(self.policy, self.switch_policy)
        trained = tally.report.setdefault("trained_params", params)
        tally.check(np.array_equal(params, trained),
                    "a repeated training gave different policies")
        obstacles = self.cell.obstacles
        cfg = self.switch_cfg
        criteria = SuccessCriteria()
        bound = np.radians(cfg.smooth_bound_deg)
        succeeded = bridges = reached = 0
        for k, task in enumerate(self.instances):
            tally.attempted += 1
            t = clock()
            try:
                poses = self._plan(task)["poses"]
                cls = classify_trajectory(poses, self.fmap)
                cands = lfd_joint_candidates(poses, self.model, obstacles)
                bands = find_bands(cls, cands, cfg, self._bridge)
                if self.switch_policy is None:
                    switches = heuristic_switches(bands)
                else:
                    switches = policy_switches(self.switch_policy, bands, cands, cfg)
                traj = assemble(cands, bands, switches, self.model, obstacles, cfg)
                traj = densify(traj, self.model, obstacles, cfg.smooth_bound_deg)
                report = execute(traj, self.model, self.workcell, criteria, task)
            except Exception as exc:       # counted against the instances attempted
                tally.fail(exc)
                continue
            tally.query_ms[k].append(1e3 * tally.since(t))
            succeeded += int(report.success)
            bridges += len(bands)
            reached += sum(int(b.bridge.success) for b in bands)
            tally.check(all(self.model.within_limits(p) for p in traj.points),
                        f"{task.id}: trajectory leaves the joint limits")
            tally.check(traj.max_step() <= bound + 1e-9,
                        f"{task.id}: max step {traj.max_step()} exceeds the densify bound")
        tally.set_quality(succeeded, len(self.instances))
        tally.report.setdefault("bridges", (reached, bridges))
        tally.report.setdefault("switch_fallback", self.switch_policy is None)

    def figures(self, tally: Tally) -> dict:
        hits, base = tally.quality
        reached, bridges = tally.report["bridges"]
        return {"train_s": {"value": tally.median_train_s(),
                            "trainings": len(tally.train_s["train"]), "unit": "s"},
                "plan_ms": _timing(tally.median_query_ms()),
                "success_rate": {"value": hits / base, "succeeded": hits, "instances": base},
                "bridge_reach_rate": {"value": reached / bridges if bridges else None,
                                      "reached": reached, "bridges": bridges},
                "drl_pairs": tally.report["drl_pairs"],
                "switch_scenarios_with_bands": tally.report["switch_scenarios_with_bands"],
                "switch_fallback_to_heuristic": tally.report["switch_fallback"],
                "tasks_discarded": tally.report["tasks_discarded"]}


WORKLOADS = {"map": MapWorkload, "skills": SkillsWorkload, "hybrid": HybridWorkload}
