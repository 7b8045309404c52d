"""The benchmark's workloads: what each one runs and how its output is checked.

Every workload is one ``randhull`` command line, run in-process through
``randhull.cli.main``.  Body, grid, net settings and default seed are the
frozen acceptance configurations; only the replication or probe count is cut
so that one call takes seconds.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"


@dataclass(frozen=True)
class RateWorkload:
    """``randhull rates`` on a YAML config; passes when the slope is in its window."""

    name: str
    why: str
    config: Path
    seed: int
    held_out_seed: int
    window: tuple[float, float]

    # the CLI entry-point helper that reads this workload's input file
    loader = "load_experiment_config"

    @property
    def input_path(self) -> Path:
        return self.config

    def argv(self, seed: int) -> list[str]:
        return [
            "rates",
            "--config",
            str(self.config),
            "--seed",
            str(seed),
            "--threads",
            "1",
            "--format",
            "json",
        ]

    def points_per_call(self, cli) -> int:
        config = cli.load_experiment_config(self.config)
        return sum(config.n_grid) * config.reps

    def check(self, text: str) -> str | None:
        slope = json.loads(text)["slope"]
        lo, hi = self.window
        if not lo <= slope <= hi:
            return f"slope {slope!r} outside [{lo}, {hi}]"
        return None


@dataclass(frozen=True)
class ClassFitWorkload:
    """``randhull check-class --family fit``; passes with a finite L > 0 and verdict true."""

    name: str
    why: str
    body: Path
    mode: str
    alpha: float
    eps0: float
    u_probes: int
    n_mc: int
    seed: int
    held_out_seed: int

    loader = "load_body"

    @property
    def input_path(self) -> Path:
        return self.body

    def argv(self, seed: int) -> list[str]:
        return [
            "check-class",
            "--body",
            str(self.body),
            "--family",
            "fit",
            "--mode",
            self.mode,
            "--alpha",
            repr(self.alpha),
            "--eps0",
            repr(self.eps0),
            "--u-probes",
            str(self.u_probes),
            "--n-mc",
            str(self.n_mc),
            "--seed",
            str(seed),
        ]

    def points_per_call(self, cli) -> int:
        # the fit pass and the membership pass each draw one cloud per probe
        return 2 * self.u_probes * self.n_mc

    def check(self, text: str) -> str | None:
        doc = json.loads(text)
        big_l = doc["fitted"]["L"]
        if not (math.isfinite(big_l) and big_l > 0):
            return f"fitted L {big_l!r} is not finite and positive"
        if doc["report"]["verdict"] is not True:
            return "membership verdict is not true"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        RateWorkload(
            name="disc_rate",
            why="serial 2-d disc rate fit; about two thirds of a call is the net max-dot "
            "and a quarter the net build, so a max-dot, hull-reduction or net change shows here",
            config=INPUTS / "disc_rate.yaml",
            seed=1005,
            held_out_seed=2005,
            window=(0.55, 0.80),
        ),
        ClassFitWorkload(
            name="simplex_class_fit",
            why="cap-mass L fit on the 3-simplex; no net and no max-dot, only "
            "rejection sampling, containment tests and sorting",
            body=INPUTS / "simplex3.json",
            mode="interior",
            alpha=3.0,
            eps0=0.5,
            u_probes=4,
            n_mc=100_000,
            seed=11,
            held_out_seed=2011,
        ),
    )
}
