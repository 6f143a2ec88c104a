"""Seeded inputs and command sequences for the four benchmark workloads.

A workload is a fixed list of ringmot CLI commands. The seed only shapes
the input files (the random densities, the graph cost's table f and the
``oracle`` cost scale) and the ``--seed`` of ``check-wellordering``;
ringmot sees the generated files and nothing else. Instance sizes are chosen so that each workload is
dominated by a different layer:

* ``oracle``    -- the exact LP (simplex pivots) behind ``mmot-solve``;
* ``wellorder`` -- cost evaluation and quadruple enumeration behind
  ``check-wellordering``;
* ``potential`` -- the repeated truncated cost matrix and min-plus inside
  the c-transform fixed point behind ``kantorovich``;
* ``bounds``    -- the trial-state kernels behind ``semiclassical``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi

RING_INVERSE = {"kind": "ring", "profile": {"kind": "inverse", "params": {"scale": 1.0}}}
RING_EXP = {"kind": "ring", "profile": {"kind": "exp", "params": {"rate": 1.0, "scale": 1.0}}}
RING_EXP2 = {"kind": "ring", "profile": {"kind": "exp", "params": {"rate": 2.0, "scale": 1.0}}}
TORUS_LINEAR = {
    "kind": "torus",
    "profile": {"kind": "linear", "params": {"intercept": np.pi, "slope": 1.0}},
}
TORUS_SQUARE = {"kind": "torus", "profile": {"kind": "power", "params": {"exponent": 2.0, "scale": 1.0}}}
RING_SUM = {"kind": "sum", "weights": [1.0, 0.5], "terms": [RING_INVERSE, RING_EXP]}

EPS = "1e-1,1e-2,1e-3,1e-4"

# Which ringmot layers each workload must reach; the traced run fails if one
# of them records no calls, so a rename cannot silently zero a layer.
CLAIMED_LAYERS = {
    "oracle": ("cli", "measure1d", "costs", "seidl", "mmot", "simplex"),
    "wellorder": ("cli", "costs"),
    "potential": ("cli", "measure1d", "costs", "mmot", "simplex", "kantorovich"),
    "bounds": ("cli", "measure1d", "costs", "seidl", "semiclassical"),
}


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments (after ``ringmot.cli``) and how to check it."""

    name: str
    argv: tuple
    check: str              # key into checks.CHECKERS
    params: dict = field(default_factory=dict)


def cosine_density(amplitude: float = 0.8, num_nodes: int = 641) -> dict:
    nodes = np.linspace(0.0, TWO_PI, num_nodes)
    values = 1.0 + amplitude * np.cos(nodes)
    values[-1] = values[0]
    return {"schema": 1, "nodes": nodes.tolist(), "values": values.tolist(), "periodic": True}


def seeded_density(rng: np.random.Generator, num_nodes: int = 65) -> dict:
    """Strictly positive periodic density, like ``GridDensity.random_positive``."""
    values = rng.uniform(0.25, 1.75, num_nodes)
    values[-1] = values[0]
    nodes = np.linspace(0.0, TWO_PI, num_nodes)
    return {"schema": 1, "nodes": nodes.tolist(), "values": values.tolist(), "periodic": True}


def seeded_graph_cost(rng: np.random.Generator, hi: float = 4.0, table: int = 33) -> dict:
    """Graph cost whose f is a tabulated convex non-increasing hinge mixture."""
    knots = np.sort(rng.uniform(0.1, hi, 4))
    amps = rng.uniform(0.05, 1.0, 4)
    xs = np.linspace(0.0, hi, table)
    ys = (amps[None, :] * np.maximum(0.0, knots[None, :] - xs[:, None])).sum(axis=1)
    return {
        "kind": "graph",
        "window": [0.0, hi],
        "f": {"kind": "table", "params": {"xs": xs.tolist(), "ys": ys.tolist()}},
        "g": {"kind": "exp", "params": {"rate": 1.0, "scale": 1.0}},
    }


def _scaled(ring_spec: dict, scale: float) -> dict:
    profile = ring_spec["profile"]
    return {**ring_spec, "profile": {**profile, "params": {**profile["params"], "scale": scale}}}


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, inputs: Path) -> list:
    """Write the workload's input files under ``inputs`` and return its commands."""
    if workload not in CLAIMED_LAYERS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs.mkdir(parents=True, exist_ok=True)
    rngs = [np.random.default_rng([seed, k]) for k in range(4)]
    cosine = _write(inputs / "cosine.json", cosine_density())
    ring_inverse = _write(inputs / "ring_inverse.json", RING_INVERSE)

    def dens(k):
        return _write(inputs / f"density{k}.json", seeded_density(rngs[k]))

    if workload == "oracle":
        # The simplex pivot count is chaotic in the density (1.3k to 12.5k
        # pivots at n=4 m=12 over twelve mildly perturbed densities), so a
        # seeded density would measure the seed, not the code. The LP
        # densities are fixed draws; the seed picks a power-of-two cost scale,
        # which scales every cost exactly, so the LP takes the same pivots
        # while every number it prints changes.
        scale = 2.0 ** int(rngs[3].integers(-2, 3))
        fixed = [_write(inputs / f"lp_density{k}.json", seeded_density(np.random.default_rng([0, k])))
                 for k in range(2)]
        ring_inv = _write(inputs / "ring_inverse_scaled.json", _scaled(RING_INVERSE, scale))
        ring_exp2 = _write(inputs / "ring_exp2_scaled.json", _scaled(RING_EXP2, scale))
        cases = [(2, 48, cosine, ring_inv), (3, 24, fixed[0], ring_exp2), (4, 12, fixed[1], ring_inv)]
        commands = []
        for n, m, rho, cost in cases:
            common = ("--density", rho, "--cost", cost, "--n", str(n), "--m", str(m))
            commands.append(Command(f"seidl-n{n}-m{m}", ("seidl-plan",) + common, "seidl"))
            commands.append(Command(
                f"mmot-n{n}-m{m}", ("mmot-solve",) + common, "mmot",
                {"n": n, "m": m, "seidl": f"seidl-n{n}-m{m}"},
            ))
        return commands

    if workload == "wellorder":
        graph = _write(inputs / "graph.json", seeded_graph_cost(rngs[3]))
        cases = [
            ("ring-inverse", ring_inverse, 64, False, "well_ordering"),
            ("torus-linear", _write(inputs / "torus_linear.json", TORUS_LINEAR), 64, False, "well_ordering"),
            ("graph", graph, 64, False, "well_ordering"),
            ("sum", _write(inputs / "sum.json", RING_SUM), 64, False, "well_ordering"),
            # the closed ring keeps exact ties, so --strict still says plain well_ordering
            ("ring-exp-strict", _write(inputs / "ring_exp.json", RING_EXP), 64, True, "well_ordering"),
            ("torus-square", _write(inputs / "torus_square.json", TORUS_SQUARE), 64, False, "violated"),
            ("ring-exp-g96", str(inputs / "ring_exp.json"), 96, False, "well_ordering"),
        ]
        return [
            Command(
                f"wellorder-{label}",
                ("check-wellordering", "--cost", cost, "--grid", str(grid), "--seed", str(seed),
                 "--expect", expect) + (("--strict",) if strict else ()),
                "wellorder",
                {"expect": expect},
            )
            for label, cost, grid, strict, expect in cases
        ]

    if workload == "potential":
        # g=256 at n=3 takes the sampled-margin path (256^3 > margin_guard)
        cases = [(2, 1024, cosine), (2, 512, dens(0)), (3, 128, dens(1)), (3, 256, dens(2))]
        return [
            Command(
                f"kantorovich-n{n}-g{g}",
                ("kantorovich", "--density", rho, "--cost", ring_inverse,
                 "--n", str(n), "--grid", str(g)),
                "kantorovich",
                {"n": n, "cost": RING_INVERSE},
            )
            for n, g, rho in cases
        ]

    # bounds; m=63 at n=3 because seidl-plan needs m divisible by n
    cases = [(2, 64, cosine), (2, 128, dens(0)), (3, 63, dens(1))]
    return [
        Command(
            f"semiclassical-n{n}-m{m}",
            ("semiclassical", "--density", rho, "--cost", ring_inverse,
             "--n", str(n), "--m", str(m), "--eps", EPS),
            "semiclassical",
        )
        for n, m, rho in cases
    ]
