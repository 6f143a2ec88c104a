"""Outside-in layer tracing of one ringmot CLI command.

Run as a worker process::

    python perfbench/tracer.py TRACE_JSON SPAWN_T -- <ringmot.cli arguments>

It imports ``ringmot.cli``, wraps each layer's public functions with spans
(ringmot itself is not modified), calls ``ringmot.cli.main`` and writes the
aggregated spans and counters to TRACE_JSON. SPAWN_T is the parent's
``time.perf_counter()`` just before the spawn; on Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so ``cli.import_s`` covers the
interpreter start as well as the package import.

``swaplab`` is not wrapped: it does integer work on tens of points and no
benchmark workload reaches it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb

# (layer, module, attribute path, span name). Span names are "<layer>.<name>".
TARGETS = (
    ("cli", "ringmot.cli", "main", "main"),
    ("measure1d", "ringmot.measure1d", "load_density", "load_density"),
    ("measure1d", "ringmot.measure1d", "GridDensity.quantile", "quantile"),
    ("measure1d", "ringmot.measure1d", "GridDensity.cdf", "cdf"),
    ("measure1d", "ringmot.measure1d", "GridDensity.density", "density"),
    ("measure1d", "ringmot.measure1d", "GridDensity.concentration", "concentration"),
    ("costs", "ringmot.costs", "load_cost", "load_cost"),
    ("costs", "ringmot.costs", "CostModel.__call__", "eval"),
    ("costs", "ringmot.costs", "check_well_ordering", "check_well_ordering"),
    ("costs", "ringmot.costs", "support_thresholds", "support_thresholds"),
    ("costs", "ringmot.costs", "envelopes", "envelopes"),
    ("seidl", "ringmot.seidl", "seidl_plan", "seidl_plan"),
    ("seidl", "ringmot.seidl", "plan_cost", "plan_cost"),
    ("mmot", "ringmot.mmot", "quantize", "quantize"),
    ("mmot", "ringmot.mmot", "solve_mmot", "solve_mmot"),
    ("mmot", "ringmot.mmot", "symmetrized_duals", "symmetrized_duals"),
    ("simplex", "ringmot.simplex", "solve_equality_lp", "solve_equality_lp"),
    ("kantorovich", "ringmot.kantorovich", "certify_potential", "certify_potential"),
    ("kantorovich", "ringmot.kantorovich", "averaged_iteration", "averaged_iteration"),
    ("kantorovich", "ringmot.kantorovich", "c_transform", "c_transform"),
    ("kantorovich", "ringmot.kantorovich", "feasibility_margin", "feasibility_margin"),
    ("kantorovich", "ringmot.kantorovich", "duality_gap", "duality_gap"),
    ("kantorovich", "ringmot.kantorovich", "density_pairing", "density_pairing"),
    ("kantorovich", "ringmot.kantorovich", "oscillation_bound_check", "oscillation_bound_check"),
    ("kantorovich", "ringmot.kantorovich", "untruncate_certificate", "untruncate_certificate"),
    ("semiclassical", "ringmot.semiclassical", "upper_bound_curve", "upper_bound_curve"),
    ("semiclassical", "ringmot.semiclassical", "GammaEta.__init__", "GammaEta"),
    ("semiclassical", "ringmot.semiclassical", "GammaEta.b_matrix", "b_matrix"),
    ("semiclassical", "ringmot.semiclassical", "kinetic_energy", "kinetic_energy"),
    ("semiclassical", "ringmot.semiclassical", "interaction_energy", "interaction_energy"),
)

LAYERS = ("cli", "measure1d", "costs", "seidl", "mmot", "simplex", "kantorovich", "semiclassical")


def _count_result(counts: dict, name: str, args: tuple, result) -> None:
    """Work counters read off the arguments and return values at the wrapper."""
    if name == "costs.eval":
        counts["costs.eval.points"] += getattr(result, "size", 1)
    elif name == "simplex.solve_equality_lp":
        counts["simplex.pivots"] += result.iterations
        counts["mmot.cells"] += args[0].shape[0]
    elif name == "costs.check_well_ordering":
        counts["costs.check_well_ordering.quadruples"] += comb(result.grid_size + 3, 4) + result.n_random
    elif name == "kantorovich.averaged_iteration":
        counts["kantorovich.fp_iterations"] += result[1].iterations
    elif name == "kantorovich.feasibility_margin":
        counts["kantorovich.margin_reports"] += 1
        # ROADMAP item 2 deletes the sampled path and the flag with it
        counts["kantorovich.margin_sampled"] += not getattr(result, "exhaustive", True)


class Tracer:
    """Spans aggregated in memory: per name, calls and self time."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.layer_of = {}
        self.counts = {
            key: 0
            for key in (
                "costs.eval.points", "simplex.pivots", "mmot.cells",
                "costs.check_well_ordering.quadruples", "kantorovich.fp_iterations",
                "kantorovich.margin_reports", "kantorovich.margin_sampled",
            )
        }
        self._child = [0.0]   # stack: time covered by child spans of each open span

    def wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        self.calls[full] = 0
        self.self_s[full] = 0.0
        self.layer_of[full] = layer
        stack = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                self.calls[full] += 1
                self.self_s[full] += elapsed - children
            _count_result(self.counts, full, args, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every target where it is defined and wherever it was imported by name."""
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("ringmot") and m]
        for layer, module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)   # AttributeError: the target was renamed
            wrapped = self.wrap(layer, name, original)
            setattr(owner, attr, wrapped)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def record(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "layer_of": self.layer_of,
                "counts": self.counts}


def main(argv: list) -> int:
    trace_path, spawn_t, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON SPAWN_T -- <ringmot.cli arguments>")
    import ringmot.cli

    imported = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    code = ringmot.cli.main(cli_args)
    record = tracer.record()
    record["import_s"] = imported - float(spawn_t)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
