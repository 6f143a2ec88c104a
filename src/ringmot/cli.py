"""Command-line entry point.

One process per command; every command writes its data artifacts plus a
manifest JSON (input hashes, parameters, versions, solver stages, wall
time) into the output directory. Data outputs are byte-deterministic for
fixed arguments; the manifest timestamp and wall time are the only
non-reproducible fields.

Exit codes: 0 success, 1 verdict failure (e.g. --expect mismatch), 2 errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import TWO_PI
from .costs import check_well_ordering, load_cost, support_thresholds, truncate
from .errors import RingmotError
from .kantorovich import certify_potential
from .measure1d import load_density
from .mmot import SIMPLEX_COUNTERS, quantize, solve_mmot, symmetrized_duals
from .seidl import plan_cost, seidl_plan
from .semiclassical import upper_bound_curve
from .swaplab import Bipartition, reduce_to_wellordered


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(
    out: Path, command: str, params: dict, inputs: list, started: float, stages: dict | None = None
) -> None:
    params = {k: v for k, v in params.items() if k != "func"}
    _write_json(
        out / "manifest.json",
        {
            "schema": 1,
            "command": command,
            "parameters": params,
            "inputs": {str(p): _sha256(Path(p)) for p in inputs},
            "versions": {"ringmot": __version__, "numpy": np.__version__},
            "stages": stages or {},
            "wall_time_s": time.time() - started,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_check_wellordering(args) -> int:
    started = time.time()
    out = _out_dir(args)
    model = load_cost(args.cost)
    report = check_well_ordering(
        model, grid_size=args.grid, strict=args.strict, seed=args.seed
    )
    _write_json(out / "report.json", report.to_json())
    _manifest(out, "check-wellordering", vars(args), [args.cost], started)
    if args.expect and report.verdict != args.expect:
        print(f"expected {args.expect}, got {report.verdict}", file=sys.stderr)
        return 1
    return 0


def cmd_seidl_plan(args) -> int:
    started = time.time()
    out = _out_dir(args)
    rho, _ = load_density(args.density)
    plan = seidl_plan(rho, args.n, args.m, symmetrize=args.symmetrize)
    plan.to_csv(out / "plan.csv")
    summary = {"schema": 1, "n": args.n, "m": args.m, "atoms": plan.atoms.shape[0]}
    inputs = [args.density]
    if args.cost:
        summary["cost"] = plan_cost(plan, load_cost(args.cost))
        inputs.append(args.cost)
    _write_json(out / "summary.json", summary)
    _manifest(out, "seidl-plan", vars(args), inputs, started)
    return 0


def cmd_swap_demo(args) -> int:
    started = time.time()
    out = _out_dir(args)
    members = tuple(int(v) for v in args.members.split(","))
    n = len(members)
    a = Bipartition(n, members)
    if args.points:
        points = np.array([float(v) for v in args.points.split(",")])
    else:
        points = np.arange(1, 2 * n + 1) * (TWO_PI / (2 * n + 1))
    w = load_cost(args.cost) if args.cost else _default_ring_cost()
    trace = reduce_to_wellordered(a, points, w)
    (out / "trace.json").write_text(trace.dumps(), encoding="utf-8")
    _manifest(out, "swap-demo", vars(args), [args.cost] if args.cost else [], started)
    return 0


def _default_ring_cost():
    from .costs import InverseProfile, make_ring_cost

    return make_ring_cost(InverseProfile())


def cmd_mmot_solve(args) -> int:
    started = time.time()
    out = _out_dir(args)
    rho, _ = load_density(args.density)
    w = load_cost(args.cost)
    sol = solve_mmot(quantize(rho, args.m), args.n, w)
    result = {"schema": 1, "status": sol.status, "value": None, "iterations": sol.iterations}
    if sol.status == "optimal":
        result.update(value=sol.value, plan_csv="plan.csv", duals_csv="duals.csv")
        sol.plan.to_csv(out / "plan.csv")
        v = symmetrized_duals(sol)
        with open(out / "duals.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["atom", "x"] + [f"dual_{i + 1}" for i in range(args.n)] + ["symmetrized"]
            )
            for j, x in enumerate(sol.marginal.atoms):
                writer.writerow(
                    [j, f"{x:.17g}"]
                    + [f"{sol.duals[i, j]:.17g}" for i in range(args.n)]
                    + [f"{v[j]:.17g}"]
                )
    _write_json(out / "result.json", result)
    simplex = {key: getattr(sol, key) for key in SIMPLEX_COUNTERS}
    _manifest(out, "mmot-solve", vars(args), [args.density, args.cost], started, {"simplex": simplex})
    return 0 if sol.status == "optimal" else 1


def cmd_kantorovich(args) -> int:
    started = time.time()
    out = _out_dir(args)
    rho, _ = load_density(args.density)
    w = load_cost(args.cost)
    cert = certify_potential(rho, w, args.n, grid_size=args.grid, m=args.m)
    with open(out / "potential.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "v"])
        for x, v in zip(cert.potential.grid, cert.potential.values):
            writer.writerow([f"{x:.17g}", f"{v:.17g}"])
    _write_json(out / "certificate.json", cert.to_json())
    _manifest(
        out, "kantorovich", vars(args), [args.density, args.cost], started,
        {"kantorovich": cert.stage()},
    )
    return 0 if cert.passed() else 1


def cmd_semiclassical(args) -> int:
    started = time.time()
    out = _out_dir(args)
    rho, _ = load_density(args.density)
    w = load_cost(args.cost)
    if w.bound is None:
        thresholds = support_thresholds(rho, w, args.radius, args.n)
        w = truncate(w, thresholds.h)
    eps = [float(v) for v in args.eps.split(",")]
    curve = upper_bound_curve(rho, w, args.n, eps, m=args.m)
    with open(out / "curve.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "eta", "kinetic", "interaction", "bound"])
        for p in curve.points:
            writer.writerow(
                [f"{p.eps:.17g}", f"{p.eta:.17g}", f"{p.kinetic:.17g}",
                 f"{p.interaction:.17g}", f"{p.bound:.17g}"]
            )
    _write_json(
        out / "slope.json",
        {
            "schema": 1,
            "reference": curve.reference,
            "slope": curve.slope,
            "eta_coefficient": curve.eta_coefficient,
        },
    )
    _manifest(
        out, "semiclassical", vars(args), [args.density, args.cost], started,
        {"semiclassical": curve.stage()},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringmot",
        description="Multimarginal optimal transport on the ring: plans, certificates, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-wellordering", help="certify the exchange inequality")
    p.add_argument("--cost", required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--expect", choices=["well_ordering", "violated", "strictly_well_ordering"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_check_wellordering)

    p = sub.add_parser("seidl-plan", help="build the cyclic monotone plan")
    p.add_argument("--density", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cost")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_seidl_plan)

    p = sub.add_parser("swap-demo", help="bipartition reduction trace")
    p.add_argument("--members", required=True, help="comma-separated indices of the team")
    p.add_argument("--points", help="comma-separated sorted positions (default: equispaced)")
    p.add_argument("--cost", help="cost spec JSON (default: inverse-chord ring cost)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_swap_demo)

    p = sub.add_parser("mmot-solve", help="exact LP transport on a quantized marginal")
    p.add_argument("--density", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mmot_solve)

    p = sub.add_parser("kantorovich", help="grid potential with certificate")
    p.add_argument("--density", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kantorovich)

    p = sub.add_parser("semiclassical", help="trial-state upper-bound curve")
    p.add_argument("--density", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eps", required=True, help="comma-separated kinetic weights")
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--radius", type=float, default=np.pi / 4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_semiclassical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"error: bad argument value: {exc}", file=sys.stderr)
        return 2
    except RingmotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
