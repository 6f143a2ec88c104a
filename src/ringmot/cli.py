"""Command-line entry point.

Each subcommand maps its arguments to ``(exit_code, artifacts, stages)``:
``artifacts`` maps a file name to a JSON payload (``*.json``) or a
``(header, rows)`` table (``*.csv``); ``stages`` is solver telemetry. ``run``
alone writes files: it renders every artifact plus ``manifest.json`` (input
hashes, parameters, versions, stages, wall time) first, and only then creates
``--out``. Data outputs are byte-deterministic for fixed arguments; the
manifest timestamp and wall time are the only non-reproducible fields.

Exit codes: 0 success, 1 verdict failure (e.g. --expect mismatch), 2 errors.
Exit 0 or 1 writes every artifact and the manifest; exit 2 writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import TWO_PI
from .costs import InverseProfile, check_well_ordering, load_cost, make_ring_cost
from .errors import DomainError, RingmotError
from .kantorovich import certify_potential
from .measure1d import load_density
from .mmot import solve_mmot, symmetrized_duals
from .seidl import plan_cost, quantize, seidl_plan
from .semiclassical import upper_bound_curve


def render_artifact(name: str, payload) -> str:
    """Strict JSON for ``*.json``; for ``*.csv`` floats as %.17g and ints as ints."""
    if name.endswith(".csv"):
        header, rows = payload
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, int) else f"{v:.17g}" for v in row] for row in rows)
        return buf.getvalue()
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"cannot write {name}: {exc}") from None


def run(args) -> int:
    """Run one subcommand; write its artifacts and manifest only if all render."""
    started = time.perf_counter()
    code, artifacts, stages = args.func(args)
    inputs = [p for p in (getattr(args, "density", None), getattr(args, "cost", None)) if p]
    artifacts["manifest.json"] = {
        "schema": 1,
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs},
        "versions": {"ringmot": __version__, "numpy": np.__version__},
        "stages": stages,
        "wall_time_s": time.perf_counter() - started,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    texts = {name: render_artifact(name, payload) for name, payload in artifacts.items()}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    return code


def cmd_check_wellordering(args):
    model = load_cost(args.cost)
    report = check_well_ordering(model, grid_size=args.grid, strict=args.strict, seed=args.seed)
    code = 0
    if args.expect and report.verdict != args.expect:
        print(f"expected {args.expect}, got {report.verdict}", file=sys.stderr)
        code = 1
    return code, {"report.json": report.to_json()}, {}


def cmd_seidl_plan(args):
    rho = load_density(args.density)
    plan = seidl_plan(rho, args.n, args.m, symmetrize=args.symmetrize)
    summary = {"schema": 1, "n": args.n, "m": args.m, "atoms": plan.atoms.shape[0]}
    if args.cost:
        summary["cost"] = plan_cost(plan, load_cost(args.cost))
    return 0, {"plan.csv": plan.table(), "summary.json": summary}, {}


def cmd_swap_demo(args):
    # imported here: no other subcommand needs swaplab, so the others skip its import
    from .swaplab import Bipartition, reduce_to_wellordered

    members = tuple(int(v) for v in args.members.split(","))
    n = len(members)
    a = Bipartition(n, members)
    if args.points:
        points = np.array([float(v) for v in args.points.split(",")])
    else:
        points = np.arange(1, 2 * n + 1) * (TWO_PI / (2 * n + 1))
    w = load_cost(args.cost) if args.cost else make_ring_cost(InverseProfile())
    return 0, {"trace.json": reduce_to_wellordered(a, points, w).to_json()}, {}


def cmd_mmot_solve(args):
    rho = load_density(args.density)
    w = load_cost(args.cost)
    sol = solve_mmot(quantize(rho, args.m), args.n, w)
    result = {"schema": 1, "status": sol.status, "value": None,
              "iterations": sol.simplex["iterations"]}
    artifacts = {"result.json": result}
    if sol.status == "optimal":
        result.update(value=sol.value, plan_csv="plan.csv", duals_csv="duals.csv")
        v = symmetrized_duals(sol)
        header = ["atom", "x"] + [f"dual_{i + 1}" for i in range(args.n)] + ["symmetrized"]
        rows = [[j, x, *sol.duals[:, j], v[j]] for j, x in enumerate(sol.marginal.atoms)]
        artifacts.update({"plan.csv": sol.plan.table(), "duals.csv": (header, rows)})
    return (0 if sol.status == "optimal" else 1), artifacts, {"simplex": sol.simplex}


def cmd_kantorovich(args):
    rho = load_density(args.density)
    w = load_cost(args.cost)
    cert = certify_potential(rho, w, args.n, grid_size=args.grid, m=args.m)
    artifacts = {
        "potential.csv": (["x", "v"], list(zip(cert.potential.grid, cert.potential.values))),
        "certificate.json": cert.to_json(),
    }
    return (0 if cert.passed() else 1), artifacts, {"kantorovich": cert.stage()}


def cmd_semiclassical(args):
    rho = load_density(args.density)
    w = load_cost(args.cost)
    eps = [float(v) for v in args.eps.split(",")]
    curve = upper_bound_curve(rho, w, args.n, eps, m=args.m)
    rows = [(p.eps, p.eta, p.kinetic, p.interaction, p.bound) for p in curve.points]
    slope = {"schema": 1, "reference": curve.reference, "slope": curve.slope,
             "eta_coefficient": curve.eta_coefficient}
    artifacts = {
        "curve.csv": (["eps", "eta", "kinetic", "interaction", "bound"], rows),
        "slope.json": slope,
    }
    return 0, artifacts, {"semiclassical": curve.stage()}


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
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_semiclassical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
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
