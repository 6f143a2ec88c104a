"""Command-line entry point.

Each subcommand maps its arguments to ``(exit_code, artifacts, stages)``:
``artifacts`` maps a file name to a JSON payload (``*.json``) or a
``(header, rows)`` table (``*.csv``); ``stages`` is solver telemetry. ``run``
alone writes files: it renders every artifact plus ``manifest.json`` (input
hashes, parameters, versions, stages, wall time) first, and only then creates
``--out``. Data outputs are byte-deterministic for fixed arguments; the
manifest timestamp and wall time are the only non-reproducible fields.

Exit codes: 0 success, 1 verdict failure (e.g. --expect mismatch), 2 errors,
out of memory included. Exit 0 or 1 writes every artifact and the manifest;
exit 2 writes nothing.

The solver modules (``SOLVER_MODULES``) are registered, not executed: each is
in ``sys.modules`` and on the package right after ``import ringmot.cli``, and
its code runs on first attribute access (``importlib.util.LazyLoader``). A
command thus compiles and runs only the modules it uses (``check-wellordering``
runs ``costs`` alone), and the manifest lists them as ``modules``. Without a
bytecode cache, compiling every solver module cost every command about 40 ms
whichever it ran: on 2 vCPUs (Python 3.11) ``import ringmot.cli`` went from 0.240 to
0.197 s median (lower in 36 of 40 alternating pairs) and ``check-wellordering
--grid 64`` from 0.324 to 0.280 s (29 of 30); with a warm ``__pycache__`` only
the execution is saved (0.229 to 0.223 s, 26 of 40). Registration rather than
imports inside each subcommand keeps the modules where
``perfbench/tracer.py`` looks them up right after importing this module.

``entry`` is the process entry of both ``python -m ringmot.cli`` and the
``ringmot`` console script. Run as ``__main__``, this module turns the cyclic
collector off before numpy loads; ``entry`` freezes the import heap (about
21,000 objects numpy and the standard library leave tracked, which live until
exit) into the permanent generation, turns the collector on, runs `main`, and
freezes what is left, so the interpreter's shutdown collections walk nothing.
The few import-time cycles the disabled collector would have freed stay
frozen (peak RSS about 0.2 MB higher). From the last statement to the reaped exit of ``check-wellordering
--grid 64`` went from 21.8 to 5.8 ms median (lower in 30 of 30 alternating
pairs; 2 vCPUs, Python 3.11.7, numpy 2.4.6). `main` is the in-process API of
tests and library callers and never touches the collector; a plain ``import
ringmot.cli`` (the harness's ``setup_s``) takes neither path.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib.util
import io
import json
import os
import sys
import time
import types
from pathlib import Path

# OpenBLAS starts one busy-waiting worker per core when numpy loads. The
# matrices here are tens to a few hundred rows, so the pool only burned about
# 0.13 s of CPU per command on 2 cores, and the LP's pivots followed the
# thread count. One thread by default keeps data outputs independent of the
# core count; a caller's own value wins. This runs at import, so importers
# such as perfbench/tracer.py get it too, unless numpy is already loaded: then
# it cannot apply, and the manifest records null.
BLAS_THREADS = None if "numpy" in sys.modules else os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Run as a program, the collections the imports below trigger walk a heap
# that lives until exit: `entry` freezes it and turns the collector back on.
if __name__ == "__main__":
    gc.disable()

import numpy as np

from . import __version__
from .config import TWO_PI
from .errors import DomainError, RingmotError

SOLVER_MODULES = (
    "measure1d", "costs", "seidl", "simplex", "mmot", "kantorovich", "semiclassical")


def _register(name: str) -> types.ModuleType:
    """``ringmot.<name>`` in ``sys.modules`` and on the package, its code not yet run."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


measure1d, costs, seidl, simplex, mmot, kantorovich, semiclassical = SOLVERS = tuple(
    map(_register, SOLVER_MODULES))


def executed_modules() -> list:
    """The registered solver modules whose code has run, sorted by full name.

    ``LazyLoader`` turns a module back into a plain ``ModuleType`` when it loads.
    """
    return sorted(f"{__package__}.{name}" for name, module in zip(SOLVER_MODULES, SOLVERS)
                  if type(module) is types.ModuleType)


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
    import hashlib  # here, not at import: it maps OpenSSL's libcrypto (about 3.7 MB RSS)
    inputs = [p for p in (getattr(args, "density", None), getattr(args, "cost", None)) if p]
    artifacts["manifest.json"] = {
        "schema": 1,
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs},
        "versions": {"ringmot": __version__, "numpy": np.__version__},
        "blas_threads": BLAS_THREADS,
        "modules": executed_modules(),
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
    if args.expect == "strictly_well_ordering" and not args.strict:
        raise DomainError("--expect strictly_well_ordering needs --strict: only a --strict check "
                          "can return that verdict")
    model = costs.load_cost(args.cost)
    report = costs.check_well_ordering(model, grid_size=args.grid, strict=args.strict, seed=args.seed)
    code = 0
    if args.expect and report.verdict != args.expect:
        print(f"expected {args.expect}, got {report.verdict}", file=sys.stderr)
        code = 1
    return code, {"report.json": report.to_json()}, {}


def cmd_seidl_plan(args):
    rho = measure1d.load_density(args.density)
    plan = seidl.seidl_plan(rho, args.n, args.m, symmetrize=args.symmetrize)
    summary = {"schema": 1, "n": args.n, "m": args.m, "atoms": plan.atoms.shape[0]}
    if args.cost:
        summary["cost"] = seidl.plan_cost(plan, costs.load_cost(args.cost))
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
    w = costs.load_cost(args.cost) if args.cost else costs.make_ring_cost(costs.InverseProfile())
    return 0, {"trace.json": reduce_to_wellordered(a, points, w).to_json()}, {}


def cmd_mmot_solve(args):
    mmot.check_lp_size(args.m, args.n)
    rho = measure1d.load_density(args.density)
    w = costs.load_cost(args.cost)
    sol = mmot.solve_mmot(seidl.quantize(rho, args.m), args.n, w)
    result = {"schema": 1, "status": sol.status, "value": None,
              "iterations": sol.simplex["iterations"]}
    artifacts = {"result.json": result}
    if sol.status == "optimal":
        result.update(value=sol.value, plan_csv="plan.csv", duals_csv="duals.csv")
        v = mmot.symmetrized_duals(sol)
        header = ["atom", "x"] + [f"dual_{i + 1}" for i in range(args.n)] + ["symmetrized"]
        rows = [[j, x, *sol.duals[:, j], v[j]] for j, x in enumerate(sol.marginal.atoms)]
        artifacts.update({"plan.csv": sol.plan.table(), "duals.csv": (header, rows)})
    return (0 if sol.status == "optimal" else 1), artifacts, {"simplex": sol.simplex}


def cmd_kantorovich(args):
    rho = measure1d.load_density(args.density)
    w = costs.load_cost(args.cost)
    cert = kantorovich.certify_potential(rho, w, args.n, grid_size=args.grid, m=args.m)
    artifacts = {
        "potential.csv": (["x", "v"], list(zip(cert.potential.grid, cert.potential.values))),
        "certificate.json": cert.to_json(),
    }
    return (0 if cert.passed() else 1), artifacts, {"kantorovich": cert.stage()}


def cmd_semiclassical(args):
    rho = measure1d.load_density(args.density)
    w = costs.load_cost(args.cost)
    eps = [float(v) for v in args.eps.split(",")]
    curve = semiclassical.upper_bound_curve(rho, w, args.n, eps, m=args.m)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """The process entry of ``python -m ringmot.cli`` and the ``ringmot`` script.

    Freezes the import heap into the permanent generation and enables the
    collector, runs `main`, and freezes what is left, so neither the solvers'
    collections nor the interpreter's shutdown walk objects that live until exit.
    """
    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
