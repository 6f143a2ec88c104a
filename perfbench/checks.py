"""Output checks for the benchmark's CLI commands.

Each checker reads the artifacts one command wrote and returns a list of
problems; an empty list means the outputs are correct. The checks rebuild
what they can from the data files themselves (marginals from ``plan.csv``,
the dual value from ``duals.csv``, the n=2 feasibility margin from
``potential.csv``) so that a wrong number cannot pass on the strength of a
flag the program set for itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi
SLOPE_WINDOW = (0.4, 0.6)   # acceptance window for the upper-bound rate


def artifact_hashes(out: Path) -> dict:
    """sha256 of every data artifact; the manifest carries a timestamp and is skipped."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def changed(reference: dict, hashes: dict) -> list:
    """Artifacts whose bytes differ from the reference run of the same command."""
    return sorted(k for k in set(reference) | set(hashes) if reference.get(k) != hashes.get(k))


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv(path: Path) -> tuple:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def check_seidl(out: Path, params: dict, earlier: dict) -> list:
    summary = _json(out / "summary.json")
    cost = summary.get("cost")
    if not isinstance(cost, (int, float)) or not np.isfinite(cost):
        return [f"seidl plan cost is {cost!r}"]
    _, plan = _csv(out / "plan.csv")
    if plan.shape[0] != summary["atoms"]:
        return [f"plan.csv has {plan.shape[0]} atoms, summary says {summary['atoms']}"]
    return []


def check_mmot(out: Path, params: dict, earlier: dict) -> list:
    """LP optimal; equal to the Seidl plan cost; marginals and dual value rebuilt."""
    n, m = params["n"], params["m"]
    result = _json(out / "result.json")
    if result.get("status") != "optimal":
        return [f"LP status {result.get('status')!r}"]
    value = result["value"]
    problems = []
    seidl_cost = _json(earlier[params["seidl"]] / "summary.json")["cost"]
    if not abs(value - seidl_cost) <= 1e-7:
        problems.append(f"LP value {value!r} differs from the Seidl plan cost {seidl_cost!r}")

    _, duals = _csv(out / "duals.csv")
    atoms = duals[:, 1]
    _, plan = _csv(out / "plan.csv")
    idx = np.searchsorted(atoms, plan[:, :n])
    idx = np.clip(idx, 0, m - 1)
    if not np.array_equal(atoms[idx], plan[:, :n]):
        problems.append("plan.csv has coordinates that are not marginal atoms")
    else:
        for i in range(n):
            got = np.bincount(idx[:, i], weights=plan[:, n], minlength=m)
            err = float(np.max(np.abs(got - 1.0 / m)))
            if not err <= 1e-9:
                problems.append(f"marginal {i + 1} of plan.csv is off 1/m by {err:.3e}")
    dual_value = n * float(np.sum(duals[:, -1])) / m
    if not abs(dual_value - value) <= 1e-7:
        problems.append(f"dual value {dual_value!r} differs from the LP value {value!r}")
    return problems


def check_wellorder(out: Path, params: dict, earlier: dict) -> list:
    report = _json(out / "report.json")
    verdict = report.get("verdict")
    if verdict != params["expect"]:
        return [f"verdict {verdict!r}, expected {params['expect']!r}"]
    if verdict == "violated":
        cx = report.get("counterexample") or {}
        try:
            beaten = cx["nested"] > min(cx["near"], cx["far"])
        except (KeyError, TypeError):
            return [f"malformed counterexample {cx!r}"]
        if not beaten:
            return [f"counterexample {cx!r} does not violate the exchange inequality"]
    return []


def ring_cost(spec: dict, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Independent evaluation of a ring cost spec: g(2 sin(|x - y|_T / 2))."""
    d = np.mod(np.abs(x - y), TWO_PI)
    chord = 2.0 * np.sin(0.5 * np.minimum(d, TWO_PI - d))
    profile = spec["profile"]
    p = profile["params"]
    if profile["kind"] == "inverse":
        with np.errstate(divide="ignore"):
            return np.where(chord > 0, p["scale"] / np.where(chord > 0, chord, 1.0), np.inf)
    if profile["kind"] == "exp":
        return p["scale"] * np.exp(-p["rate"] * chord)
    raise ValueError(f"no independent evaluator for profile {profile['kind']!r}")


def check_kantorovich(out: Path, params: dict, earlier: dict) -> list:
    cert = _json(out / "certificate.json")
    problems = [f"certificate {key} is {cert.get(key)!r}"
                for key in ("passed", "converged") if cert.get(key) is not True]
    if params["n"] == 2:
        # min over grid pairs of 2 min(w, h) - v_i - v_j, recomputed from potential.csv
        _, pot = _csv(out / "potential.csv")
        x, v = pot[:, 0], pot[:, 1]
        w = np.minimum(ring_cost(params["cost"], x[:, None], x[None, :]), cert["truncation_level"])
        margin = float(np.min(2.0 * w - v[:, None] - v[None, :]))
        if not margin >= -1e-6:
            problems.append(f"recomputed feasibility margin {margin:.3e} < -1e-6")
    return problems


def check_semiclassical(out: Path, params: dict, earlier: dict) -> list:
    slope = _json(out / "slope.json")
    problems = []
    if slope.get("notice") is not None:
        problems.append(f"curve notice {slope['notice']!r}")
    s = slope.get("slope")
    if not isinstance(s, (int, float)) or not SLOPE_WINDOW[0] <= s <= SLOPE_WINDOW[1]:
        problems.append(f"slope {s!r} outside {list(SLOPE_WINDOW)}")
    return problems


CHECKERS = {
    "seidl": check_seidl,
    "mmot": check_mmot,
    "wellorder": check_wellorder,
    "kantorovich": check_kantorovich,
    "semiclassical": check_semiclassical,
}


def check(kind: str, out: Path, params: dict, earlier: dict) -> list:
    """Run one checker; a missing or unreadable artifact is a problem, not a crash."""
    try:
        return CHECKERS[kind](out, params, earlier)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{kind} artifacts unreadable: {type(exc).__name__}: {exc}"]
