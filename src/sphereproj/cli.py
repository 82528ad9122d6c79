"""Batch runner: load a problem configuration, execute the projection
methods, and emit per-iteration trace CSVs plus JSON summaries.

Config files are flat ``key = value`` text (comments start with ``#``)::

    dim = 4
    cap_pole = 3              # axis index, or an explicit vector: 0 0 0 1
    cap_radius = 0.6283185307179586
    mapping = rotation 0 1 0.8
    mapping = rotation 0 2 0.5
    alphas = 0.5 0.5          # optional; default 0.5 for every mapping
    x1 = random               # or explicit coordinates
    method = both             # cq | shrinking | both
    eps_step = 1e-8
    eps_residual = 1e-8
    max_iter = 500
    seed = 42
    out = runs/bench

Every key but ``mapping`` may appear once; ``_GRAMMAR`` gives each its
parser and its default.  Axis and plane indices are 0-based.  Every run
writes ``<out>_<method>_trace.csv`` (columns: n, dist_x1_xn, step_len,
res_1..res_r, constraint_count, solver_sweeps; floats with 17 significant
digits) and ``<out>_<method>_summary.json``; ``compare`` writes both traces
plus ``<out>_compare.json``.  Outputs are byte-deterministic for a fixed config
and seed.  Exit codes: 0 when every run converged (and for ``--help``), 2
when any run stopped without converging (``stalled`` or ``iteration-cap``),
1 on errors, usage errors included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import types

from .errors import ConfigError, SphereProjError
from .geometry import SpherePoint, basis_point, distance, random_point_in_cap
from .iteration import Problem, StopReason, StopRule, Trace, run
from .mappings import Identity, MappingFamily, PlaneRotation, residuals
from .regions import MAX_CAP_RADIUS

_METHODS = ("cq", "shrinking", "both")


def _method(value: str) -> str:
    if value not in _METHODS:
        raise ConfigError(f"must be one of {', '.join(_METHODS)}")
    return value


# The grammar: each key that may appear once, with the function that reads
# its value and the value it takes when the file leaves it out.  `mapping`
# may repeat and fills the list `mappings`.
_GRAMMAR = {
    "dim": (int, 0),
    "cap_pole": (str, ""),
    "cap_radius": (float, math.nan),
    "alphas": (lambda value: [float(tok) for tok in value.split()], None),
    "x1": (str, "random"),
    "method": (_method, ""),
    "eps_step": (float, 1e-8),
    "eps_residual": (float, 1e-8),
    "max_iter": (int, 10_000),
    "seed": (int, 0),
    "out": (str, "run"),
}


def parse_config(path: str) -> types.SimpleNamespace:
    """Parse the flat key = value grammar, rejecting unknown or duplicate keys,
    into one attribute per `_GRAMMAR` key (its default where the file leaves
    it out) and `mappings`, the tokens of each `mapping` line; not validated."""
    cfg = types.SimpleNamespace(mappings=[],
                                **{key: default for key, (_, default) in _GRAMMAR.items()})
    seen: set[str] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file: {e}") from e

    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "mapping":
            cfg.mappings.append(value.split())
            continue
        if key not in _GRAMMAR:
            raise ConfigError(f"line {ln}: unknown field {key!r}")
        if key in seen:
            raise ConfigError(f"line {ln}: duplicate field {key!r}")
        seen.add(key)
        try:
            setattr(cfg, key, _GRAMMAR[key][0](value))
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"line {ln}: {key}: {e}") from e
    return cfg


def _parse_point(text: str, dim: int, fieldname: str) -> SpherePoint:
    tokens = text.split()
    if len(tokens) == 1:
        try:
            return basis_point(int(tokens[0]), dim)
        except ValueError as e:
            raise ConfigError(f"{fieldname}: {e}") from e
    if len(tokens) != dim:
        raise ConfigError(
            f"{fieldname}: expected an axis index or {dim} coordinates, got {len(tokens)}"
        )
    try:
        return SpherePoint([float(t) for t in tokens])
    except ValueError as e:
        raise ConfigError(f"{fieldname}: {e}") from e


def _build_mapping(tokens: list[str], dim: int):
    if not tokens:
        raise ConfigError("mapping: empty specification")
    kind = tokens[0]
    if kind == "identity":
        if len(tokens) != 1:
            raise ConfigError("mapping: identity takes no arguments")
        return Identity()
    if kind == "rotation":
        if len(tokens) != 4:
            raise ConfigError("mapping: rotation needs 'rotation <i> <j> <angle>'")
        try:
            i, j = int(tokens[1]), int(tokens[2])
            rotation = PlaneRotation(i, j, float(tokens[3]))
        except ValueError as e:
            raise ConfigError(f"mapping: {e}") from e
        if j >= dim:
            raise ConfigError(f"mapping: plane ({i},{j}) invalid for dim {dim}")
        return rotation
    raise ConfigError(f"mapping: unknown type {kind!r}")


def build_problem(cfg: types.SimpleNamespace) -> tuple[Problem, StopRule]:
    """Validate the parsed config and materialize the problem and stop rule."""
    if cfg.dim < 2:
        raise ConfigError("dim: must be an integer >= 2")
    if not cfg.mappings:
        raise ConfigError("mapping: at least one mapping block is required")
    if not cfg.method:
        raise ConfigError("method: required field")
    # before `random_point_in_cap`, whose own bound is pi/2
    if not 0.0 < cfg.cap_radius < MAX_CAP_RADIUS:
        raise ConfigError(f"cap_radius: must be in (0, {MAX_CAP_RADIUS}), got {cfg.cap_radius}")
    if not cfg.cap_pole:
        raise ConfigError("cap_pole: required field")

    pole = _parse_point(cfg.cap_pole, cfg.dim, "cap_pole")
    maps = [_build_mapping(tokens, cfg.dim) for tokens in cfg.mappings]

    try:
        family = MappingFamily(maps, cfg.alphas)
    except ValueError as e:
        raise ConfigError(f"alphas: {e}") from e

    if cfg.x1 == "random":
        try:
            x1 = random_point_in_cap(pole, cfg.cap_radius, cfg.seed)
        except ValueError as e:
            raise ConfigError(f"seed: {e}") from e
    else:
        x1 = _parse_point(cfg.x1, cfg.dim, "x1")

    try:
        problem = Problem(cfg.dim, pole, cfg.cap_radius, family, x1)
    except ValueError as e:
        raise ConfigError(f"problem: {e}") from e
    try:
        stop = StopRule(cfg.eps_step, cfg.eps_residual, cfg.max_iter)
    except ValueError as e:
        raise ConfigError(f"stop rule: {e}") from e
    return problem, stop


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_trace_csv(path: str, trace: Trace) -> None:
    """Write the trace CSV; its residual columns follow the first record's."""
    header = ["n", "dist_x1_xn", "step_len"]
    header += [f"res_{i}" for i in range(1, len(trace[0].residuals) + 1)]
    header += ["constraint_count", "solver_sweeps"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rec in trace:
            row = [str(rec.n), _fmt(rec.dist_x1_xn), _fmt(rec.step_len)]
            row += [_fmt(v) for v in rec.residuals]
            row += [str(rec.constraint_count), str(rec.solver_sweeps)]
            fh.write(",".join(row) + "\n")


def _summarize(problem: Problem, method: str, final: SpherePoint, trace: Trace,
               reason: StopReason) -> dict:
    return {
        "method": method,
        "stop_reason": reason.value,
        "iterations": len(trace),
        "final_point": [float(c) for c in final.coords],
        "final_residuals": [float(v) for v in residuals(problem.family, final)],
        "dist_to_known_PF": distance(final, problem.target),
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _ensure_outdir(prefix: str) -> None:
    d = os.path.dirname(prefix)
    if d:
        os.makedirs(d, exist_ok=True)


def _run_config(config_path: str, seed: int | None, out: str | None, compare: bool) -> int:
    """Run the configured method(s).  `run` writes one summary per method;
    `compare` requires method = both and writes one side-by-side summary
    with each method's total solver sweeps."""
    cfg = parse_config(config_path)
    if seed is not None:
        cfg.seed = seed
    if out is not None:
        cfg.out = out
    if compare and cfg.method != "both":
        raise ConfigError("method: compare requires method = both")
    problem, stop = build_problem(cfg)
    _ensure_outdir(cfg.out)

    methods = ["cq", "shrinking"] if cfg.method == "both" else [cfg.method]
    payload, finals, reasons = {}, [], []
    for method in methods:
        final, trace, reason = run(problem, method, stop)
        write_trace_csv(f"{cfg.out}_{method}_trace.csv", trace)
        summary = _summarize(problem, method, final, trace, reason)
        if compare:
            summary["total_solver_sweeps"] = sum(rec.solver_sweeps for rec in trace)
        else:
            _write_json(f"{cfg.out}_{method}_summary.json", summary)
        print(f"[{method}] {reason.value} after {len(trace)} iterations")
        payload[method] = summary
        finals.append(final)
        reasons.append(reason)
    if compare:
        payload["final_point_distance"] = distance(*finals)
        _write_json(f"{cfg.out}_compare.json", payload)
    return 0 if all(r is StopReason.CONVERGED for r in reasons) else 2


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, as every other error does:
    argparse's own code, 2, is that of a run that did not converge."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache   # one parser per process, reused by every `main` call
def _parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sphereproj", description="Run projection-method iterations on the unit sphere.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output path prefix")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        return _run_config(args.config, args.seed, args.out,
                           compare=args.command == "compare")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except SphereProjError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: cannot write outputs: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
