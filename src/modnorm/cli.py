"""Command-line front end: pair checks, verification suites, range and
minimizer queries.

Exit codes for ``check``: 0 primary verdict true, 1 false, 2 hypothesis
violation, 3 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import DEFAULT_SEED, ToleranceConfig
from .normopt import HypothesisViolation, bj_orthogonal, min_lambda_norm
from .numrange import range_boundary
from .orthogonality import (
    OrthogonalityReport,
    StatementResult,
    norm_additivity_report,
    parallelogram_law_check,
    parallelogram_two_imply_third,
    product_norm_check,
    pythagoras_identity,
    pythagoras_orthogonal,
    roberts_check,
    scaled_pythagoras_report,
    triangle_equality,
)
from .serialization import (
    MatrixFormatError,
    canonical_json,
    load_matrix,
    save_report,
)
from .suites import SUITE_NAMES, run_suite

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3

# kind -> (decider, primary statement label)
_CHECKS = {
    "triangle": (triangle_equality, "norm_sum"),
    "norm-additivity": (norm_additivity_report, "gram_sum_norm"),
    "parallelogram3": (parallelogram_two_imply_third, "parallelogram_at_one"),
    "pythagoras-identity": (pythagoras_identity, "pythagoras"),
    "scaled-pythagoras": (scaled_pythagoras_report, "pythagoras"),
    "pythagoras": (pythagoras_orthogonal, "definition"),
}
_BOOL_CHECKS = ("product-norm", "roberts", "parallelogram", "bj")
CHECK_KINDS = (*_CHECKS, *_BOOL_CHECKS, "min-lambda", "numrange")


def _default_seed() -> int:
    env = os.environ.get("MODNORM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SystemExit(f"invalid MODNORM_SEED: {env!r}") from exc
    return DEFAULT_SEED


def _build_config(args: argparse.Namespace) -> ToleranceConfig:
    kwargs: dict = {"rng_seed": args.seed if args.seed is not None else _default_seed()}
    if getattr(args, "eps_eq", None) is not None:
        kwargs["eps_eq"] = args.eps_eq
    if getattr(args, "eps_opt", None) is not None:
        kwargs["eps_opt"] = args.eps_opt
    if getattr(args, "lattice_mags", None) is not None:
        lo, hi = args.lattice_mags
        kwargs["lattice_mag_exponents"] = (int(lo), int(hi))
    if getattr(args, "lattice_phases", None) is not None:
        kwargs["lattice_phases"] = args.lattice_phases
    return ToleranceConfig(**kwargs)


def _emit(obj: dict, out: str | None) -> None:
    if out:
        save_report(obj, out)
    else:
        print(canonical_json(obj))


def _min_lambda_dict(a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig) -> dict:
    res = min_lambda_norm(a, b, cfg)
    return {
        "kind": "min-lambda",
        "lambda_star": [res.lambda_star.real, res.lambda_star.imag],
        "value": res.value,
        "iterations": res.iterations,
    }


def _numrange_dict(a: np.ndarray, cfg: ToleranceConfig, angles: int | None) -> dict:
    if angles is not None:
        cfg = dataclasses.replace(cfg, phase_grid=angles)
    bound = range_boundary(a, cfg)
    return {
        "kind": "numrange",
        "angles": [float(t) for t in bound.angles],
        "support_values": [float(v) for v in bound.support_values],
        "boundary_points": [[z.real, z.imag] for z in bound.extreme_points],
    }


def _run_check(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    try:
        x = load_matrix(args.x)
        y = load_matrix(args.y) if args.y is not None else None
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    kind = args.kind
    try:
        if kind == "numrange":
            _emit(_numrange_dict(x, cfg, None), args.out)
            return EXIT_TRUE
        if y is None:
            print("error: this check needs two matrix files", file=sys.stderr)
            return EXIT_INPUT
        if kind == "min-lambda":
            _emit(_min_lambda_dict(x, y, cfg), args.out)
            return EXIT_TRUE
        if kind in _CHECKS:
            decider, primary = _CHECKS[kind]
            report: OrthogonalityReport = decider(x, y, cfg)
            _emit({"kind": kind, **report.to_dict()}, args.out)
            return EXIT_TRUE if report.verdict(primary) else EXIT_FALSE
        # plain boolean checks
        if kind == "product-norm":
            first, second = product_norm_check(x, y, cfg)
            statements = {
                "gram_sum_norm": StatementResult(first, 0.0),
                "adjoint_product_norm": StatementResult(second, 0.0),
            }
            report = OrthogonalityReport("product-norm", statements, [], first == second, cfg)
            _emit({"kind": kind, **report.to_dict()}, args.out)
            return EXIT_TRUE if first else EXIT_FALSE
        if kind == "roberts":
            verdict = roberts_check(x, y, cfg)
        elif kind == "parallelogram":
            verdict = parallelogram_law_check(x, y, cfg)
        else:
            verdict, _ = bj_orthogonal(x, y, cfg)
        _emit({"kind": kind, "verdict": verdict}, args.out)
        return EXIT_TRUE if verdict else EXIT_FALSE
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _run_suite_cmd(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    report = run_suite(args.name, seed=cfg.rng_seed, count=args.count, cfg=cfg)
    _emit(report.to_dict(), args.out)
    if report.failures:
        print(f"{len(report.failures)} failures", file=sys.stderr)
        return EXIT_FALSE
    return EXIT_TRUE


def _run_numrange_cmd(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    try:
        a = load_matrix(args.a)
        _emit(_numrange_dict(a, cfg, args.angles), args.out)
    except (MatrixFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_TRUE


def _run_min_lambda_cmd(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    try:
        a = load_matrix(args.a)
        b = load_matrix(args.b)
        _emit(_min_lambda_dict(a, b, cfg), args.out)
    except (MatrixFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_TRUE


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--eps-eq", type=float, help="tolerance for algebraic identities")
    p.add_argument("--eps-opt", type=float, help="tolerance for optimizer-mediated equalities")
    p.add_argument("--seed", type=int, help="seed override (default: MODNORM_SEED or built-in)")
    p.add_argument(
        "--lattice-mags",
        nargs=2,
        type=int,
        metavar=("LO", "HI"),
        help="exponent range for lattice magnitudes 2^k",
    )
    p.add_argument("--lattice-phases", type=int, help="phases per lattice magnitude")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modnorm",
        description="Norm-equality and orthogonality checks for matrix pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="analyze one pair of matrices")
    p_check.add_argument("kind", choices=CHECK_KINDS)
    p_check.add_argument("x", help="path to the first matrix JSON file")
    p_check.add_argument("y", nargs="?", help="path to the second matrix JSON file")
    _add_common_flags(p_check)
    p_check.set_defaults(fn=_run_check)

    p_suite = sub.add_parser("suite", help="run a verification suite")
    p_suite.add_argument("name", choices=SUITE_NAMES)
    p_suite.add_argument("--count", type=int, default=50, help="cases per suite")
    _add_common_flags(p_suite)
    p_suite.set_defaults(fn=_run_suite_cmd)

    p_range = sub.add_parser("numrange", help="sample the numerical range boundary")
    p_range.add_argument("a", help="path to the matrix JSON file")
    p_range.add_argument("--angles", type=int, help="number of boundary angles")
    _add_common_flags(p_range)
    p_range.set_defaults(fn=_run_numrange_cmd)

    p_min = sub.add_parser(
        "min-lambda",
        help="minimize ||A + lambda B|| over complex lambda; 'iterations' counts "
        "Newton steps plus any Nelder-Mead iterations",
    )
    p_min.add_argument("a", help="path to the first matrix JSON file")
    p_min.add_argument("b", help="path to the second matrix JSON file")
    _add_common_flags(p_min)
    p_min.set_defaults(fn=_run_min_lambda_cmd)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
