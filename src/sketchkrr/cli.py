"""Command-line interface.

Subcommands:

* ``fit``                   one dataset, one (possibly sketched) fit; prints the error and profile
* ``critical-radius``       delta_n^2 and d_n for a kernel/design/sample size
* ``check-sketch``          the two-norm sketch certificate, as text or JSON
* ``bench``                 full error-vs-n sweep from a config file, written as CSV
* ``demo-nystrom-failure``  block-diagonal comparison of sub-sampling vs Gaussian sketching

Exit codes: 0 success, 2 usage error, 1 runtime error (for ``bench``:
also when every trial failed; failed trials are summarized on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .bench import (
    ExperimentConfig,
    derive_seed,
    generate_data,
    load_config,
    run_error_vs_n,
    run_nystrom_failure_demo,
    write_csv,
)
from .complexity import complexity_profile
from .kernels import KernelSpec, build_kernel_matrix
from .satisfiability import check_k_satisfiable
from .sketch import draw_sketch

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


def _norm(value: str) -> str:
    return value.replace("-", "_").lower()


def _add_kernel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", required=True, choices=["sobolev1", "gaussian", "polynomial"])
    p.add_argument("--bandwidth", type=float, help="gaussian kernel bandwidth h > 0")
    p.add_argument("--degree", type=int, help="polynomial kernel degree D >= 1")


def _kernel_from_args(args) -> KernelSpec:
    if args.kernel == "polynomial":
        if args.degree is None:
            raise _UsageError("--kernel polynomial requires --degree")
        return KernelSpec.polynomial(args.degree)
    if args.kernel == "gaussian":
        if args.bandwidth is None:
            raise _UsageError("--kernel gaussian requires --bandwidth")
        return KernelSpec.gaussian(args.bandwidth)
    return KernelSpec.sobolev1()


def _add_design_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--design",
        default="uniform-grid",
        choices=["uniform-grid", "irregular", "iid-uniform"],
    )
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        print(" ".join(f"{k}={v}" for k, v in payload.items()))


def _cmd_fit(args) -> int:
    config = ExperimentConfig(
        kernel=_kernel_from_args(args),
        fstar=_norm(args.fstar),
        design=_norm(args.design),
        sigma=args.sigma,
        n_grid=(args.n,),
        sketch_kinds=(_norm(args.sketch),),
        m_rule=_norm(args.m_rule),
        m_fixed=args.m_fixed,
        c_statdim=args.c_statdim,
        lambda_rule=_norm(args.lambda_rule),
        lambda_fixed=args.lambda_fixed,
        trials=1,
        base_seed=args.seed,
    )
    rec = run_error_vs_n(config)[0]
    payload = asdict(rec)
    _emit(payload, args.format)
    return 0


def _cmd_critical_radius(args) -> int:
    spec = _kernel_from_args(args)
    config = ExperimentConfig(kernel=spec, design=_norm(args.design), sigma=args.sigma, n_grid=(args.n,))
    sample = generate_data(config, args.n, args.seed)
    K = build_kernel_matrix(spec, sample.pts)
    profile = complexity_profile(K, args.n, args.sigma)
    _emit(
        {
            "n": profile.n,
            "sigma": profile.sigma,
            "delta_n": profile.delta_n,
            "delta_n_sq": profile.delta_n_sq,
            "d_n": profile.d_n,
        },
        args.format,
    )
    return 0


def _cmd_check_sketch(args) -> int:
    spec = _kernel_from_args(args)
    kind = _norm(args.sketch)
    config = ExperimentConfig(kernel=spec, design=_norm(args.design), sigma=args.sigma, n_grid=(args.n,))
    sample = generate_data(config, args.n, args.seed)
    K = build_kernel_matrix(spec, sample.pts)
    profile = complexity_profile(K.eigenvalues, args.n, args.sigma)
    m = args.m if args.m is not None else max(1, min(profile.d_n, args.n))
    S = draw_sketch(kind, m, args.n, derive_seed(args.seed, args.n, kind, 0))
    report = check_k_satisfiable(S, K, profile, c_threshold=args.c_threshold)
    payload = {"kind": kind, "m": m, "n": args.n, "d_n": profile.d_n}
    payload.update(asdict(report))
    _emit(payload, args.format)
    return 0


def _cmd_bench(args) -> int:
    config = load_config(args.config)
    records = run_error_vs_n(config, timing=args.timing)
    write_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    failed = sum(math.isnan(r.error) for r in records)
    if failed:
        print(f"{failed} of {len(records)} trials failed (marker rows with NaN error)", file=sys.stderr)
    return 1 if failed == len(records) else 0


def _cmd_demo(args) -> int:
    result = run_nystrom_failure_demo(args.n, args.m, args.k, args.seed)
    _emit(asdict(result), args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchkrr",
        description="Kernel ridge regression with randomized sketches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one dataset and print the error")
    _add_kernel_args(p)
    _add_design_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fstar", default="abs-shift", choices=["abs-shift", "quad"])
    p.add_argument("--sketch", default="exact", choices=["exact", "gaussian", "ros", "subsample"])
    p.add_argument(
        "--m-rule", default="cuberoot",
        choices=["cuberoot", "loggauss", "logfour", "fixed", "statdim"],
    )
    p.add_argument(
        "--m-fixed", "--m", dest="m_fixed", type=int,
        help="projection dimension for --m-rule fixed",
    )
    p.add_argument("--c-statdim", type=float, help="multiplier for --m-rule statdim")
    p.add_argument("--lambda-rule", default="two-delta-sq", choices=["two-delta-sq", "fixed"])
    p.add_argument(
        "--lambda-fixed", "--lambda", dest="lambda_fixed", type=float,
        help="regularization for --lambda-rule fixed",
    )
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("critical-radius", help="print delta_n^2 and d_n")
    _add_kernel_args(p)
    _add_design_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_critical_radius)

    p = sub.add_parser("check-sketch", help="evaluate the sketch certificate")
    _add_kernel_args(p)
    _add_design_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sketch", default="gaussian", choices=["gaussian", "ros", "subsample"])
    p.add_argument("--m", type=int, help="projection dimension (default: d_n)")
    p.add_argument("--c-threshold", type=float, default=4.0)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_check_sketch)

    p = sub.add_parser("bench", help="run an error-vs-n sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--timing", action="store_true",
        help="record real wall times (breaks byte-identical reruns)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("demo-nystrom-failure", help="block-diagonal sub-sampling failure demo")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
