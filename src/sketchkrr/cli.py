"""Command-line interface.

Subcommands:

* ``fit``                   one dataset, one (possibly sketched) fit; prints the error and profile
* ``critical-radius``       delta_n^2 and d_n of that dataset's kernel matrix
* ``check-sketch``          the two-norm certificate of the sketch ``fit`` draws, as text or JSON
* ``bench``                 full error-vs-n sweep from a config file, written as CSV
* ``demo-nystrom-failure``  block-diagonal comparison of sub-sampling vs Gaussian sketching

``fit``, ``critical-radius`` and ``check-sketch`` share one trial path.
Their kernel, design, ``--n``, ``--sigma`` and ``--seed`` flags make one
:class:`~sketchkrr.bench.ExperimentConfig` with ``n_grid = (n,)`` and
``trials = 1``, and each works on its trial 0 through the sweep's own
code: the same dataset, kernel matrix and profile.  ``check-sketch --m M``
certifies the sketch that ``fit --m-rule fixed --m M`` fits with; without
``--m`` it takes m = d_n.

Exit codes: 0 success, 2 usage error (also flags or a ``bench`` config
file that make an invalid kernel or config), 1 runtime error.  A
one-trial command whose trial fails exits 1 with the reason on stderr;
``bench`` records a failed trial as a marker row, summarizes failed
trials on stderr and exits 1 only when every trial failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .bench import (
    ARM_KINDS,
    DESIGN_CHOICES,
    FSTAR_CHOICES,
    LAMBDA_RULES,
    M_RULES,
    ExperimentConfig,
    _arm_sketch,
    _fit_arm,
    _shared_inputs,
    derive_seed,
    load_config,
    run_error_vs_n,
    run_nystrom_failure_demo,
    write_csv,
)
from .errors import DomainError
from .kernels import _KERNEL_KINDS, KernelSpec
from .satisfiability import check_k_satisfiable
from .sketch import SKETCH_KINDS

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


def _choices(values) -> list[str]:
    return [v.replace("_", "-") for v in values]


def _norm(value: str) -> str:
    return value.replace("-", "_")


def _add_trial_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", required=True, choices=_choices(_KERNEL_KINDS))
    p.add_argument("--bandwidth", type=float, help="gaussian kernel bandwidth h > 0")
    p.add_argument("--degree", type=int, help="polynomial kernel degree D >= 1")
    p.add_argument("--design", default="uniform-grid", choices=_choices(DESIGN_CHOICES))
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)


def _config(args, **rules) -> ExperimentConfig:
    """The one-trial config of the trial flags plus a subcommand's rules."""
    try:
        return ExperimentConfig(
            kernel=KernelSpec(args.kernel, degree=args.degree, bandwidth=args.bandwidth),
            design=_norm(args.design),
            sigma=args.sigma,
            n_grid=(args.n,),
            trials=1,
            base_seed=args.seed,
            **rules,
        )
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        print(" ".join(f"{k}={v}" for k, v in payload.items()))


def _cmd_fit(args) -> int:
    kind = _norm(args.sketch)
    config = _config(
        args,
        fstar=_norm(args.fstar),
        sketch_kinds=(kind,),
        m_rule=_norm(args.m_rule),
        m_fixed=args.m_fixed,
        c_statdim=args.c_statdim,
        lambda_rule=_norm(args.lambda_rule),
        lambda_fixed=args.lambda_fixed,
    )
    shared = _shared_inputs(config, args.n, 0, None)
    seed = derive_seed(config.base_seed, args.n, kind, 0)
    _emit(asdict(_fit_arm(config, shared, args.n, kind, 0, seed)), args.format)
    return 0


def _cmd_critical_radius(args) -> int:
    profile = _shared_inputs(_config(args), args.n, 0, None).profile
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
    kind = _norm(args.sketch)
    # without --m, m = d_n: the statdim rule with c = 1
    if args.m is None:
        config = _config(args, sketch_kinds=(kind,), m_rule="statdim", c_statdim=1.0)
    else:
        config = _config(args, sketch_kinds=(kind,), m_rule="fixed", m_fixed=args.m)
    shared = _shared_inputs(config, args.n, 0, None)
    seed = derive_seed(config.base_seed, args.n, kind, 0)
    S = _arm_sketch(config, shared.profile, args.n, kind, seed)
    report = check_k_satisfiable(S, shared.K, shared.profile, c_threshold=args.c_threshold)
    payload = {"kind": kind, "m": S.m, "n": args.n, "d_n": shared.profile.d_n}
    payload.update(asdict(report))
    _emit(payload, args.format)
    return 0


def _cmd_bench(args) -> int:
    try:
        config = load_config(args.config)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc
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
    _add_trial_args(p)
    p.add_argument("--fstar", default="abs-shift", choices=_choices(FSTAR_CHOICES))
    p.add_argument("--sketch", default="exact", choices=_choices(ARM_KINDS))
    p.add_argument("--m-rule", default="cuberoot", choices=_choices(M_RULES))
    p.add_argument(
        "--m-fixed", "--m", dest="m_fixed", type=int,
        help="projection dimension for --m-rule fixed",
    )
    p.add_argument("--c-statdim", type=float, help="multiplier for --m-rule statdim")
    p.add_argument("--lambda-rule", default="two-delta-sq", choices=_choices(LAMBDA_RULES))
    p.add_argument(
        "--lambda-fixed", "--lambda", dest="lambda_fixed", type=float,
        help="regularization for --lambda-rule fixed",
    )
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("critical-radius", help="print delta_n^2 and d_n")
    _add_trial_args(p)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_critical_radius)

    p = sub.add_parser("check-sketch", help="evaluate the sketch certificate")
    _add_trial_args(p)
    p.add_argument("--sketch", default="gaussian", choices=_choices(SKETCH_KINDS))
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
