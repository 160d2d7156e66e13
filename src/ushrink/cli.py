"""Command-line frontend for the shrinkage estimators.

Subcommands::

    mean-shrink   shrink a kernel mean embedding computed from a data file
    cov-shrink    shrink the sample covariance matrix toward tau * I
    normal-mean   damped shrunk mean of vector observations
    simulate      run a canned Monte Carlo experiment
    check         run the built-in oracle-equivalence suites

Input CSV files hold one observation per row, one coordinate per column; a
single header row is skipped automatically when its first row is not
numeric, in data files and precomputed Gram matrices alike.  ``-`` reads
from stdin.  Output is JSON by default (CSV is available for simulation
grids and for the shrunk covariance matrix); identical invocations produce
byte-identical output.  The environment variable ``USHRINK_ENUM_LIMIT``
overrides the exact-enumeration tuple budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from .errors import CapabilityError, EnumerationLimitError, EstimationError
from .kernels import (
    EXPONENTIAL,
    GAUSSIAN,
    LINEAR,
    KernelSpec,
    _kernel_block,
    _read_csv,
    gram,
    load_gram_csv,
)
from .covmat import shrink_cov_matrix
from .normalmean import default_c, mu_check_c
from .selfcheck import run_checks
from .shrinkage import DEGENERATE, GENERAL, TargetSpec, evaluate_mean, shrink_mean
from .simulate import DEFAULT_SEED, experiment_names, run_experiment


# --kernel value that reads the input as a Gram matrix (``load_gram_csv``)
PRECOMPUTED = "precomputed"


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number_list(kind):
    """An argparse ``type`` parsing a non-empty comma-separated list of ``kind``."""
    def parse(text: str) -> list:
        try:
            values = [kind(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects comma-separated {kind.__name__}s, got {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError("received an empty list")
        if not all(map(math.isfinite, values)):
            raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
        return values
    return parse


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ushrink",
        description="Shrinkage estimation of kernel mean embeddings, "
        "covariance operators and normal means.",
        epilog="Set USHRINK_ENUM_LIMIT to override the exact-enumeration "
        "tuple budget (default 10^7).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, dest="input_path",
                       help="CSV file of observations ('-' for stdin)")
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--out", dest="out_path", default=None,
                       help="write the result here instead of stdout")

    p = sub.add_parser("mean-shrink", help="shrink a kernel mean embedding")
    add_io(p)
    p.add_argument("--kernel", choices=(LINEAR, GAUSSIAN, EXPONENTIAL,
                                        PRECOMPUTED), default=LINEAR)
    p.add_argument("--bandwidth", type=float, default=1.0,
                   help="Gaussian kernel bandwidth")
    p.add_argument("--scale", type=float, default=1.0,
                   help="exponential kernel scale")
    p.add_argument("--target", choices=("zero", "dual"), default="zero")
    p.add_argument("--landmarks", dest="landmarks_path", default=None,
                   help="CSV of landmark points for a dual target")
    p.add_argument("--target-coeffs", dest="target_coeffs", default=None,
                   type=_number_list(float),
                   help="comma-separated landmark coefficients")
    p.add_argument("--eval-point", dest="eval_point", default=None,
                   type=_number_list(float),
                   help="comma-separated point at which to evaluate the "
                   "shrunk embedding")

    p = sub.add_parser("cov-shrink",
                       help="shrink the sample covariance toward tau * I")
    add_io(p)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--variant", choices=("general", "degen"), default="general")

    p = sub.add_parser("normal-mean", help="damped shrunk mean")
    add_io(p)
    p.add_argument("--c", type=float, default=None,
                   help="damping constant in (0, 2); defaults to "
                   "(2n-2)/(3n-1) for the loaded n")

    p = sub.add_parser("simulate", help="run a canned Monte Carlo experiment")
    p.add_argument("--experiment", required=True, choices=experiment_names())
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--n-grid", dest="n_grid", default=None, type=_number_list(int),
                   help="comma-separated sample sizes (consistency only)")
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument("--out", dest="out_path", default=None)

    p = sub.add_parser("check", help="run the built-in oracle suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out_path", default=None)

    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse and semantically validate the command line."""
    config = build_parser().parse_args(argv)
    if config.subcommand == "mean-shrink":
        if config.kernel == PRECOMPUTED and config.eval_point is not None:
            raise UsageError(
                "--eval-point cannot be combined with --kernel precomputed"
            )
        if config.kernel == PRECOMPUTED and config.target == "dual":
            raise UsageError(
                "a dual target needs fresh kernel evaluations; it cannot be "
                "combined with --kernel precomputed"
            )
        if config.target == "dual" and (
            config.landmarks_path is None or config.target_coeffs is None
        ):
            raise UsageError(
                "--target dual requires --landmarks and --target-coeffs"
            )
        if config.output == "csv":
            raise UsageError("mean-shrink supports only --output json")
    if config.subcommand == "normal-mean":
        if config.c is not None and not 0.0 < config.c < 2.0:
            raise UsageError(f"--c must lie in (0, 2), got {config.c}")
        if config.output == "csv":
            raise UsageError("normal-mean supports only --output json")
    return config


def read_dataset(path: str) -> np.ndarray:
    """Load observations from CSV (``-`` for stdin), one per row.

    Blank lines and one optional header row are skipped, by the rules
    ``load_gram_csv`` also reads with (``kernels._read_csv``); raises
    ``ValueError`` naming ``path`` on unreadable, empty or malformed input.
    """
    return _read_csv(path)


def _dump_json(obj) -> str:
    # NaN and Infinity are not JSON: raise (exit 1) rather than emit them
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _config_hash(payload: dict) -> str:
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return digest[:12]


def _simulate_csv(result: dict) -> str:
    payload = {k: v for k, v in result.items() if k != "results"}
    tag = _config_hash(payload)
    lines = ["config,estimator,n,d,reps,mse,stderr"]
    for row in result["results"]:
        lines.append(
            f"{tag},{row['estimator']},{row['n']},{row['d']},{row['reps']},"
            f"{row['mse']!r},{row['stderr']!r}"
        )
    return "\n".join(lines) + "\n"


def _matrix_csv(matrix) -> str:
    return "\n".join(
        ",".join(repr(float(v)) for v in row) for row in np.asarray(matrix)
    ) + "\n"


def _kernel_spec(config: argparse.Namespace) -> KernelSpec:
    if config.kernel == GAUSSIAN:
        return KernelSpec.gaussian(config.bandwidth)
    if config.kernel == EXPONENTIAL:
        return KernelSpec.exponential(config.scale)
    return KernelSpec.linear()


def _run_mean_shrink(config: argparse.Namespace) -> dict:
    if config.kernel == PRECOMPUTED:
        g = load_gram_csv(config.input_path)
        data = spec = None
        element, report = shrink_mean(g)
    else:
        data = read_dataset(config.input_path)
        spec = _kernel_spec(config)
        g = gram(spec, data)
        if config.target == "dual":
            landmarks = read_dataset(config.landmarks_path)
            target = TargetSpec.dual(landmarks, config.target_coeffs)
            cross, _ = _kernel_block(spec, data, landmarks)
            tg = gram(spec, landmarks).entries
            element, report = shrink_mean(g, target, cross, tg)
        else:
            element, report = shrink_mean(g)
    out = {
        "n": g.n,
        "kernel": config.kernel,
        "report": report.to_dict(),
        "data_weights": element.data_weights.tolist(),
        "target_weights": element.target_weights.tolist(),
    }
    if config.eval_point is not None:
        out["eval_point"] = config.eval_point
        out["eval_value"] = evaluate_mean(element, spec, data, config.eval_point)
    return out


def run(config: argparse.Namespace) -> tuple[int, str]:
    """Execute a validated config; returns (exit code, serialized output)."""
    if config.subcommand == "mean-shrink":
        return 0, _dump_json(_run_mean_shrink(config))

    if config.subcommand == "cov-shrink":
        data = read_dataset(config.input_path)
        variant = GENERAL if config.variant == "general" else DEGENERATE
        result = shrink_cov_matrix(data, tau=config.tau, variant=variant)
        if config.output == "csv":
            return 0, _matrix_csv(result.shrunk)
        out = result.to_dict()
        out["tau"] = config.tau
        return 0, _dump_json(out)

    if config.subcommand == "normal-mean":
        data = read_dataset(config.input_path)
        c = config.c if config.c is not None else default_c(data.shape[0])
        result = mu_check_c(data, c)
        return 0, _dump_json(result.to_dict())

    if config.subcommand == "simulate":
        result = run_experiment(
            config.experiment,
            reps=config.reps,
            seed=config.seed,
            n_grid=config.n_grid,
        )
        if config.output == "csv":
            return 0, _simulate_csv(result)
        return 0, _dump_json(result)

    # check
    suites = run_checks(config.seed)
    ok = all(s.ok for s in suites)
    out = {
        "seed": config.seed,
        "suites": [s.to_dict() for s in suites],
        "passed": sum(s.passed for s in suites),
        "failed": sum(s.failed for s in suites),
    }
    return (0 if ok else 1), _dump_json(out)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        code, text = run(config)
    except (CapabilityError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(text, config.out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
