"""The benchmark's workloads: inputs from a seed, one round of work, checks.

A round is a fixed amount of work; a run repeats identical rounds for the
requested number of seconds.  ``prepare`` runs in the benchmark process and
writes the inputs the program receives; ``load`` and ``run_round`` run in
the worker process that is measured; ``check`` runs in the benchmark process
on the outputs of the first round (every later round must reproduce them
byte for byte).  Every call into the program goes through a module
attribute (``us.simulate.run_experiment``), so the span tracer's wrappers
see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple                    # operation names, one output each per round
    prepare: Callable             # (seed, size, rundir) -> (params, reference)
    load: Callable                # (params, rundir) -> state
    run_round: Callable           # (us, state) -> {op: output}
    check: Callable               # (params, reference, outputs) -> {op: [failures]}
    replications: Callable        # params -> estimator evaluations per round


def _mc_seed(seed: int) -> int:
    # replication r of an experiment uses seed + r, so distinct benchmark
    # seeds get disjoint Philox keys as long as reps < 10**6
    return 10**6 * seed + 1


# ---------------------------------------------------------------------------
# mc-normal-mean
# ---------------------------------------------------------------------------

# damped-improvement keeps its reps at every size: its paired difference is
# about -0.035 standard deviations per replication, so 1.5*10^4 reps put the
# expected mean about 4.2 standard errors below zero.
NORMAL_MEAN_REPS = {
    "full": {"mean-improvement": 2000, "damped-improvement": 15000, "oracle": 2000},
    "tiny": {"mean-improvement": 2000, "damped-improvement": 15000, "oracle": 2000},
}
# replications per rep: two risk rows plus a paired run of two estimators,
# or three risk rows for the oracle experiment
_REPLICATIONS_PER_REP = {"mean-improvement": 4, "damped-improvement": 4, "oracle": 3}
_NORMAL_MEAN_CHECKS = {
    "mean-improvement": checks.check_mean_improvement,
    "damped-improvement": checks.check_damped_improvement,
    "oracle": checks.check_oracle,
}


def _mc_prepare(reps_by_size):
    def prepare(seed: int, size: str, rundir: Path):
        return {"seed": _mc_seed(seed), "reps": reps_by_size[size]}, None
    return prepare


def _mc_load(params: dict, rundir: Path) -> dict:
    return params


def _normal_mean_round(us, state: dict) -> dict:
    return {name: us.simulate.run_experiment(name, reps=reps, seed=state["seed"])
            for name, reps in state["reps"].items()}


def _normal_mean_check(params: dict, reference, outputs: dict) -> dict:
    return {name: _NORMAL_MEAN_CHECKS[name](outputs[name], reps)
            for name, reps in params["reps"].items()}


def _normal_mean_replications(params: dict) -> int:
    return sum(_REPLICATIONS_PER_REP[name] * reps
               for name, reps in params["reps"].items())


# ---------------------------------------------------------------------------
# mc-kernel-embedding
# ---------------------------------------------------------------------------

CONSISTENCY_REPS = {"full": {"consistency": 600}, "tiny": {"consistency": 200}}


def _consistency_round(us, state: dict) -> dict:
    return {"consistency": us.simulate.run_experiment(
        "consistency", reps=state["reps"]["consistency"], seed=state["seed"])}


def _consistency_check(params: dict, reference, outputs: dict) -> dict:
    reps = params["reps"]["consistency"]
    return {"consistency": checks.check_consistency(outputs["consistency"], reps)}


def _consistency_replications(params: dict) -> int:
    return len(checks.CONSISTENCY["grid"]) * params["reps"]["consistency"]


# ---------------------------------------------------------------------------
# gram-large
# ---------------------------------------------------------------------------

GRAM_N = {"full": 2000, "tiny": 200}
GRAM_D = 20
# bandwidth 2d: E||X - Y||^2 = 2d for X, Y ~ N(0, I_d), so a typical
# off-diagonal entry is exp(-1) and the Gram matrix is far from 0 and from 1
GRAM_BANDWIDTH = 2.0 * GRAM_D
# prefix on which the covariance-operator estimates are enumerated exactly
GRAM_PREFIX = 10


def _gram_prepare(seed: int, size: str, rundir: Path):
    data = np.random.default_rng([seed, 2]).standard_normal((GRAM_N[size], GRAM_D))
    np.save(rundir / "data.npy", data)
    return {"n": GRAM_N[size], "d": GRAM_D, "bandwidth": GRAM_BANDWIDTH}, data


def _gram_load(params: dict, rundir: Path) -> dict:
    return {"data": np.load(rundir / "data.npy"), "bandwidth": params["bandwidth"]}


def _gram_round(us, state: dict) -> dict:
    g = us.kernels.gram(us.kernels.KernelSpec.gaussian(state["bandwidth"]),
                        state["data"])
    _, mean_report = us.shrinkage.shrink_mean(g)
    return {
        "gram": g.entries,
        "shrink_mean": mean_report.to_dict(),
        "shrink_covop": us.shrinkage.shrink_covop(g).to_dict(),
        "shrink_covop_degen": us.shrinkage.shrink_covop_degen(g).to_dict(),
    }


def _gram_check(params: dict, data: np.ndarray, outputs: dict) -> dict:
    from ushrink import kernels, shrinkage

    ref = checks.reference_gram(data, params["bandwidth"])
    prefix = data[:GRAM_PREFIX]
    g = kernels.gram(kernels.KernelSpec.gaussian(params["bandwidth"]), prefix)
    general, degen = checks.enumerate_covop(
        checks.reference_gram(prefix, params["bandwidth"]))
    return {
        "gram": checks.check_gram(outputs["gram"], ref),
        "shrink_mean": checks.check_shrink_mean(outputs["shrink_mean"], ref),
        "shrink_covop": (
            checks.check_covop("shrink_covop", outputs["shrink_covop"], ref)
            + checks.check_prefix("shrink_covop", shrinkage.shrink_covop(g).to_dict(),
                                  general)),
        "shrink_covop_degen": (
            checks.check_covop("shrink_covop_degen", outputs["shrink_covop_degen"], ref)
            + checks.check_prefix("shrink_covop_degen",
                                  shrinkage.shrink_covop_degen(g).to_dict(), degen)),
    }


# ---------------------------------------------------------------------------
# csv-large
# ---------------------------------------------------------------------------

CSV_ROWS = {"full": 200_000, "tiny": 2000}
CSV_D = 20
CSV_TAU = 1.0
_CSV_OPS = {
    "cov-shrink-general": ["cov-shrink", "--variant", "general"],
    "cov-shrink-degen": ["cov-shrink", "--variant", "degen"],
    "normal-mean": ["normal-mean"],
}


def _csv_prepare(seed: int, size: str, rundir: Path):
    rng = np.random.default_rng([seed, 3])
    scales = rng.uniform(0.5, 2.0, CSV_D)
    mu = 0.002 * rng.standard_normal(CSV_D)
    # six decimals, so the text in the file parses back to exactly these values
    data = np.round(mu + scales * rng.standard_normal((CSV_ROWS[size], CSV_D)), 6)
    header = ",".join(f"x{j}" for j in range(CSV_D))
    np.savetxt(rundir / "data.csv", data, fmt="%.6f", delimiter=",",
               header=header, comments="")
    return {"rows": CSV_ROWS[size], "d": CSV_D, "tau": CSV_TAU}, data


def _csv_load(params: dict, rundir: Path) -> dict:
    return {"csv": str(rundir / "data.csv"), "out": rundir, "tau": params["tau"]}


def _csv_round(us, state: dict) -> dict:
    outputs = {}
    for op, argv in _CSV_OPS.items():
        path = state["out"] / f"{op}.json"
        code = us.cli.main(argv + ["--input", state["csv"], "--out", str(path)]
                           + (["--tau", repr(state["tau"])] if argv[0] == "cov-shrink" else []))
        if code != 0:
            raise RuntimeError(f"ushrink {' '.join(argv)} exited with {code}")
        outputs[op] = path.read_text(encoding="utf-8")
    return outputs


def _csv_check(params: dict, data: np.ndarray, outputs: dict) -> dict:
    ref = checks.cov_reference(data)
    return {
        "cov-shrink-general": checks.check_cov_shrink(
            outputs["cov-shrink-general"], ref, params["tau"], "general"),
        "cov-shrink-degen": checks.check_cov_shrink(
            outputs["cov-shrink-degen"], ref, params["tau"], "degen"),
        "normal-mean": checks.check_normal_mean(outputs["normal-mean"], data),
    }


WORKLOADS = {w.name: w for w in (
    Workload("mc-normal-mean", tuple(NORMAL_MEAN_REPS["full"]),
             _mc_prepare(NORMAL_MEAN_REPS), _mc_load, _normal_mean_round,
             _normal_mean_check, _normal_mean_replications),
    Workload("mc-kernel-embedding", ("consistency",),
             _mc_prepare(CONSISTENCY_REPS), _mc_load, _consistency_round,
             _consistency_check, _consistency_replications),
    Workload("gram-large", ("gram", "shrink_mean", "shrink_covop", "shrink_covop_degen"),
             _gram_prepare, _gram_load, _gram_round, _gram_check,
             lambda params: 3),
    Workload("csv-large", tuple(_CSV_OPS), _csv_prepare, _csv_load, _csv_round,
             _csv_check, lambda params: len(_CSV_OPS)),
)}

