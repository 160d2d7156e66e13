"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file name does not match ``test_*.py``, so the repository's own pytest
run does not collect it; name it on the command line as above.  It checks
that every checker rejects a deliberately wrong answer, that every workload
runs end to end at a tiny size, that the tracer reports exactly the
per-layer metrics of ``BENCHMARK.json``, that the worker starts without
address-space randomization, that identical CLI invocations
print identical bytes, and that the benchmark fails without the program.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import ushrink  # noqa: E402
import ushrink.cli  # noqa: E402,F401  (workloads call us.cli)
from ushrink import kernels, shrinkage, simulate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def test_spec_matches_workloads_and_tracer():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "cpu_s", "peak_rss_mb", "replications_per_cpu_s"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    tracer = spans.Tracer()
    produced = set(tracer.round_metrics(0)) | {"trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} <= produced


# ---------------------------------------------------------------------------
# checkers reject wrong answers
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mc_outputs():
    reps = workloads.NORMAL_MEAN_REPS["tiny"]
    out = {name: simulate.run_experiment(name, reps=r, seed=7)
           for name, r in reps.items()}
    out["consistency"] = simulate.run_experiment(
        "consistency", reps=workloads.CONSISTENCY_REPS["tiny"]["consistency"], seed=7)
    return reps, out


def _perturbed(out: dict, path: tuple, fn) -> dict:
    bad = copy.deepcopy(out)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = fn(node[path[-1]])
    return bad


MC_CASES = [
    ("mean-improvement", checks.check_mean_improvement, ("results", 0, "mse"),
     lambda v: v * 1.1),
    ("mean-improvement", checks.check_mean_improvement, ("results", 0, "stderr"),
     lambda v: v * 2),
    ("mean-improvement", checks.check_mean_improvement, ("paired", "mean"), abs),
    ("damped-improvement", checks.check_damped_improvement, ("paired", "mean"),
     lambda v: -v),
    ("damped-improvement", checks.check_damped_improvement, ("results", 0, "mse"),
     lambda v: v * 1.1),
    ("oracle", checks.check_oracle, ("oracle_alpha",), lambda v: v * (1 + 1e-6)),
    ("oracle", checks.check_oracle, ("results", 1, "mse"), lambda v: v * 1.1),
    ("oracle", checks.check_oracle, ("results", 0, "reps"), lambda v: v + 1),
]


@pytest.mark.parametrize("name,check,path,fn", MC_CASES)
def test_mc_checker_rejects(mc_outputs, name, check, path, fn):
    reps, out = mc_outputs
    assert check(out[name], reps[name]) == []
    assert check(_perturbed(out[name], path, fn), reps[name])


CONSISTENCY_CASES = [
    (("results", 1, "oracle_alpha"), lambda v: v * (1 + 1e-6)),
    (("slope",), lambda v: v + 0.01),
    (("results", 3, "mse"), lambda v: v * 3),
    (("results", 3, "median_alpha_gap"), lambda v: 1.0),
]


@pytest.mark.parametrize("path,fn", CONSISTENCY_CASES)
def test_consistency_checker_rejects(mc_outputs, path, fn):
    _, out = mc_outputs
    reps = workloads.CONSISTENCY_REPS["tiny"]["consistency"]
    assert checks.check_consistency(out["consistency"], reps) == []
    assert checks.check_consistency(_perturbed(out["consistency"], path, fn), reps)


@pytest.fixture(scope="module")
def gram_case():
    data = np.random.default_rng(3).standard_normal((60, 5))
    g = kernels.gram(kernels.KernelSpec.gaussian(10.0), data)
    ref = checks.reference_gram(data, 10.0)
    reports = {
        "shrink_mean": shrinkage.shrink_mean(g)[1].to_dict(),
        "shrink_covop": shrinkage.shrink_covop(g).to_dict(),
        "shrink_covop_degen": shrinkage.shrink_covop_degen(g).to_dict(),
    }
    return g.entries, ref, reports


def test_gram_checker_rejects(gram_case):
    entries, ref, _ = gram_case
    assert checks.check_gram(entries, ref) == []
    bad = entries.copy()
    bad[3, 5] += 1e-9
    assert checks.check_gram(bad, ref)


@pytest.mark.parametrize("field", ["delta_hat", "dist_sq", "alpha"])
@pytest.mark.parametrize("label", ["shrink_mean", "shrink_covop", "shrink_covop_degen"])
def test_gram_report_checkers_reject(gram_case, label, field):
    _, ref, reports = gram_case

    def check(report):
        if label == "shrink_mean":
            return checks.check_shrink_mean(report, ref)
        return checks.check_covop(label, report, ref)

    assert check(reports[label]) == []
    assert check(_perturbed(reports[label], (field,), lambda v: v * 1.01 + 1e-12))


def test_covop_prefix_enumeration(gram_case):
    data = np.random.default_rng(4).standard_normal((workloads.GRAM_PREFIX, 4))
    g = kernels.gram(kernels.KernelSpec.gaussian(8.0), data)
    general, degen = checks.enumerate_covop(checks.reference_gram(data, 8.0))
    for label, report, enumerated in (
            ("shrink_covop", shrinkage.shrink_covop(g).to_dict(), general),
            ("shrink_covop_degen", shrinkage.shrink_covop_degen(g).to_dict(), degen)):
        assert checks.check_prefix(label, report, enumerated) == []
        bad = _perturbed(report, ("delta_hat",), lambda v: v * (1 + 1e-6))
        assert checks.check_prefix(label, bad, enumerated)


@pytest.fixture(scope="module")
def csv_case(tmp_path_factory):
    rundir = tmp_path_factory.mktemp("csv")
    params, data = workloads.WORKLOADS["csv-large"].prepare(5, "tiny", rundir)
    state = workloads.WORKLOADS["csv-large"].load(params, rundir)
    return params, data, workloads.WORKLOADS["csv-large"].run_round(ushrink, state)


@pytest.mark.parametrize("variant", ["general", "degen"])
@pytest.mark.parametrize("edit", [
    lambda o: o["report"].update(alpha=o["report"]["alpha"] * 1.01 + 1e-9),
    lambda o: o["report"].update(delta_hat=o["report"]["delta_hat"] * (1 + 1e-6)),
    lambda o: o["report"].update(dist_sq=o["report"]["dist_sq"] * (1 + 1e-6)),
    lambda o: o["c_hat"][0].__setitem__(0, o["c_hat"][0][0] * (1 + 1e-6)),
    lambda o: o["shrunk"][1].__setitem__(1, o["shrunk"][1][1] + 1e-6),
])
def test_cov_shrink_checker_rejects(csv_case, variant, edit):
    params, data, outputs = csv_case
    ref = checks.cov_reference(data)
    text = outputs[f"cov-shrink-{variant}"]
    assert checks.check_cov_shrink(text, ref, params["tau"], variant) == []
    out = json.loads(text)
    edit(out)
    assert checks.check_cov_shrink(json.dumps(out), ref, params["tau"], variant)


def test_cov_shrink_checker_rejects_non_finite_json(csv_case):
    params, data, outputs = csv_case
    out = json.loads(outputs["cov-shrink-general"])
    out["report"]["alpha"] = float("nan")
    assert checks.check_cov_shrink(json.dumps(out), checks.cov_reference(data),
                                   params["tau"], "general")


@pytest.mark.parametrize("field", ["alpha", "estimate", "xbar", "s2"])
def test_normal_mean_checker_rejects(csv_case, field):
    _, data, outputs = csv_case
    assert checks.check_normal_mean(outputs["normal-mean"], data) == []
    out = json.loads(outputs["normal-mean"])
    value = np.asarray(out[field]) * (1 + 1e-6) + 1e-9
    out[field] = value.tolist()
    assert checks.check_normal_mean(json.dumps(out), data)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_restores_functions_and_splits_self_time():
    original = kernels.gram
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ushrink.gram is kernels.gram is simulate.gram is not original
        first = tracer.reset_round()
        simulate.run_experiment("consistency", reps=100, seed=1, n_grid=[5, 10, 20])
        layers = tracer.round_metrics(first)
    finally:
        tracer.uninstall()
    assert ushrink.gram is kernels.gram is simulate.gram is original
    assert layers["kernels.gram.calls"] == layers["simulate.sample.calls"] == 300
    assert layers["simulate.replications"] == 300
    assert layers["kernels.gram.entries"] == 100 * (25 + 100 + 400)
    # self times of all spans add up to the time covered by the outermost ones
    ends = np.frombuffer(tracer.ends)[first:]
    starts = np.frombuffer(tracer.starts)[first:]
    roots = np.frombuffer(tracer.parents, dtype=np.int64)[first:] < 0
    total_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(float((ends - starts)[roots].sum()), rel=1e-9)


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def test_worker_starts_without_address_space_randomization():
    flags = subprocess.run(["cat", "/proc/self/personality"], check=True,
                           capture_output=True, text=True,
                           preexec_fn=run._fixed_layout).stdout
    assert int(flags, 16) & 0x0040000


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_tiny(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


EXPECTED_COUNTS = {
    "mc-normal-mean": {"kernels.gram.calls": 0, "cli.read_dataset.rows": 0},
    "mc-kernel-embedding": {"normalmean.mu_check_c.calls": 0, "kernels.gram.calls": 800},
    "gram-large": {"kernels.gram.calls": 1, "kernels.gram.entries": 200 * 200,
                   "simulate.replications": 0},
    "csv-large": {"cli.read_dataset.rows": 3 * 2000, "kernels.gram.calls": 0},
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_tiny_traced(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name, value in EXPECTED_COUNTS[workload].items():
        assert metrics[name] == value, name
    assert metrics["simulate.replications"] == metrics["simulate.sample.calls"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "gram-large", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# determinism of the CLI
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["cov-shrink", "--variant", "degen"],
    ["normal-mean"],
    ["mean-shrink", "--kernel", "gaussian", "--bandwidth", "3", "--eval-point",
     "0,0,0"],
    ["simulate", "--experiment", "oracle", "--reps", "200", "--seed", "9"],
])
def test_cli_stdout_is_byte_identical(tmp_path, argv):
    data = np.round(np.random.default_rng(2).standard_normal((40, 3)), 6)
    np.savetxt(tmp_path / "x.csv", data, fmt="%.6f", delimiter=",")
    if argv[0] != "simulate":
        argv = argv + ["--input", str(tmp_path / "x.csv")]
    cmd = [sys.executable, "-m", "ushrink.cli", *argv]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    runs = [subprocess.run(cmd, capture_output=True, env=env, timeout=60)
            for _ in range(2)]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
