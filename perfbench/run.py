"""Benchmark of ushrink, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``ushrink`` is imported from its ``src``
directory (pure Python, nothing to build).  The workloads, the metrics and
their bounds are listed in ``BENCHMARK.json`` at the root, and
``perfbench/README.md`` says what each one exercises and why.

Times are CPU times (user plus system), not wall times: on the 2-CPU virtual
machine this was built on, time the hypervisor gave to other guests made one
experiment's wall time vary 3.5 times as much as its CPU time.

One run: time ``import ushrink`` in fresh interpreters (``setup_s``, untraced
runs only), write the workload's inputs from ``--seed``, start one worker
process, without address-space randomization, that repeats identical rounds of the workload for ``--seconds``,
check the first round's outputs against values computed here and every
later round's outputs against the first, and print the metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced runs report the
end-to-end metrics, traced runs the per-layer metrics and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Each run must end within 180 s; the worker gets what is left of this.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 9


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    """The environment of every child process.

    The checkout's src; one BLAS thread, because CPU time counts every
    thread and idle OpenBLAS threads spin; and no transparent huge pages for
    numpy's arrays: whether the kernel can hand out a huge page depends on
    how fragmented the machine's memory is, and it changed the time of one
    Gaussian Gram at n = 2000 by a third from round to round.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), NUMPY_MADVISE_HUGEPAGE="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _fixed_layout() -> None:
    """Turn off address-space randomization in the worker about to start.

    With it on, each process places the interpreter's and numpy's memory
    differently, and on the machine this was built on the same MC
    experiment ran at levels up to a quarter apart from one process to the
    next, while the rounds within one process mostly agreed within a few
    percent.  The flag is inherited across exec and acts on the worker alone.
    """
    import ctypes

    ADDR_NO_RANDOMIZE = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_s(env: dict) -> float:
    """Median CPU time of a fresh interpreter running ``import ushrink``,
    with the worker's fixed memory layout."""
    times = []
    for _ in range(SETUP_SAMPLES):
        before = _children_cpu_s()
        subprocess.run([sys.executable, "-c", "import ushrink"], env=env,
                       cwd=ROOT, check=True, preexec_fn=_fixed_layout)
        times.append(_children_cpu_s() - before)
    return statistics.median(times)


def _run_worker(args, rundir: Path, env: dict, deadline: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--rundir", str(rundir), "--src", str(SRC),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, preexec_fn=_fixed_layout)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: worker ran past the deadline", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result = rundir / "result.json"
    if code != 0 or not result.exists():
        print(f"perfbench: worker exited with {code}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def _score(workload, params, reference, result: dict, rundir: Path):
    """(correct, attempted, failed, failure messages) over all rounds."""
    outputs = dict(result["outputs"])
    npz = rundir / "outputs.npz"
    if npz.exists():
        with np.load(npz) as arrays:
            outputs.update({k: arrays[k] for k in arrays.files})
    ops = workload.ops
    rounds = result["rounds"]
    messages = []
    op_failures = {}
    if outputs:
        op_failures = workload.check(params, reference, outputs)
        messages += [m for op in ops for m in op_failures[op]]
    correct = not messages
    expected = next((r["digests"] for r in rounds if "digests" in r), {})
    failed = 0
    for i, record in enumerate(rounds):
        if "error" in record:
            failed += len(ops)
            messages.append(f"round {i} raised: {record['error']}")
            continue
        for op in ops:
            if record["digests"][op] != expected[op]:
                correct = False
                failed += 1
                messages.append(f"round {i}: {op} output differs from the first round")
            elif op_failures[op]:
                failed += 1
    return correct, len(rounds) * len(ops), failed, messages


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # SIGTERM unwinds like an exception, so the worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ushrink" / "__init__.py").is_file():
        return _fail(f"no ushrink package under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("need --seed >= 0 and --seconds > 0")

    env = _child_env()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup = None if args.trace else _setup_s(env)

    # a fixed-width seed keeps the worker's command line, and with it the
    # start of its stack, the same length from seed to seed
    rundir = OUT / f"{args.workload}-seed{args.seed:010d}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    params, reference = workload.prepare(args.seed, args.size, rundir)
    (rundir / "params.json").write_text(json.dumps(params))

    result = _run_worker(args, rundir, env, deadline)
    if result is None:
        return 1
    correct, attempted, failed, messages = _score(workload, params, reference,
                                                  result, rundir)
    for name in ("data.csv", "data.npy", "outputs.npz"):
        (rundir / name).unlink(missing_ok=True)
    for message in messages:
        print(f"FAIL {message}")

    rounds = result["rounds"]
    untraced = [r for r in rounds if not r["traced"]]
    cpu = statistics.median(r["cpu_s"] for r in untraced)
    wall = statistics.median(r["wall_s"] for r in untraced)
    if args.trace:
        # times from the rounds with spans alone, peaks from those with
        # tracemalloc as well, counts from the last round (they repeat exactly)
        timed = [r for r in rounds if r["traced"] and not r["peaks"]]
        peaked = [r for r in rounds if r["traced"] and r["peaks"]]
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = statistics.median(r["cpu_s"] for r in timed) - cpu
            elif m["unit"] == "count":
                value = timed[-1]["layers"][name]
            else:
                source = peaked if name.endswith(".peak_alloc_mb") else timed
                value = statistics.median(r["layers"][name] for r in source)
            metrics[name] = _metric(value, m["unit"])
        print(f"{len(untraced)} untraced rounds, {len(timed)} traced rounds, "
              f"{len(peaked)} traced rounds with tracemalloc; "
              f"spans in {rundir / 'spans.npz'}")
    else:
        values = {
            "setup_s": setup,
            "cpu_s": cpu,
            "peak_rss_mb": result["peak_rss_mb"],
            "replications_per_cpu_s": workload.replications(params) / cpu,
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in spec["end_to_end"]}
        print(f"{len(untraced)} rounds, median wall time {wall:.4g} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
