"""The measured process: repeats a workload's rounds and records each one.

Started by ``run.py`` with the run directory it prepared.  It imports
``ushrink`` from the checkout's ``src``, loads the inputs, and repeats
identical rounds until the time budget is spent.  Each round's CPU time
(``time.process_time``, user plus system) and wall time are taken around
the calls into the program.  With ``--trace 1`` the first half of the
budget runs untraced and the second half with the span tracer installed,
so the trace's overhead is measured in the same process; traced rounds
alternate between spans alone and spans with tracemalloc peaks.  It writes ``result.json`` (round times, output digests, first-round
outputs, per-layer metrics, peak RSS), ``outputs.npz`` for array outputs
and, when traced, ``spans.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads


def _digest(value) -> str:
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


def _run_phase(us, workload, state, seconds: float, tracer, rounds: list,
               first: dict, rundir: Path) -> None:
    """Repeat whole rounds until ``seconds`` have passed.

    Traced, every other round also tracks tracemalloc peaks.  tracemalloc
    slows allocation-heavy code (CSV parsing by more than 2x), so self times
    come from the traced rounds without it, and a traced phase runs at least
    one round of each kind.
    """
    start = time.perf_counter()
    count = 0
    while True:
        record = {"traced": tracer is not None}
        if tracer:
            tracer.track_peaks = record["peaks"] = count % 2 == 1
            span0 = tracer.reset_round()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outputs = workload.run_round(us, state)
        except Exception:
            outputs = None
            record["error"] = traceback.format_exc(limit=3)
        record["cpu_s"] = time.process_time() - c0
        record["wall_s"] = time.perf_counter() - t0
        if outputs is not None:
            record["digests"] = {op: _digest(v) for op, v in outputs.items()}
            if not first:
                arrays = {op: v for op, v in outputs.items() if isinstance(v, np.ndarray)}
                if arrays:
                    np.savez(rundir / "outputs.npz", **arrays)
                first.update({op: v for op, v in outputs.items() if op not in arrays})
            del outputs
        if tracer:
            record["layers"] = tracer.round_metrics(span0)
        rounds.append(record)
        count += 1
        if time.perf_counter() - start >= seconds and (tracer is None or count >= 2):
            return


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--rundir", required=True, type=Path)
    p.add_argument("--src", required=True, type=Path)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(args.src))
    import ushrink as us
    import ushrink.cli  # noqa: F401  (loads every module the tracer wraps)

    if not Path(us.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"ushrink imported from {us.__file__}, not {args.src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    params = json.loads((args.rundir / "params.json").read_text())
    state = workload.load(params, args.rundir)
    rounds: list = []
    first: dict = {}
    if args.trace:
        _run_phase(us, workload, state, args.seconds / 2, None, rounds, first, args.rundir)
        tracer = spans.Tracer()
        tracer.install()
        try:
            _run_phase(us, workload, state, args.seconds / 2, tracer, rounds, first,
                       args.rundir)
        finally:
            tracer.uninstall()
        tracer.save(args.rundir / "spans.npz")
    else:
        _run_phase(us, workload, state, args.seconds, None, rounds, first, args.rundir)

    result = {
        "rounds": rounds,
        "outputs": first,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    (args.rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
