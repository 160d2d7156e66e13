r"""Paired benchmark runs of two checkouts, written to a BENCH_*.json file.

    python3 bench/pairs.py --before DIR --after DIR --workload NAME \
        --seeds 51-60 --out BENCH_name.json [--seconds 20]

Runs ``perfbench/run.py`` in each checkout twice per seed, untraced and then
traced, alternating which side runs first, and records every run's
end-to-end metrics (from the untraced run) and per-layer metrics (from the
traced run, ``layers`` in each pair), the median and quartiles of each side,
the number of pairs the ``after`` side wins on each metric (``summary`` and
``layer_summary``), and the machine.  For each end-to-end metric ``summary``
also gives ``median_change``, the relative change of the median (after
against before), and ``beyond_bound``, true when that change is worse than
the metric's ``bound`` in ``BENCHMARK.json``; the metrics beyond their bound
are also printed to stderr.  A seed range with no seed (``60-51``) exits 1
before any run.  Both checkouts must contain the same
``perfbench/*.py`` and ``BENCHMARK.json``: before the first run it compares
their bytes and exits 1 naming the first file that differs.  It also exits 1
when the two checkouts' resolved paths differ in length, because
``peak_rss_mb`` moves with that length on every workload.  Run nothing else
on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def _summary(metrics: dict, runs: list[dict]) -> dict:
    """Quartiles of each side and the ``after`` side's wins, per metric.

    ``runs`` holds one {"before": {...}, "after": {...}} per pair."""
    summary = {}
    for name, better in metrics.items():
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (r["after"][name] - r["before"][name]) > 0 for r in runs)
        summary[name] = {
            "better": better,
            "before": _quartiles([r["before"][name] for r in runs]),
            "after": _quartiles([r["after"][name] for r in runs]),
            "after_wins": wins,
        }
    return summary


def _verdict(summary: dict, bounds: dict) -> list[str]:
    """Mark each bounded metric of ``summary`` with its median change and verdict.

    ``median_change`` is after / before - 1 of the medians, and
    ``beyond_bound`` is true when the change is worse (a rise of a
    lower-is-better metric, a fall of a higher-is-better one) by more than
    the metric's bound.  Returns one line per metric beyond its bound.
    """
    flagged = []
    for name, bound in bounds.items():
        entry = summary[name]
        before, after = entry["before"]["median"], entry["after"]["median"]
        change = after / before - 1.0
        worse = change if entry["better"] == "lower" else -change
        entry["median_change"] = change
        entry["beyond_bound"] = worse > bound
        if entry["beyond_bound"]:
            flagged.append(f"{name}: median {before:.6g} -> {after:.6g} "
                           f"({change:+.1%}, bound {bound:.0%})")
    return flagged


def _benchmark_files(checkout: Path) -> set[str]:
    return {"BENCHMARK.json",
            *(p.relative_to(checkout).as_posix()
              for p in (checkout / "perfbench").glob("*.py"))}


def _first_difference(before: Path, after: Path) -> str | None:
    """The first benchmark file (by name) not byte-identical in both checkouts."""
    for name in sorted(_benchmark_files(before) | _benchmark_files(after)):
        a, b = before / name, after / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            return name
    return None


def _quartiles(values: list[float]) -> dict:
    """Median and quartiles; one value is its own median and quartiles."""
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _seeds(text: str) -> list[int]:
    """The seeds of ``N`` or ``LO-HI``; empty when HI < LO."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _machine() -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "os": f"{platform.system()} {platform.release()}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--before", required=True, type=Path)
    p.add_argument("--after", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="one seed or a range LO-HI")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)

    seeds = _seeds(args.seeds)
    if not seeds:
        print(f"error: --seeds {args.seeds} names no seed; give one seed or a "
              "range LO-HI with LO <= HI", file=sys.stderr)
        return 1
    differs = _first_difference(args.before, args.after)
    if differs is not None:
        print(f"error: {differs} differs between {args.before} and {args.after}; "
              "both sides must run the same benchmark", file=sys.stderr)
        return 1
    before, after = args.before.resolve(), args.after.resolve()
    if len(str(before)) != len(str(after)):
        print(f"error: the checkout paths {before} and {after} differ in length "
              f"({len(str(before))} and {len(str(after))} characters); peak_rss_mb "
              "moves with that length, so put both in paths of equal length",
              file=sys.stderr)
        return 1
    spec = json.loads((args.before / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layer_metrics = {m["name"]: m["better"] for m in spec["per_layer"]}
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        pair = {"first": order[0]}
        layers = {}
        for side in order:
            checkout = getattr(args, side)
            pair[side] = _run(checkout, args.workload, seed, args.seconds)
            print(f"seed {seed} {side}: " + ", ".join(
                f"{name} {pair[side][name]:.6g}" for name in metrics), file=sys.stderr)
            layers[side] = _run(checkout, args.workload, seed, args.seconds,
                                trace=1)
        pair["layers"] = layers
        pairs.append(pair)

    summary = _summary(metrics, pairs)
    flagged = _verdict(summary, {m["name"]: m["bound"] for m in spec["end_to_end"]})
    report = {"workload": args.workload, "seconds": args.seconds,
              "command": "python3 perfbench/run.py --workload W --seed N "
                         f"--seconds {args.seconds:g} --trace 0|1",
              "machine": _machine(), "pairs": pairs,
              "summary": summary,
              "layer_summary": _summary(layer_metrics,
                                        [pr["layers"] for pr in pairs])}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for line in flagged:
        print(f"{args.workload}: beyond its bound: {line}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
