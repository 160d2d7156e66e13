"""``bench/pairs.py`` refuses two checkouts whose benchmark code differs, or
whose paths differ in length, and a seed range with no seed; it flags the
medians that moved beyond their bound, and summarizes a single seed.

The script is loaded from its file; no benchmark is run: the checks come
before the first run, and the verdict is tested on stand-in results.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"


@pytest.fixture
def pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(module, "_run", no_run)
    return module


def _checkout(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


BENCH = {"BENCHMARK.json": '{"end_to_end": [], "per_layer": []}\n',
         "perfbench/run.py": "print('run')\n",
         "perfbench/workloads.py": "W = 1\n",
         "perfbench/README.md": "notes\n"}


@pytest.mark.parametrize("change, first", [
    ({"perfbench/workloads.py": "W = 2\n"}, "perfbench/workloads.py"),
    ({"BENCHMARK.json": "{}\n", "perfbench/run.py": "pass\n"}, "BENCHMARK.json"),
    ({"perfbench/extra.py": "\n"}, "perfbench/extra.py"),
], ids=["workloads", "spec-first", "added-file"])
def test_differing_benchmark_refused(pairs, tmp_path, capsys, change, first):
    before = _checkout(tmp_path / "before", BENCH)
    after = _checkout(tmp_path / "after", {**BENCH, **change})
    out = tmp_path / "BENCH.json"
    code = pairs.main(["--before", str(before), "--after", str(after),
                       "--workload", "w", "--seeds", "1", "--out", str(out)])
    assert code == 1
    assert f"error: {first} differs" in capsys.readouterr().err
    assert not out.exists()


def test_identical_benchmark_accepted(pairs, tmp_path):
    # files other than perfbench/*.py and BENCHMARK.json may differ
    before = _checkout(tmp_path / "before", BENCH)
    after = _checkout(tmp_path / "after", {**BENCH, "perfbench/README.md": "other\n"})
    assert pairs._first_difference(before, after) is None


def _main(pairs, before, after, out):
    return pairs.main(["--before", str(before), "--after", str(after),
                       "--workload", "w", "--seeds", "1", "--out", str(out)])


def test_paths_of_unequal_length_refused(pairs, tmp_path, capsys):
    # peak_rss_mb moves with the length of the checkout's path
    before = _checkout(tmp_path / "parent", BENCH)
    after = _checkout(tmp_path / "change2", BENCH)
    out = tmp_path / "BENCH.json"
    assert _main(pairs, before, after, out) == 1
    err = capsys.readouterr().err
    assert "differ in length" in err and f"{len(str(before))} and " in err
    assert not out.exists()


def test_paths_of_equal_length_run(pairs, tmp_path):
    # compared once resolved: "x/../parent" is a longer name for a path of
    # the same length as "change", so the benchmark starts
    _checkout(tmp_path / "parent", BENCH)
    after = _checkout(tmp_path / "change", BENCH)
    (tmp_path / "x").mkdir()
    with pytest.raises(AssertionError, match="a benchmark ran"):
        _main(pairs, tmp_path / "x" / ".." / "parent", after, tmp_path / "BENCH.json")


def test_verdict_flags_medians_beyond_bound(pairs, tmp_path, monkeypatch, capsys):
    # after against before: setup_s +32% (bound 25%, flagged), cpu_s -10%,
    # replications_per_cpu_s -20% (bound 25%, not flagged)
    spec = {"end_to_end": [
        {"name": "cpu_s", "better": "lower", "bound": 0.25},
        {"name": "replications_per_cpu_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "x.calls", "better": "lower"}]}
    files = {**BENCH, "BENCHMARK.json": json.dumps(spec)}
    before = _checkout(tmp_path / "before", files)
    after = _checkout(tmp_path / "after0", files)
    values = {before: {"cpu_s": 1.0, "replications_per_cpu_s": 10.0, "setup_s": 0.161},
              after: {"cpu_s": 0.9, "replications_per_cpu_s": 8.0, "setup_s": 0.212}}

    def fake_run(checkout, workload, seed, seconds, trace=0):
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                **({"x.calls": 1} if trace else values[checkout])}

    monkeypatch.setattr(pairs, "_run", fake_run)
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--before", str(before), "--after", str(after),
                       "--workload", "w", "--seeds", "1-2", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["setup_s"]["median_change"] == pytest.approx(0.212 / 0.161 - 1)
    assert [name for name, entry in summary.items() if entry["beyond_bound"]] == [
        "setup_s"]
    assert summary["replications_per_cpu_s"]["median_change"] == pytest.approx(-0.2)
    err = capsys.readouterr().err
    assert ("w: beyond its bound: setup_s: median 0.161 -> 0.212 (+31.7%, bound 25%)"
            in err)
    assert "cpu_s: median" not in err


def test_empty_seed_range_refused(pairs, tmp_path, capsys):
    # a reversed range names no seed: refused before any run (the fixture's
    # _run raises if one starts)
    before = _checkout(tmp_path / "before", BENCH)
    after = _checkout(tmp_path / "after0", BENCH)
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--before", str(before), "--after", str(after),
                       "--workload", "w", "--seeds", "60-51", "--out", str(out)]) == 1
    assert "--seeds 60-51 names no seed" in capsys.readouterr().err
    assert not out.exists()


def test_one_seed_is_its_own_median_and_quartiles(pairs, tmp_path, monkeypatch):
    spec = {"end_to_end": [{"name": "cpu_s", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "x.calls", "better": "lower"}]}
    files = {**BENCH, "BENCHMARK.json": json.dumps(spec)}
    before = _checkout(tmp_path / "before", files)
    after = _checkout(tmp_path / "after0", files)
    cpu = {before: 1.0, after: 0.8}

    def fake_run(checkout, workload, seed, seconds, trace=0):
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                **({"x.calls": 1} if trace else {"cpu_s": cpu[checkout]})}

    monkeypatch.setattr(pairs, "_run", fake_run)
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--before", str(before), "--after", str(after),
                       "--workload", "w", "--seeds", "51", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [pair["before"]["seed"] for pair in report["pairs"]] == [51]
    entry = report["summary"]["cpu_s"]
    assert entry["before"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert entry["after"] == {"median": 0.8, "q1": 0.8, "q3": 0.8}
    assert entry["after_wins"] == 1
    assert entry["median_change"] == pytest.approx(-0.2)
    assert report["layer_summary"]["x.calls"]["after"]["median"] == 1
