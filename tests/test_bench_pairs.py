"""``bench/pairs.py`` refuses two checkouts whose benchmark code differs.

The script is loaded from its file; nothing is run, since the check comes
before the first benchmark run.
"""

import importlib.util
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
