"""The functions the benchmark's span tracer wraps exist in the package.

``perfbench/spans.py`` replaces each entry of its ``TARGETS`` table with a
wrapper by module path, so renaming or deleting one of those functions
breaks the benchmark silently.  Its count functions read the wrapped
call's arguments by position (``mc_detail``'s ``reps`` is ``args[3]``), so
a reordered signature would skew a per-layer count without an error.  The
table is loaded from its file without installing the tracer.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import ushrink as us

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _wrapped(target):
    return getattr(importlib.import_module(f"ushrink.{target.module}"),
                   target.attr, None)


def test_every_span_target_is_a_package_callable(spans):
    assert spans.TARGETS
    missing = [target.name for target in spans.TARGETS
               if not callable(_wrapped(target))]
    assert missing == []


def _count_cases(tmp_path):
    """Target name -> (argument values by parameter name, expected counts)."""
    csv = tmp_path / "rows.csv"
    csv.write_text("x,y\n1,2\n3,4\n5,6\n7,8\n")
    data = np.arange(18.0).reshape(6, 3) / 10.0
    return {
        "simulate.mc_detail": (
            {"ests": (us.EstimatorSpec.sample_mean(), us.EstimatorSpec.mu_check()),
             "dist": us.DistSpec.spherical_gaussian(np.zeros(2), 1.0),
             "n": 5, "reps": 7, "seed": 11},
            {"simulate.replications": 7}),
        "kernels.gram": (
            {"spec": us.KernelSpec.gaussian(1.0), "data": data},
            {"kernels.gram.entries": 36, "kernels.gram.bytes_computed": 6 * 6 * 3 * 8}),
        "cli.read_dataset": ({"path": str(csv)}, {"cli.read_dataset.rows": 4}),
    }


def test_count_functions_read_the_wrapped_arguments(spans, tmp_path):
    # each counted target is called positionally, in its signature's order,
    # as the package's own callers call it
    cases = _count_cases(tmp_path)
    counted = [target for target in spans.TARGETS if target.counts is not None]
    assert sorted(target.name for target in counted) == sorted(cases)
    for target in counted:
        values, expected = cases[target.name]
        fn = _wrapped(target)
        args = tuple(values[name] for name in inspect.signature(fn).parameters)
        counts = target.counts(args, {}, fn(*args))
        assert counts == expected, target.name
        assert sorted(counts) == sorted(target.count_names), target.name
