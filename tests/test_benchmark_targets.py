"""The functions the benchmark's span tracer wraps exist in the package.

``perfbench/spans.py`` replaces each entry of its ``TARGETS`` table with a
wrapper by module path, so renaming or deleting one of those functions
breaks the benchmark silently.  The table is loaded from its file without
installing the tracer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_is_a_package_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        target.name for target in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"ushrink.{target.module}"),
                                target.attr, None))
    ]
    assert missing == []
