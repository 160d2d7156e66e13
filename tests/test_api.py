"""The public API: ``ushrink.__all__`` lists each exported name once, and
every listed name resolves, so a deletion that misses ``__init__.py`` fails
here rather than at a user's import.  Importing the package stays light: it
loads neither the CLI nor the self-check, nor ``numpy.random``."""

import subprocess
import sys

import ushrink


def test_all_has_no_duplicates():
    assert len(ushrink.__all__) == len(set(ushrink.__all__))


def test_every_name_resolves():
    missing = [name for name in ushrink.__all__ if not hasattr(ushrink, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from ushrink import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ushrink.__all__)


def test_import_loads_no_heavy_modules():
    # a fresh interpreter: this test session may have loaded them already
    code = ("import sys, ushrink; print(' '.join(m for m in ('numpy.random', "
            "'ushrink.cli', 'ushrink.selfcheck') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == []
