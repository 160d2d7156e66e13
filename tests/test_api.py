"""The public API: ``ushrink.__all__`` lists each exported name once, and
every listed name resolves, so a deletion that misses ``__init__.py`` fails
here rather than at a user's import.  Importing the package stays light: it
loads neither the CLI nor the self-check, nor ``numpy.random``."""

import subprocess
import sys

import pytest

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


def _array_holders():
    import numpy as np

    from ushrink.covmat import _shrink_block
    from ushrink.shrinkage import DualMeanElement

    x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [3.0, 0.5], [0.0, 0.0]])
    return {
        "GramMatrix": lambda: ushrink.gram(ushrink.KernelSpec.linear(), x),
        "TargetSpec": lambda: ushrink.TargetSpec.dual(x[:2], [0.5, 0.5]),
        "DualMeanElement": lambda: DualMeanElement(np.ones(3) / 3, np.zeros(0)),
        "CovShrinkResult": lambda: ushrink.shrink_cov_matrix(x),
        "NormalMeanResult": lambda: ushrink.mu_check(x),
        # a block's report holds one array per field
        "ShrinkageReport": lambda: _shrink_block(np.stack([x, 2 * x]), 1.0,
                                                 ushrink.GENERAL)[3],
        "DistSpec": lambda: ushrink.DistSpec.spherical_gaussian([0.0, 1.0], 1.0),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_holders_compare_by_identity(name):
    # a generated __eq__ would compare the arrays and raise "truth value of
    # an array ... is ambiguous"; these are equal only to themselves
    make = _array_holders()[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert len({a, a, b}) == 2
