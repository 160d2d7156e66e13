"""The public API: ``ushrink.__all__`` lists each exported name once, and
every listed name resolves, so a deletion that misses ``__init__.py`` fails
here rather than at a user's import."""

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
