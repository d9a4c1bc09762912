"""The package's public name list."""

import heckedist


def test_all_names_resolve_once():
    # a stale entry breaks only `from heckedist import *`, which no other test runs
    assert len(heckedist.__all__) == len(set(heckedist.__all__))
    for name in heckedist.__all__:
        assert hasattr(heckedist, name), name
