"""The package's public names: every name in ``tfea.__all__`` resolves."""

import tfea


def test_every_public_name_resolves():
    # The injector names resolve lazily, through the module's __getattr__.
    unresolved = [name for name in tfea.__all__ if not hasattr(tfea, name)]
    assert not unresolved
    assert len(set(tfea.__all__)) == len(tfea.__all__)


def test_star_import():
    namespace = {}
    exec("from tfea import *", namespace)
    assert set(tfea.__all__) <= namespace.keys()
