"""The package's public names: everything ``ocsg.__all__`` lists exists."""

import ocsg


def test_every_exported_name_resolves():
    missing = [name for name in ocsg.__all__ if not hasattr(ocsg, name)]
    assert missing == []
    assert len(set(ocsg.__all__)) == len(ocsg.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ocsg import *", namespace)
    assert set(ocsg.__all__) <= set(namespace)
