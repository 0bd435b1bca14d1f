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


def test_counter_reward_view_stays_in_the_tests():
    # Solvers read counter games as parsed; the reward view of a counter
    # game is a test reference in tests/grids.py.
    assert "oc_to_reward_ssg" not in ocsg.__all__
    assert not hasattr(ocsg.model, "oc_to_reward_ssg")
