import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ocsg import model
from ocsg.model import parse_model

DATA = Path(__file__).parent / "data"

FIVE_STATE_TEXT = """\
ocssg
state v owner=min
state low owner=rand
state up owner=rand
state back owner=rand
state down owner=rand
trans v -> back delta=0
trans v -> low delta=-1
trans low -> up p=1/1 delta=1
trans up -> up p=1/1 delta=1
trans back -> down p=1/2 delta=0
trans back -> v p=1/2 delta=1
trans down -> down p=1/1 delta=-1
"""

FAIR_WALK_TEXT = """\
ocssg
state s owner=rand
trans s -> s p=1/2 delta=1
trans s -> s p=1/2 delta=-1
"""


@pytest.fixture(scope="session")
def five_state_game():
    """The minimizing one-counter MDP where Min needs memory."""
    return parse_model(FIVE_STATE_TEXT)


@pytest.fixture(scope="session")
def fair_walk():
    return parse_model(FAIR_WALK_TEXT)


@pytest.fixture
def built_states(monkeypatch):
    """Counts, by class name, of the ``State`` and ``Transition`` objects
    built while the test runs."""
    calls = {}
    for cls in (model.State, model.Transition):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return calls
