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

# A reachability instance whose state lost cannot reach t or u, so the
# Condon reductions route it to u.
DEAD_SINK_TEXT = """\
ssg rewards=states
state s owner=rand reward=0
state t owner=rand reward=0
state u owner=rand reward=0
state lost owner=rand reward=0
trans s -> t p=1/2
trans s -> lost p=1/2
trans t -> t p=1/1
trans u -> u p=1/1
trans lost -> lost p=1/1
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
    """Counts, by class name, of the ``State`` and ``Transition`` named
    tuples built while the test runs, by their constructor or by ``_make``
    (which ``_replace`` calls)."""
    calls = {}
    for cls in (model.State, model.Transition):
        def counted_new(klass, *args, _new=cls.__new__, _name=cls.__name__, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _new(klass, *args, **kwargs)

        def counted_make(klass, iterable, _make=cls._make, _name=cls.__name__):
            calls[_name] = calls.get(_name, 0) + 1
            return _make(iterable)

        monkeypatch.setattr(cls, "__new__", counted_new)
        monkeypatch.setattr(cls, "_make", classmethod(counted_make))
    return calls
