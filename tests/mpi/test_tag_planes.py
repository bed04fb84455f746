"""Law: the collectives' reserved tag planes never meet.

Each collective is run at every lane count up to ``MAX_LANES`` with the
communicator's tag mapping recorded.  Every tag it uses is a core tag of
its own communicator (user tag in ``[0, MAX_USER_TAG]``); a multi-lane
collective uses as many distinct tags per lane as its one-lane shape; and
the tags of two collectives are disjoint — except ``allreduce``, which is
``reduce`` then ``bcast`` and uses exactly their two tags.
"""

import itertools

import pytest

from repro import Session, paper_platform
from repro.mpi import (
    Communicator,
    allreduce,
    alltoall,
    barrier,
    bcast,
    gather,
    multilane_allreduce,
    multilane_barrier,
    nic_barrier,
    reduce,
    scan,
    scatter,
)
from repro.mpi.collectives import MAX_LANES
from repro.mpi.comm import MAX_USER_TAG, TAG_BITS

SIZE = 4

#: name -> (body of one rank at a lane count, tags per lane)
COLLECTIVES = {
    "barrier": (lambda ep, lanes: barrier(ep), 1),
    "bcast": (lambda ep, lanes: bcast(ep, b"x" if ep.rank == 0 else None), 1),
    "gather": (lambda ep, lanes: gather(ep, b"x"), 1),
    "scatter": (lambda ep, lanes: scatter(ep, [b"x"] * SIZE if ep.rank == 0 else None), 1),
    "alltoall": (lambda ep, lanes: alltoall(ep, [b"x"] * SIZE), 1),
    "reduce": (lambda ep, lanes: reduce(ep, 1.0), 1),
    "allreduce": (lambda ep, lanes: allreduce(ep, 1.0), 2),
    "scan": (lambda ep, lanes: scan(ep, 1.0), 1),
    "nic_barrier": (lambda ep, lanes: nic_barrier(ep), 1),
    "multilane_allreduce": (
        lambda ep, lanes: multilane_allreduce(ep, [1.0] * MAX_LANES, lanes=lanes), 2
    ),
    "multilane_barrier": (lambda ep, lanes: multilane_barrier(ep, lanes=lanes), 1),
}
MULTI_LANE = ("multilane_allreduce", "multilane_barrier")


def _tags_used(name, lanes):
    """The ``(user tag, core tag)`` pairs one run of collective ``name`` maps."""
    session = Session(paper_platform(n_nodes=SIZE), strategy="aggreg_multirail")
    comm = Communicator(session)
    used = set()
    core_tag = Communicator._core_tag

    def recording(self, user_tag):
        tag = core_tag(self, user_tag)
        used.add((user_tag, tag))
        return tag

    body = COLLECTIVES[name][0]
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Communicator, "_core_tag", recording)
        procs = [session.spawn(body(comm.endpoint(r), lanes)) for r in range(SIZE)]
        session.run_until_idle()
    assert all(p.done for p in procs), f"{name} at {lanes} lanes deadlocked"
    for user_tag, tag in used:
        assert 0 <= user_tag <= MAX_USER_TAG and tag >> TAG_BITS == comm.comm_id
        assert tag & MAX_USER_TAG == user_tag
    return {user_tag for user_tag, _ in used}


@pytest.fixture(scope="module")
def planes():
    """Collective name -> lane count -> the user tags it used."""
    return {
        name: {
            lanes: _tags_used(name, lanes)
            for lanes in (range(1, MAX_LANES + 1) if name in MULTI_LANE else (1,))
        }
        for name in COLLECTIVES
    }


def test_a_lane_has_tags_of_its_own(planes):
    for name, by_lanes in planes.items():
        per_lane = COLLECTIVES[name][1]
        for lanes, tags in by_lanes.items():
            assert len(tags) == lanes * per_lane, (name, lanes, sorted(tags))


def test_two_collectives_share_no_tag(planes):
    tags = {name: set().union(*by_lanes.values()) for name, by_lanes in planes.items()}
    assert tags["allreduce"] == tags["reduce"] | tags["bcast"]
    for a, b in itertools.combinations(sorted(set(tags) - {"allreduce"}), 2):
        assert not tags[a] & tags[b], (a, b, sorted(tags[a] & tags[b]))


def test_more_lanes_only_add_tags(planes):
    """Lane l of a multi-lane collective uses the same tags at every lane
    count: one more lane adds its own tags and changes no other lane's."""
    for name in MULTI_LANE:
        by_lanes = planes[name]
        for lanes in range(2, MAX_LANES + 1):
            assert by_lanes[lanes - 1] < by_lanes[lanes], (name, lanes)
