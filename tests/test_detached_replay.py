"""The dedicated detached bcast/barrier replay against the CollSim oracle.

``repro.mpi.fastcoll.detached_call`` replays ``bcast`` and ``barrier``
(the kinds LU's closed-form walk issues) without building a
:class:`~repro.mpi.fastcoll.CollSim`.  Its contract is bit-identity
with the generic route — a ``CollSim`` driven over a
``DetachedSender`` (:func:`~repro.mpi.fastcoll.collsim_replay`): the
same completion times, scratch-engine state, ``CommStats``,
``NetworkStats`` (``busy_time`` included) and NIC byte counters, for
any arrival vector, exact ties and pre-loaded NIC engines included.
"""

import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import lu
from repro.blacs import ProcessGrid
from repro.cluster import Machine, MachineSpec
from repro.darray import Descriptor
from repro.mpi import Phantom
from repro.mpi.comm import CommStats
from repro.mpi.fastcoll import Wire, collsim_replay, detached_call
from repro.simulate import Environment

NUM_NODES = 34


def oracle_call(network, nodes, kind, times, payloads, *, root=0, op=None,
                engines=None, stats=None):
    """``detached_call`` routed through the generic CollSim replay."""
    wire = Wire(network, nodes, engines=engines,
                record_stats=stats is not None)
    return collsim_replay(wire, kind, times, payloads, root=root, op=op,
                          stats=stats)


def make_machine(num_nodes=NUM_NODES, cpus_per_node=1, dyadic=False):
    spec = MachineSpec(num_nodes=num_nodes, cpus_per_node=cpus_per_node)
    if dyadic:
        # Every cost a binary fraction: the replay's arithmetic is exact,
        # so completion times coincide with arrivals and with each other
        # far more often, and every tie-break rule gets exercised.
        spec = MachineSpec(num_nodes=num_nodes, cpus_per_node=cpus_per_node,
                           nic_bandwidth=2.0 ** 20, memory_bandwidth=2.0 ** 30,
                           latency=2.0 ** -12, memory_latency=2.0 ** -16,
                           contention_penalty=0.25,
                           software_overhead=2.0 ** -13)
    return Machine(Environment(), spec)


def observe(machine, stats_list):
    """Every counter the replay may touch, as comparable plain data."""
    net = machine.network
    return (
        [(s.sends, s.bytes_sent, s.collectives) for s in stats_list],
        (net.stats.messages, net.stats.bytes, net.stats.busy_time),
        [(node.nic.bytes_sent, node.nic.bytes_received)
         for node in net.nodes],
    )


def recording_send(log):
    """``Wire.send`` that also logs each send's arguments in order."""
    send = Wire.send

    def wrapped(wire, src, dst, payload_nb, start):
        log.append((src, dst, payload_nb, start))
        return send(wire, src, dst, payload_nb, start)
    return wrapped


# Arrival offsets drawn from a small grid, so exact ties are common.
OFFSETS = st.sampled_from([0.0, 0.0, 1e-4, 2.5e-4, 1e-3, 3.7e-3])
DYADIC_OFFSETS = st.sampled_from([k * 2.0 ** -13 for k in (0, 0, 1, 2, 3, 5)])


@st.composite
def replay_case(draw):
    size = draw(st.integers(1, 33))
    kind = draw(st.sampled_from(["bcast", "barrier"]))
    root = draw(st.integers(0, size - 1))
    dyadic = draw(st.booleans())
    offsets = DYADIC_OFFSETS if dyadic else OFFSETS
    base = draw(st.sampled_from([0.0, 1.0, 12.5 if dyadic else 12.345]))
    times = [base + draw(offsets) for _ in range(size)]
    if draw(st.booleans()):
        nodes = list(range(size))                  # one rank per node
    else:
        # Shared nodes: several ranks per node exercise the same-node
        # memory path and NIC sharing between ranks.
        span = draw(st.integers(1, max(1, size // 2)))
        nodes = [draw(st.integers(0, span - 1)) for _ in range(size)]
    # Engines busy past some arrivals (cross-call NIC serialization).
    engines = {}
    for node in sorted(set(nodes)):
        if draw(st.booleans()):
            engines[node] = [base + draw(offsets), base + draw(offsets)]
    nbytes = draw(st.sampled_from([0, 64, 960, 123456]))
    record = draw(st.booleans())
    return kind, root, times, nodes, engines, nbytes, record, dyadic


@settings(max_examples=400, deadline=None)
@given(replay_case())
# Two late ranks whose deposits landed before they arrived: their sends
# queue with an old cause behind newer same-start sends on a shared NIC,
# so the heap order by cause differs from push order.
@example(("bcast", 10, [0.0] * 27 + [0.001, 0.001],
          [0, 1] + [0] * 24 + [3, 0, 1], {}, 0, False, False))
def test_dedicated_replay_matches_collsim(case):
    kind, root, times, nodes, engines, nbytes, record, dyadic = case
    payloads = [None] * len(times)
    if kind == "bcast":
        payloads[root] = Phantom(nbytes)
    legs = []
    for call in (oracle_call, detached_call):
        machine = make_machine(dyadic=dyadic)
        # Distinct NIC speeds: the wire's min(bandwidth) must agree too.
        for i, node in enumerate(machine.network.nodes):
            node.nic.bandwidth *= 1 << (i % 3)
        eng = copy.deepcopy(engines)
        stats = CommStats() if record else None
        sends = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(Wire, "send", recording_send(sends))
            out = call(machine.network, nodes, kind, list(times), payloads,
                       root=root, engines=eng, stats=stats)
        legs.append((out, sends, eng,
                     observe(machine, [stats] if record else [])))
    (t_ref, sends_ref, eng_ref, obs_ref), (t_new, sends_new, eng_new,
                                            obs_new) = legs
    assert t_new == t_ref, "completion times diverged"
    # Same sends in the same order: the heap discipline agrees even on
    # ties that happen not to change a clock.
    assert sends_new == sends_ref, "send order diverged"
    assert eng_new == eng_ref, "scratch engine state diverged"
    assert obs_new == obs_ref, "stats diverged"


def test_scratch_engines_when_none():
    """``engines=None`` replays on scratch state, leaving no trace."""
    machine = make_machine()
    times = [0.0, 1e-4, 0.0, 2e-4, 1e-4]
    ref = oracle_call(machine.network, [0, 1, 2, 3, 4], "barrier", times,
                      [None] * 5)
    assert detached_call(machine.network, [0, 1, 2, 3, 4], "barrier",
                         times, [None] * 5) == ref
    assert machine.network.stats.messages == 0


# ---------------------------------------------------------------------------
# Walk level: LU's closed-form pdgetrf with and without the dedicated path
# ---------------------------------------------------------------------------

def run_walk(pr, pc, cpus_per_node, monkeypatch, use_oracle):
    size = pr * pc
    machine = make_machine(num_nodes=size, cpus_per_node=cpus_per_node)
    nodes = [r // cpus_per_node for r in range(size)]
    desc = Descriptor(700, 700, 32, 32, ProcessGrid(pr, pc))
    entries = [1.0 + ((7 * r) % 5) * 2.5e-4 for r in range(size)]
    row_stats = [CommStats() for _ in range(pr)]
    col_stats = [CommStats() for _ in range(pc)]
    grid_stats = CommStats()
    with monkeypatch.context() as m:
        if use_oracle:
            m.setattr(lu, "detached_call", oracle_call)
        T, ipiv = lu._pdgetrf_walk(machine, desc, nodes, entries,
                                   row_stats, col_stats, grid_stats)
    return T, ipiv, observe(machine, row_stats + col_stats + [grid_stats])


@pytest.mark.parametrize("pr,pc", [(4, 4), (4, 5), (5, 5)])
@pytest.mark.parametrize("cpus_per_node", [1, 2])
def test_pdgetrf_walk_matches_collsim(pr, pc, cpus_per_node, monkeypatch):
    ref = run_walk(pr, pc, cpus_per_node, monkeypatch, use_oracle=True)
    new = run_walk(pr, pc, cpus_per_node, monkeypatch, use_oracle=False)
    assert new[0] == ref[0], "per-rank completion times diverged"
    assert new[1] == ref[1], "pivots diverged"
    assert new[2] == ref[2], "stats diverged"
