"""Unit tests for bus arbitration, against a scripted service.

Every arbitration law is checked against BOTH arbiters: the O(1)
bitmask fast arbiter (``fast_path=True``, the default) and the
reference sort-and-scan arbiter it must be observationally identical
to (``fast_path=False``, the committed-baseline implementation).
"""

from collections import deque

import pytest

from repro.machine.buffers import READ_MISS, WRITEBACK, BusOp, CacheBusBuffer
from repro.machine.bus import Bus
from repro.machine.engine import Engine


@pytest.fixture(params=[True, False], ids=["fast", "reference"])
def fast_path(request):
    return request.param


class ListPort:
    def __init__(self):
        self.q = deque()
        self.entries = self.q  # arbiter skips empty ports via this attr
        self.ready_cb = None  # assigned by Bus.add_port

    def push(self, op):
        self.q.append(op)
        if self.ready_cb is not None:
            self.ready_cb()

    def peek(self):
        return self.q[0] if self.q else None

    def pop(self):
        return self.q.popleft()


class ScriptService:
    """Grants everything; each op holds the bus for `hold` cycles."""

    def __init__(self, hold=3, deny=None):
        self.hold = hold
        self.deny = deny or (lambda op, t: False)
        self.executed = []

    def can_issue(self, op, time):
        return not self.deny(op, time)

    def execute(self, op, time):
        self.executed.append((op, time))
        return (self.hold, None)


def make(n_ports=3, fast_path=True, **kw):
    engine = Engine()
    service = ScriptService(**kw)
    bus = Bus(engine, service, fast_path=fast_path)
    ports = [ListPort() for _ in range(n_ports)]
    for p in ports:
        bus.add_port(p)
    return engine, service, bus, ports


def op(line=0, proc=0):
    return BusOp(READ_MISS, line, proc)


class TestArbitration:
    def test_single_op_granted_immediately(self, fast_path):
        engine, service, bus, ports = make(fast_path=fast_path)
        o = op()
        ports[0].push(o)
        bus.kick(0)
        assert service.executed == [(o, 0)]
        assert bus.busy

    def test_serialization_respects_hold(self, fast_path):
        engine, service, bus, ports = make(hold=3, fast_path=fast_path)
        a, b = op(1), op(2)
        ports[0].push(a)
        ports[0].push(b)
        bus.kick(0)
        engine.run()
        assert service.executed == [(a, 0), (b, 3)]

    def test_round_robin_across_ports(self, fast_path):
        engine, service, bus, ports = make(n_ports=3, hold=2, fast_path=fast_path)
        a, b, c = op(1, 0), op(2, 1), op(3, 2)
        ports[0].push(a)
        ports[1].push(b)
        ports[2].push(c)
        bus.kick(0)
        engine.run()
        # port 0 first (rr starts at 0), then 1, then 2
        assert [o for o, _ in service.executed] == [a, b, c]

    def test_round_robin_pointer_advances_past_grantee(self, fast_path):
        engine, service, bus, ports = make(n_ports=2, hold=1, fast_path=fast_path)
        a1, a2 = op(1, 0), op(2, 0)
        b1 = op(3, 1)
        ports[0].push(a1)
        ports[0].push(a2)
        ports[1].push(b1)
        bus.kick(0)
        engine.run()
        # fairness: a1, then port 1's b1, then a2
        assert [o for o, _ in service.executed] == [a1, b1, a2]

    def test_non_issuable_port_skipped(self, fast_path):
        engine, service, bus, ports = make(
            n_ports=2, hold=1, deny=lambda o, t: o.line == 1, fast_path=fast_path
        )
        blocked = op(1, 0)
        runnable = op(2, 1)
        ports[0].push(blocked)
        ports[1].push(runnable)
        bus.kick(0)
        engine.run()
        assert [o for o, _ in service.executed] == [runnable]
        assert ports[0].peek() is blocked  # still queued

    def test_idle_until_kick(self, fast_path):
        engine, service, bus, ports = make(fast_path=fast_path)
        engine.run()
        ports[0].push(op())
        # no kick: nothing happens
        assert service.executed == []
        bus.kick(engine.now)
        assert len(service.executed) == 1

    def test_kick_while_busy_is_noop(self, fast_path):
        engine, service, bus, ports = make(hold=5, fast_path=fast_path)
        ports[0].push(op(1))
        bus.kick(0)
        ports[0].push(op(2))
        bus.kick(0)  # busy: must not double-grant
        assert len(service.executed) == 1
        engine.run()
        assert len(service.executed) == 2


class TestCancelledHead:
    """A write-back cancelled while buffered stays in its port's queue
    until an arbiter reaches it; both arbiters must skip it."""

    @staticmethod
    def _buffer_port(fast_path):
        engine = Engine()
        service = ScriptService()
        bus = Bus(engine, service, fast_path=fast_path)
        wb_total = [0]
        buf = CacheBusBuffer(0, depth=4, wb_shared=wb_total)
        idx = bus.add_port(buf)
        return engine, service, bus, buf, idx, wb_total

    @staticmethod
    def _ready(bus, idx):
        if bus.fast_path:
            return bool(bus._ready >> idx & 1)
        return idx in bus._waiting

    @pytest.mark.parametrize("kind", [READ_MISS, WRITEBACK], ids=["read", "wb"])
    def test_cancelled_head_is_skipped(self, fast_path, kind):
        engine, service, bus, buf, idx, wb_total = self._buffer_port(fast_path)
        dead = BusOp(WRITEBACK, 1, 0)
        live = BusOp(kind, 2, 0)
        buf.push(dead)
        buf.push(live)
        buf.cancel(dead)
        bus.kick(0)
        assert service.executed == [(live, 0)]
        assert not buf.entries
        # the port's write-back counts drop with the granted entry too
        assert buf.wb_count == 0 and wb_total == [0]
        assert not self._ready(bus, idx)

    def test_port_of_cancelled_entries_leaves_the_ready_set(self, fast_path):
        engine, service, bus, buf, idx, wb_total = self._buffer_port(fast_path)
        dead = [BusOp(WRITEBACK, line, 0) for line in (1, 2)]
        for o in dead:
            buf.push(o)
        for o in dead:
            buf.cancel(o)
        assert self._ready(bus, idx)
        bus.kick(0)
        assert service.executed == []
        assert not bus.busy
        assert not buf.entries
        assert not self._ready(bus, idx)


class TestStats:
    def test_busy_cycles_accumulate(self, fast_path):
        engine, service, bus, ports = make(hold=4, fast_path=fast_path)
        ports[0].push(op(1))
        ports[0].push(op(2))
        bus.kick(0)
        engine.run()
        assert bus.busy_cycles == 8
        assert bus.grants == 2
        assert bus.utilization(16) == pytest.approx(0.5)

    def test_op_counts_by_kind(self, fast_path):
        engine, service, bus, ports = make(fast_path=fast_path)
        ports[0].push(op())
        bus.kick(0)
        engine.run()
        assert bus.op_counts[READ_MISS] == 1

    def test_zero_hold_rejected(self, fast_path):
        engine, _, bus, ports = make(hold=0, fast_path=fast_path)
        ports[0].push(op())
        with pytest.raises(ValueError, match="hold"):
            bus.kick(0)
