"""Event-kernel unit tests: the heap kernel's dispatch contract and the
``make_kernel`` seam that outside instrumentation wraps."""

import pytest

import repro.simulation.engine as engine
from repro.errors import ConfigurationError
from repro.scenarios import get_scenario
from repro.simulation.engine import HeapKernel, Simulator, make_kernel
from repro.simulation.runner import run_simulation

from test_lifecycle import PRE_LIFECYCLE_FINGERPRINTS, behavior_fingerprint


class TestMakeKernel:
    def test_known_names(self):
        assert isinstance(make_kernel("heap"), HeapKernel)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_kernel("fibonacci")


class TestKernelContract:
    """The heap kernel honours the (time, sequence) dispatch contract."""

    def test_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(500.0, fired.append, "late")
        sim.schedule_at(1.0, fired.append, "early")
        sim.schedule_at(250.0, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule_at(130.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_cancellation_and_live_count(self):
        sim = Simulator()
        handles = [sim.schedule_at(float(i), lambda _: None, None) for i in range(10)]
        for handle in handles[:4]:
            sim.cancel(handle)
        assert sim.pending == 6
        sim.cancel(handles[0])  # double cancel is a no-op
        assert sim.pending == 6
        sim.run()
        assert sim.events_processed == 6
        assert sim.pending == 0

    def test_run_until_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(100.0, fired.append, "in")
        sim.schedule_at(300.0, fired.append, "edge")
        sim.schedule_at(301.0, fired.append, "out")
        sim.run(until=300.0)
        assert fired == ["in", "edge"]
        assert sim.now == 300.0
        assert sim.pending == 1
        sim.run()
        assert fired == ["in", "edge", "out"]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule_in(40.0, chain, n + 1)

        sim.schedule_at(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 120.0


class CountingKernel:
    """Proxy with the kernel surface, counting what passes through it."""

    def __init__(self, inner):
        self.inner = inner
        self.pushes = self.pops = self.cancels = 0

    @property
    def live(self):
        return self.inner.live

    def push(self, entry):
        self.pushes += 1
        self.inner.push(entry)

    def cancel(self, handle):
        self.cancels += 1
        self.inner.cancel(handle)

    def pop_due(self, until):
        entry = self.inner.pop_due(until)
        if entry is not None:
            self.pops += 1
        return entry


def test_module_level_make_kernel_is_the_instrumentation_seam(monkeypatch):
    """A one-argument ``engine.make_kernel`` replacement sees every event.

    Benchmarks trace the object engine by swapping the module-level
    factory for one that wraps the real kernel in a counting proxy; the
    simulator must build its kernel through that name, call it with one
    positional argument, and behave identically with the proxy in place.
    """
    config = get_scenario("quickstart").build_config(scale=0.004)
    proxies = []
    real_make_kernel = engine.make_kernel

    def counting_make_kernel(name):
        proxies.append(CountingKernel(real_make_kernel(name)))
        return proxies[-1]

    monkeypatch.setattr(engine, "make_kernel", counting_make_kernel)
    traced = run_simulation(config)

    (proxy,) = proxies
    assert proxy.pushes > 0
    assert proxy.pops == traced.events_processed > 0
    assert behavior_fingerprint(traced) == PRE_LIFECYCLE_FINGERPRINTS["quickstart"]
