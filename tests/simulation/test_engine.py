"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.simulation.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, fired.append, "late")
        sim.schedule_at(1.0, fired.append, "early")
        sim.schedule_at(3.0, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule_at(2.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_schedule_in_is_relative(self):
        sim = Simulator(start_time=10.0)
        times = []
        sim.schedule_in(5.0, lambda _: times.append(sim.now), None)
        sim.run()
        assert times == [15.0]

    def test_past_scheduling_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(9.0, print, None)
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, print, None)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule_in(1.0, chain, n + 1)

        sim.schedule_at(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestRunUntil:
    def test_until_stops_clock_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, fired.append, "in")
        sim.schedule_at(9.0, fired.append, "out")
        sim.run(until=5.0)
        assert fired == ["in"]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_event_exactly_at_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(9.0, fired.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["late"]
        assert sim.now == 9.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, fired.append, "no")
        sim.schedule_at(2.0, fired.append, "yes")
        sim.cancel(handle)
        sim.run()
        assert fired == ["yes"]

    def test_events_processed_counts_only_fired(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda _: None, None)
        sim.schedule_at(2.0, lambda _: None, None)
        sim.cancel(handle)
        sim.run()
        assert sim.events_processed == 1


class TestDeadEventCompaction:
    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        handles = [sim.schedule_at(float(i), lambda _: None, None) for i in range(10)]
        for handle in handles[:4]:
            sim.cancel(handle)
        assert sim.pending == 6

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda _: None, None)
        sim.schedule_at(2.0, lambda _: None, None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending == 1

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda _: None, None)
        sim.schedule_at(2.0, lambda _: None, None)
        sim.run(until=1.0)
        sim.cancel(handle)  # already fired; must not corrupt the live count
        assert sim.pending == 1
        sim.run()
        assert sim.events_processed == 2

    def test_majority_dead_queue_is_compacted(self):
        sim = Simulator()
        keep = Simulator.COMPACT_MIN_SIZE // 2
        live = [sim.schedule_at(float(i), lambda _: None, None) for i in range(keep)]
        dead = [
            sim.schedule_at(1000.0 + i, lambda _: None, None)
            for i in range(keep + 2)
        ]
        for handle in dead:
            sim.cancel(handle)
        # the physical queue shrank to the live entries alone
        assert len(sim._queue) == len(live)
        assert sim.pending == len(live)

    def test_compaction_preserves_order_and_results(self):
        sim = Simulator()
        fired = []
        handles = []
        for i in range(200):
            handles.append(sim.schedule_at(float(i), fired.append, i))
        for i, handle in enumerate(handles):
            if i % 2:
                sim.cancel(handle)
        sim.run()
        assert fired == [i for i in range(200) if i % 2 == 0]
        assert sim.pending == 0

    def test_small_queues_skip_compaction(self):
        sim = Simulator()
        live = sim.schedule_at(1.0, lambda _: None, None)
        dead = sim.schedule_at(2.0, lambda _: None, None)
        sim.cancel(dead)
        # below COMPACT_MIN_SIZE the dead entry stays queued but uncounted
        assert len(sim._queue) == 2
        assert sim.pending == 1
        sim.cancel(live)
        assert sim.pending == 0
        sim.run()
        assert sim.events_processed == 0


class TestCompactionEdgeCases:
    def test_cancel_all_then_schedule(self):
        """Cancelling every queued event must leave a clean, usable queue."""
        sim = Simulator()
        handles = [
            sim.schedule_at(float(i), lambda _: None, None)
            for i in range(Simulator.COMPACT_MIN_SIZE * 2)
        ]
        for handle in handles:
            sim.cancel(handle)
        assert sim.pending == 0
        # compaction keeps the graveyard bounded: entries below the
        # compaction threshold may linger, but never more
        assert len(sim._queue) < Simulator.COMPACT_MIN_SIZE
        fired = []
        sim.schedule_at(5.0, fired.append, "fresh")
        assert sim.pending == 1
        sim.run()
        assert fired == ["fresh"]
        assert sim.events_processed == 1

    def test_compaction_exactly_at_dead_gt_live_boundary(self):
        """Compaction triggers at dead == live + 1, not at dead == live."""
        sim = Simulator()
        half = Simulator.COMPACT_MIN_SIZE // 2
        live = [sim.schedule_at(float(i), lambda _: None, None) for i in range(half)]
        dead = [
            sim.schedule_at(1000.0 + i, lambda _: None, None) for i in range(half)
        ]
        for handle in dead[:-1]:
            sim.cancel(handle)
        assert len(sim._queue) == 2 * half
        assert sim.pending == half + 1
        sim.cancel(dead[-1])
        # dead == live exactly: the threshold is strict (dead must
        # OUTNUMBER live), so the graveyard is still queued
        assert len(sim._queue) == 2 * half
        assert sim.pending == half
        sim.cancel(live[0])
        # one more cancel tips dead past live: compaction fires and only
        # the surviving live entries remain stored
        assert len(sim._queue) == half - 1
        assert sim.pending == half - 1


class TestStep:
    def test_step_processes_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "a")
        sim.schedule_at(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]

    def test_step_on_empty_queue(self):
        assert Simulator().step() is False

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, fired.append, "no")
        sim.schedule_at(2.0, fired.append, "yes")
        sim.cancel(handle)
        assert sim.step() is True
        assert fired == ["yes"]
