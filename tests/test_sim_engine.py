"""Tests for the discrete-event simulation engine."""

from dataclasses import FrozenInstanceError

import pytest

from repro.errors import DeadlockError, Interrupt, SimulationError
from repro.sim import Resource, Simulator, Timeout


class TestSimulatorBasics:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_ordering(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_fifo_at_same_time(self):
        sim = Simulator()
        log = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == ["first", "second", "third"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(5.0, log.append, 5)
        sim.run(until=2.0)
        assert log == [1]
        assert sim.now == 2.0
        sim.run()
        assert log == [1, 5]


class TestProcesses:
    def test_timeout_advances_local_time(self):
        sim = Simulator()
        times = []

        def proc():
            yield Timeout(1.5)
            times.append(sim.now)
            yield Timeout(2.5)
            times.append(sim.now)

        sim.add_process(proc())
        sim.run_all()
        assert times == [1.5, 4.0]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-0.1)

    def test_process_result(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            return 42

        process = sim.add_process(proc())
        sim.run_all()
        assert process.finished
        assert process.result == 42

    def test_wait_on_event(self):
        sim = Simulator()
        event = sim.event("go")
        values = []

        def waiter():
            value = yield event
            values.append((sim.now, value))

        sim.add_process(waiter())
        sim.schedule(3.0, event.trigger, "payload")
        sim.run_all()
        assert values == [(3.0, "payload")]

    def test_wait_on_already_triggered_event(self):
        sim = Simulator()
        event = sim.event()
        event.trigger("early")
        values = []

        def waiter():
            value = yield event
            values.append(value)

        sim.add_process(waiter())
        sim.run_all()
        assert values == ["early"]

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()

    def test_wait_on_process_completion(self):
        sim = Simulator()

        def worker():
            yield Timeout(5.0)
            return "done"

        def watcher(target):
            result = yield target
            return (sim.now, result)

        worker_process = sim.add_process(worker())
        watcher_process = sim.add_process(watcher(worker_process))
        sim.run_all()
        assert watcher_process.result == (5.0, "done")

    def test_bad_yield_rejected(self):
        sim = Simulator()

        def proc():
            yield "not a command"

        sim.add_process(proc())
        with pytest.raises(SimulationError):
            sim.run_all()

    def test_deadlock_detection(self):
        sim = Simulator()
        event = sim.event("never")

        def stuck():
            yield event

        sim.add_process(stuck())
        with pytest.raises(DeadlockError):
            sim.run_all()


class TestResource:
    def test_mutual_exclusion_serializes(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        finish_times = []

        def worker():
            yield resource.request()
            yield Timeout(2.0)
            resource.release()
            finish_times.append(sim.now)

        for _ in range(3):
            sim.add_process(worker())
        sim.run_all()
        assert finish_times == [2.0, 4.0, 6.0]

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        finish_times = []

        def worker():
            yield resource.request()
            yield Timeout(2.0)
            resource.release()
            finish_times.append(sim.now)

        for _ in range(4):
            sim.add_process(worker())
        sim.run_all()
        assert finish_times == [2.0, 2.0, 4.0, 4.0]

    def test_statistics(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="bank")

        def worker():
            yield resource.request()
            yield Timeout(1.0)
            resource.release()

        for _ in range(3):
            sim.add_process(worker())
        sim.run_all()
        assert resource.grants == 3
        assert resource.waits == 2
        assert resource.wait_time == pytest.approx(1.0 + 2.0)
        assert resource.average_wait == pytest.approx(1.0)

    def test_release_without_hold_rejected(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_fifo_grant_order(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            yield resource.request()
            order.append(tag)
            yield Timeout(1.0)
            resource.release()

        for tag in range(5):
            sim.add_process(worker(tag))
        sim.run_all()
        assert order == [0, 1, 2, 3, 4]


class TestInterrupt:
    def test_interrupt_delivers_cause(self):
        sim = Simulator()
        log = []

        def victim():
            try:
                yield Timeout(10.0)
            except Interrupt as exc:
                log.append((exc.cause, sim.now))

        def attacker(process):
            yield Timeout(1.0)
            process.interrupt("preempted")

        process = sim.add_process(victim())
        sim.add_process(attacker(process))
        sim.run_all()
        assert log == [("preempted", 1.0)]

    def test_interrupted_wait_is_invalidated(self):
        sim = Simulator()
        resumes = []

        def victim():
            try:
                yield Timeout(5.0)
            except Interrupt:
                pass
            yield Timeout(10.0)   # the stale 5.0 wakeup must not land here
            resumes.append(sim.now)

        def attacker(process):
            yield Timeout(1.0)
            process.interrupt()

        process = sim.add_process(victim())
        sim.add_process(attacker(process))
        sim.run_all()
        assert resumes == [11.0]

    def test_uncaught_interrupt_finishes_process(self):
        sim = Simulator()

        def victim():
            yield Timeout(10.0)

        def attacker(process):
            yield Timeout(1.0)
            process.interrupt("die")

        process = sim.add_process(victim())
        sim.add_process(attacker(process))
        sim.run_all()
        assert process.finished
        assert process.interrupted
        assert process.result is None

    def test_interrupting_finished_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield Timeout(1.0)

        process = sim.add_process(quick())
        sim.run_all()
        process.interrupt()   # documented no-op
        sim.run_all()
        assert process.finished
        assert not process.interrupted

    def test_interrupt_while_waiting_on_event(self):
        sim = Simulator()
        event = sim.event("never")
        log = []

        def victim():
            try:
                yield event
            except Interrupt:
                log.append("interrupted")
                yield Timeout(1.0)
            log.append(sim.now)

        def attacker(process):
            yield Timeout(2.0)
            process.interrupt()

        process = sim.add_process(victim())
        sim.add_process(attacker(process))
        sim.run_all()
        assert log == ["interrupted", 3.0]


class TestTimeoutValue:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="negative timeout"):
            Timeout(-1e-9)

    def test_equality_hash_and_repr(self):
        assert Timeout(1.5) == Timeout(1.5)
        assert Timeout(1.5) != Timeout(2.0)
        assert Timeout(1.0) != 1.0
        assert hash(Timeout(1.5)) == hash(Timeout(1.5)) == hash((1.5,))
        assert len({Timeout(0.0), Timeout(0.0), Timeout(2.0)}) == 2
        assert repr(Timeout(1.5)) == "Timeout(delay=1.5)"

    def test_immutable(self):
        timeout = Timeout(1.0)
        with pytest.raises(FrozenInstanceError):
            timeout.delay = 2.0
        with pytest.raises(FrozenInstanceError):
            del timeout.delay
        assert timeout.delay == 1.0


class TestCancelUnderHorizon:
    def test_cancelled_head_neither_runs_nor_advances_clock(self):
        sim = Simulator()
        log = []
        sim.cancel(sim.schedule(1.0, log.append, "cancelled"))
        assert sim.run(until=5.0) == 0.0
        assert log == [] and sim.now == 0.0

    def test_cancelled_head_before_live_entry(self):
        sim = Simulator()
        log = []
        sim.cancel(sim.schedule(0.5, log.append, "cancelled"))
        sim.schedule(1.0, log.append, "live")
        sim.schedule(4.0, log.append, "later")
        assert sim.run(until=2.0) == 2.0
        assert log == ["live"]
        assert sim.run() == 4.0
        assert log == ["live", "later"]


class TestStaleWake:
    def test_event_wake_dropped_after_interrupt(self):
        sim = Simulator()
        event = sim.event("late")
        received = []

        def victim():
            try:
                yield event
            except Interrupt:
                received.append(("interrupted", sim.now))
            value = yield Timeout(5.0)
            received.append((value, sim.now))

        process = sim.add_process(victim())
        sim.schedule(1.0, process.interrupt)
        # Fires while the victim waits on its timeout: the wake queued
        # for the abandoned wait must not resume it early.
        sim.schedule(2.0, event.trigger, "stale")
        sim.run_all()
        assert received == [("interrupted", 1.0), (None, 6.0)]


class TestServeWake:
    @staticmethod
    def _engine(rows):
        from repro.serve import TraceWorkload
        from repro.serve.engine import ServeConfig, ServeEngine
        from repro.serve.fleet import ServiceBook

        class Book(ServiceBook):
            def active_power(self, kernel, tier):
                return 0.0

            def cold_cost(self, kernel, tier):
                return 0.0, 0.0

            def batch_service(self, batch, tier, droop=1.0):
                return 1e-3 * len(batch), 0.0

            def estimate(self, request):
                return 1e-3

            def host_time(self, request):
                return 1e-2

        return ServeEngine(ServeConfig(
            workload=TraceWorkload(rows), nodes=1, book=Book()))

    def test_two_fires_in_one_instant_resume_dispatcher_once(self):
        engine = self._engine([{"t": 0.5, "kernel": "matmul"}])
        wakes = []
        dispatch_ready = engine._dispatch_ready

        def counted():
            wakes.append(engine.simulator.now)
            dispatch_ready()

        engine._dispatch_ready = counted
        engine.simulator.schedule(0.2, engine.kick)
        engine.simulator.schedule(0.2, engine.kick)
        report = engine.run()
        assert report.completed == 1
        # Start, the double kick, the arrival, the completion.
        assert wakes == [0.0, 0.2, 0.5, 0.501]
        # The dispatcher and the arrivals are callbacks, not processes.
        assert [process.name for process in engine.simulator._processes] \
            == ["node0", "host-fallback"]

    def test_timed_arrival_submits_the_request_it_was_set_for(self):
        # 0.1 + (0.45 - 0.1) lands one ulp short of 0.45: re-checking
        # the delay when the timer fires would set a second timer.
        engine = self._engine([{"t": 0.1, "kernel": "matmul"},
                               {"t": 0.45, "kernel": "matmul"}])
        timers = []
        submitted = []
        schedule = engine.simulator.schedule
        submit = engine._submit

        def counted_schedule(delay, callback, *args):
            if callback == engine._arrive:
                timers.append(args)
            return schedule(delay, callback, *args)

        def counted_submit(request):
            submitted.append((engine.simulator.now, request.request_id))
            submit(request)

        engine.simulator.schedule = counted_schedule
        engine._submit = counted_submit
        assert engine.run().completed == 2
        assert timers == [(0,), (1,)]
        assert submitted == [(0.1, 0), (0.44999999999999996, 1)]

    def test_lost_wakeup_raises_naming_the_dispatcher(self):
        engine = self._engine([{"t": 0.5, "kernel": "matmul"}])
        engine._fire = lambda: None    # the arrival never wakes it
        with pytest.raises(DeadlockError) as info:
            engine.run()
        assert str(info.value) == (
            "simulation drained with blocked processes: "
            "['node0', 'host-fallback', 'serve.dispatcher']")
