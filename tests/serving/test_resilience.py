"""Tests for the resilience layer: deadlines, breakers, gate, chaos."""

import math
import threading
import time

import pytest

from repro.cancellation import (
    Deadline,
    active_deadline,
    deadline_scope,
)
from repro.core.penalty import PenaltyPlanner
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    PlanningTimeout,
    ServiceOverloadedError,
)
from repro.serving import (
    CircuitBreaker,
    FaultInjectingPlanner,
    InflightGate,
    RouteService,
)
from repro.serving.resilience import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    CIRCUIT_STATE_CODES,
    interruptible_sleep,
)

from .conftest import StubPlanner


class FakeClock:
    """Injectable monotonic clock for deterministic breaker tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_no_ambient_deadline_by_default(self):
        assert active_deadline() is None

    def test_scope_sets_and_restores(self):
        with deadline_scope(timeout_s=10.0) as deadline:
            assert active_deadline() is deadline
            assert not deadline.expired
            deadline.check()  # must not raise
        assert active_deadline() is None

    def test_expired_deadline_raises_planning_timeout(self):
        deadline = Deadline(timeout_s=0.001)
        time.sleep(0.01)
        assert deadline.expired
        with pytest.raises(PlanningTimeout):
            deadline.check()

    def test_cancel_expires_immediately(self):
        deadline = Deadline.after(3600.0)
        assert not deadline.expired
        deadline.cancel()
        assert deadline.cancelled
        with pytest.raises(PlanningTimeout):
            deadline.check()

    def test_unbounded_deadline_never_expires_until_cancelled(self):
        deadline = Deadline()
        assert deadline.remaining() == math.inf
        deadline.check()
        deadline.cancel()
        assert deadline.expired

    def test_remaining_decreases(self):
        deadline = Deadline.after(60.0)
        assert 0.0 < deadline.remaining() <= 60.0

    def test_scope_rejects_both_arguments(self):
        with pytest.raises(ConfigurationError):
            with deadline_scope(deadline=Deadline(), timeout_s=1.0):
                pass

    def test_nested_scopes_restore_outer(self):
        outer = Deadline.after(60.0)
        inner = Deadline.after(1.0)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is outer

    def test_planner_loop_honours_expired_deadline(self, grid10):
        planner = PenaltyPlanner(grid10)
        deadline = Deadline.after(60.0)
        deadline.cancel()
        with deadline_scope(deadline):
            with pytest.raises(PlanningTimeout):
                planner.plan(0, grid10.num_nodes - 1)

    def test_interruptible_sleep_cancels_promptly(self):
        deadline = Deadline.after(0.05)
        started = time.perf_counter()
        with deadline_scope(deadline):
            with pytest.raises(PlanningTimeout):
                interruptible_sleep(10.0)
        assert time.perf_counter() - started < 2.0

    def test_interruptible_sleep_without_deadline_completes(self):
        started = time.perf_counter()
        interruptible_sleep(0.05)
        assert time.perf_counter() - started >= 0.05


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker("A", failure_threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.state == CIRCUIT_CLOSED
        assert breaker.allow()

    def test_opens_at_threshold(self):
        breaker = CircuitBreaker("A", failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.record_failure() is True
        assert breaker.state == CIRCUIT_OPEN
        assert not breaker.allow()
        assert breaker.retry_in_s() > 0

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker("A", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CIRCUIT_CLOSED

    def test_half_open_after_cooldown_admits_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "A", failure_threshold=1, cooldown_s=30.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(30.0)
        assert breaker.state == CIRCUIT_HALF_OPEN
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # a second concurrent call is not

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "A", failure_threshold=1, cooldown_s=30.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CIRCUIT_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "A", failure_threshold=1, cooldown_s=30.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        assert breaker.record_failure() is True
        assert breaker.state == CIRCUIT_OPEN
        assert breaker.retry_in_s() == pytest.approx(30.0)
        snapshot = breaker.snapshot()
        assert snapshot["opened_total"] == 2

    def test_snapshot_shape(self):
        breaker = CircuitBreaker("A", failure_threshold=5)
        assert breaker.snapshot() == {
            "state": CIRCUIT_CLOSED,
            "consecutive_failures": 0,
            "failure_threshold": 5,
            "opened_total": 0,
            "retry_in_s": 0.0,
        }

    def test_state_codes_cover_all_states(self):
        assert set(CIRCUIT_STATE_CODES) == {
            CIRCUIT_CLOSED, CIRCUIT_HALF_OPEN, CIRCUIT_OPEN,
        }

    def test_bad_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker("A", failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker("A", cooldown_s=0.0)


class TestInflightGate:
    def test_sheds_above_the_limit(self):
        gate = InflightGate(limit=2, retry_after_s=2.5)
        gate.acquire()
        gate.acquire()
        with pytest.raises(ServiceOverloadedError) as excinfo:
            gate.acquire()
        assert excinfo.value.in_flight == 2
        assert excinfo.value.limit == 2
        assert excinfo.value.retry_after_s == 2.5
        gate.release()
        gate.acquire()  # capacity freed by the release

    def test_unlimited_gate_still_counts(self):
        gate = InflightGate(limit=None)
        with gate:
            assert gate.in_flight == 1
        assert gate.in_flight == 0
        assert gate.shed_total == 0

    def test_snapshot_counts_sheds(self):
        gate = InflightGate(limit=1)
        with gate:
            with pytest.raises(ServiceOverloadedError):
                gate.acquire()
        assert gate.snapshot() == {
            "in_flight": 0, "limit": 1, "shed_total": 1,
        }

    def test_unmatched_release_rejected(self):
        with pytest.raises(ConfigurationError):
            InflightGate().release()

    def test_bad_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            InflightGate(limit=0)
        with pytest.raises(ConfigurationError):
            InflightGate(retry_after_s=0.0)


class TestFaultInjectingPlanner:
    def test_deterministic_per_seed(self, grid10):
        def schedule():
            planner = FaultInjectingPlanner(
                StubPlanner(grid10, "X"),
                seed=7, p_error=0.3, p_hang=0.0, p_empty=0.3,
            )
            outcomes = []
            for _ in range(20):
                try:
                    routes = planner.plan(0, grid10.num_nodes - 1)
                    outcomes.append("empty" if not len(routes) else "ok")
                except RuntimeError:
                    outcomes.append("error")
            return outcomes, dict(planner.injected)

        first, first_counts = schedule()
        second, second_counts = schedule()
        assert first == second
        assert first_counts == second_counts
        assert first_counts["error"] > 0
        assert first_counts["empty"] > 0
        assert first_counts["clean"] > 0

    def test_always_error(self, grid10):
        planner = FaultInjectingPlanner(
            StubPlanner(grid10, "X"), p_error=1.0
        )
        with pytest.raises(RuntimeError, match="injected fault"):
            planner.plan(0, grid10.num_nodes - 1)
        assert planner.injected["error"] == 1

    def test_hang_is_cancellable_under_a_deadline(self, grid10):
        planner = FaultInjectingPlanner(
            StubPlanner(grid10, "X"), p_hang=1.0, hang_s=10.0
        )
        with deadline_scope(Deadline.after(0.05)):
            with pytest.raises(PlanningTimeout):
                planner.plan(0, grid10.num_nodes - 1)
        assert planner.injected["hang"] == 1

    def test_clean_path_delegates(self, grid10):
        inner = StubPlanner(grid10, "X")
        planner = FaultInjectingPlanner(inner)
        routes = planner.plan(0, grid10.num_nodes - 1)
        assert len(routes) == 3
        assert inner.calls == 1
        assert planner.injected == {
            "error": 0, "hang": 0, "empty": 0, "clean": 1,
        }

    def test_bad_probabilities_rejected(self, grid10):
        inner = StubPlanner(grid10, "X")
        with pytest.raises(ConfigurationError):
            FaultInjectingPlanner(inner, p_error=1.2)
        with pytest.raises(ConfigurationError):
            FaultInjectingPlanner(inner, p_error=0.6, p_hang=0.6)
        with pytest.raises(ConfigurationError):
            FaultInjectingPlanner(inner, hang_s=0.0)


class HangingPlanner(StubPlanner):
    """Hangs far past any query deadline, but cooperatively."""

    def __init__(self, network, name, hang_s=5.0):
        super().__init__(network, name)
        self.hang_s = hang_s
        self.hanging = True

    def _plan_routes(self, source, target):
        if self.hanging:
            self.calls += 1
            interruptible_sleep(self.hang_s)
        return super()._plan_routes(source, target)


class TestServiceResilience:
    def test_hanging_planner_frees_its_worker(
        self, grid10, stub_planners, grid_query
    ):
        """A cooperative hang unwinds at the query deadline, so every
        query returns near the timeout.  Until B's circuit opens, the
        hang costs the approaches after it (C and D are not started and
        their breakers stay closed); once it opens, they serve again."""
        planners = dict(stub_planners)
        planners["Plateaus"] = HangingPlanner(grid10, "Plateaus")
        from repro.demo.query_processor import QueryProcessor

        processor = QueryProcessor(grid10, planners)
        service = RouteService(
            processor,
            cache_size=0,
            timeout_s=0.2,
            breaker_threshold=2,
            breaker_cooldown_s=60.0,
        )
        try:
            served = []
            for _ in range(4):
                started = time.perf_counter()
                result = service.query(grid_query)
                elapsed = time.perf_counter() - started
                assert elapsed < 2.0, "query latency not bounded"
                served.append(list(result.route_sets))
                assert "B" in result.errors
            assert served == [["A"], ["A"], ["A", "C", "D"], ["A", "C", "D"]]
            assert planners["Plateaus"].calls == 2
            counters = service.metrics_payload()["counters"]
            assert counters["plan.timeouts.Plateaus"] == 2
            assert counters["plan.rejected.Plateaus"] == 2
            assert counters["plan.timeouts.Dissimilarity"] == 2
            assert counters["plan.timeouts.Penalty"] == 2
            assert service.open_circuits() == ["Plateaus"]
        finally:
            service.close()

    def test_circuit_opens_then_fast_fails_then_recovers(
        self, grid_processor, grid_query, stub_planners
    ):
        stub_planners["Plateaus"].fail = True
        clock = FakeClock()
        service = RouteService(
            grid_processor,
            cache_size=0,
            breaker_threshold=2,
            breaker_cooldown_s=30.0,
            breaker_clock=clock,
        )
        try:
            for _ in range(2):
                service.query(grid_query)
            snapshot = service.circuits_payload()["Plateaus"]
            assert snapshot["state"] == CIRCUIT_OPEN
            assert service.open_circuits() == ["Plateaus"]

            # Open circuit: the planner is not even invoked.
            calls = stub_planners["Plateaus"].calls
            result = service.query(grid_query)
            assert stub_planners["Plateaus"].calls == calls
            assert "CircuitOpenError" in result.errors["B"]
            counters = service.metrics_payload()["counters"]
            assert counters["plan.rejected.Plateaus"] == 1
            assert counters["circuit.opened.Plateaus"] == 1

            # After the cooldown the half-open probe heals the circuit;
            # the injected clock advances past it with no real sleep.
            stub_planners["Plateaus"].fail = False
            clock.advance(31.0)
            result = service.query(grid_query)
            assert "B" in result.route_sets
            snapshot = service.circuits_payload()["Plateaus"]
            assert snapshot["state"] == CIRCUIT_CLOSED
            assert service.open_circuits() == []
        finally:
            service.close()

    def test_unstarted_approach_does_not_take_the_half_open_probe(
        self, grid10, stub_planners, grid_query
    ):
        """B and C are both half-open and B's probe hangs past the
        deadline: C is not started that query, so its probe must still
        be free and C is probed (and heals) on the next query."""
        clock = FakeClock()
        planners = dict(stub_planners)
        planners["Plateaus"] = HangingPlanner(grid10, "Plateaus")
        planners["Plateaus"].hanging = False
        from repro.demo.query_processor import QueryProcessor

        processor = QueryProcessor(grid10, planners)
        service = RouteService(
            processor,
            cache_size=0,
            timeout_s=0.2,
            breaker_threshold=1,
            breaker_cooldown_s=30.0,
            breaker_clock=clock,
        )
        try:
            planners["Plateaus"].fail = True
            planners["Dissimilarity"].fail = True
            service.query(grid_query)
            assert service.open_circuits() == ["Dissimilarity", "Plateaus"]

            planners["Plateaus"].fail = False
            planners["Plateaus"].hanging = True
            planners["Dissimilarity"].fail = False
            clock.advance(31.0)
            result = service.query(grid_query)
            assert list(result.route_sets) == ["A"]
            assert "TimeoutError" in result.errors["B"]
            assert "exceeded" in result.errors["B"]
            assert "expired before the planner started" in result.errors["C"]
            circuits = service.circuits_payload()
            assert circuits["Plateaus"]["state"] == CIRCUIT_OPEN
            assert circuits["Dissimilarity"]["state"] == CIRCUIT_HALF_OPEN

            calls = planners["Dissimilarity"].calls
            result = service.query(grid_query)
            assert planners["Dissimilarity"].calls == calls + 1
            assert list(result.route_sets) == ["A", "C", "D"]
            assert "CircuitOpenError" in result.errors["B"]
            circuits = service.circuits_payload()
            assert circuits["Dissimilarity"]["state"] == CIRCUIT_CLOSED
            assert service.open_circuits() == ["Plateaus"]
        finally:
            service.close()

    def test_query_errors_do_not_trip_the_breaker(
        self, grid_processor, grid_query
    ):
        service = RouteService(grid_processor, breaker_threshold=1)
        try:
            from repro.serving import RouteQuery

            bad = RouteQuery(
                grid_query.source_lat, grid_query.source_lon,
                grid_query.target_lat, grid_query.target_lon,
                approaches=("Nope",),
            )
            from repro.exceptions import QueryError

            with pytest.raises(QueryError):
                service.query(bad)
            assert service.open_circuits() == []
        finally:
            service.close()

    def test_overload_burst_sheds_with_503_semantics(
        self, grid10, stub_planners, grid_query
    ):
        stub_planners["Penalty"].delay_s = 0.5
        from repro.demo.query_processor import QueryProcessor

        processor = QueryProcessor(grid10, stub_planners)
        service = RouteService(
            processor, cache_size=0, timeout_s=10.0, max_inflight=1
        )
        results = {}

        def in_flight():
            results["first"] = service.query(grid_query)

        try:
            thread = threading.Thread(target=in_flight)
            thread.start()
            # Wait until the slow query is actually admitted, so the
            # burst below deterministically overlaps it.
            waited_until = time.monotonic() + 5.0
            while (
                service._gate.in_flight < 1
                and time.monotonic() < waited_until
            ):
                time.sleep(0.005)
            assert service._gate.in_flight == 1, "query never admitted"
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.query(grid_query)
            thread.join()
            shed = excinfo.value
            assert shed.retry_after_s > 0
            assert "overloaded" in str(shed)
            # The admitted query still completed normally.
            assert sorted(results["first"].route_sets) == [
                "A", "B", "C", "D",
            ]
            payload = service.metrics_payload()
            assert payload["admission"]["shed_total"] >= 1
            assert payload["admission"]["in_flight"] == 0
            assert payload["counters"]["queries.shed"] >= 1
        finally:
            service.close()

    def test_close_is_idempotent(self, grid_processor, grid_query):
        """Planning runs on the caller's thread, so closing releases
        nothing: it may be repeated and the service still answers."""
        service = RouteService(grid_processor)
        service.close()
        service.close()
        with service:
            result = service.query(grid_query)
        assert list(result.route_sets) == ["A", "B", "C", "D"]

    def test_circuit_open_error_message(self):
        error = CircuitOpenError("Penalty", 12.0)
        assert "Penalty" in str(error)
        assert "12" in str(error)
