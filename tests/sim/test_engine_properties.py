"""Property-based tests of the event engine against a reference executor."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulation


# Times from a small set as well as a continuum, so equal-time ties —
# the case the insertion-order tie-break decides — are common.
_times = st.one_of(
    st.floats(min_value=0.0, max_value=100.0), st.sampled_from([0.0, 1.0, 2.5])
)
_insertions = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["schedule", "schedule_at"]),
            st.lists(_times, min_size=1, max_size=1),
        ),
        st.tuples(st.just("schedule_batch"), st.lists(_times, max_size=8)),
    ),
    min_size=1,
    max_size=30,
)


class TestExecutionOrderProperty:
    @given(insertions=_insertions)
    @settings(max_examples=100)
    def test_matches_stable_sort_reference(self, insertions):
        """Events run exactly in (time, insertion-order) order, whichever
        of schedule / schedule_at / schedule_batch inserted them."""
        sim = Simulation(0)
        executed = []
        inserted = []  # (time, label) per event, in insertion order

        def log(label):
            executed.append((sim.now, label))

        for label, (api, times) in enumerate(insertions):
            if api == "schedule":
                sim.schedule(times[0], log, label)
            elif api == "schedule_at":
                sim.schedule_at(times[0], log, label)
            else:
                sim.schedule_batch(times, log, label)
            inserted.extend((t, label) for t in times)
        sim.run()
        # sorted() is stable: equal times keep their insertion order.
        assert executed == sorted(inserted, key=lambda event: event[0])

    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=50)
    def test_clock_is_monotone_through_nested_scheduling(self, seed, n):
        rng = np.random.default_rng(seed)
        sim = Simulation(0)
        timestamps = []

        def fire(depth):
            timestamps.append(sim.now)
            if depth > 0:
                sim.schedule(float(rng.exponential(1.0)), fire, depth - 1)

        for _ in range(n):
            sim.schedule(float(rng.exponential(1.0)), fire, 3)
        sim.run()
        assert timestamps == sorted(timestamps)
        assert len(timestamps) == n * 4

    @given(until=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=50)
    def test_run_until_never_executes_future_events(self, until):
        sim = Simulation(0)
        executed = []
        for d in np.linspace(0.0, 100.0, 40):
            sim.schedule(float(d), executed.append, float(d))
        sim.run(until=until)
        assert all(t <= until for t in executed)
        assert sim.now == until

    @given(
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=30)
    def test_two_identical_runs_identical_trace(self, seed):
        def run():
            sim = Simulation(seed)
            rng = sim.spawn_rng()
            log = []

            def fire(k):
                log.append((round(sim.now, 12), k))
                if k < 20:
                    sim.schedule(float(rng.exponential(0.3)), fire, k + 1)

            sim.schedule(0.0, fire, 0)
            sim.run()
            return log

        assert run() == run()
