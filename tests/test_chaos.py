"""The one chaos runner and its checker, over combinations of fault axes.

Hypothesis draws :class:`ChaosPlan` combinations of upstream faults,
crash points, incident storms and engine backends; every combination
must come back with ``check(...) == []``.  Two tamper tests prove the
checker is not vacuous: an unsound served interval and a diverging
replay are each reported.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import Interval
from repro.resilience import CrashPoint, FaultProfile, IncidentChaos
from repro.simulation.chaos import CRASH_POINTS, ChaosPlan, check, run_chaos
from repro.trajectories.datasets import load_workload


@pytest.fixture(scope="module")
def workload():
    return load_workload("oldenburg", scale=0.25)


plans = st.builds(
    ChaosPlan,
    trips=st.just(1),
    faults=st.sampled_from([0.0, 0.3]).map(lambda rate: FaultProfile(error_rate=rate)),
    crash_points=st.one_of(
        st.just(()),
        # Occurrence 2: the journal's first append is the session header,
        # written before the session runs.
        st.sampled_from(CRASH_POINTS).map(lambda point: (CrashPoint(point, 2),)),
    ),
    incidents=st.one_of(
        st.none(),
        st.integers(1, 3).map(lambda n: IncidentChaos(batches=n, batch_size=1)),
    ),
    backend=st.sampled_from(["dijkstra", "ch"]),
)


@settings(max_examples=8, deadline=None)
@given(plan=plans)
def test_every_combination_is_sound(workload, plan):
    run = run_chaos(workload, plan)
    assert check(workload, run) == []
    assert len(run.recoveries) == len(plan.crash_points)
    assert all(recovery.info is not None for recovery in run.recoveries)
    expected_waves = plan.incidents.batches if plan.incidents else 1
    assert len(run.waves) == expected_waves


def test_unsound_interval_is_reported(workload):
    run = run_chaos(workload, ChaosPlan(trips=1))
    wave = run.waves[0]
    first = wave.responses[0]
    table = next(t for t in first.tables if not t.is_adapted)
    # No oracle value is 2: the normalised components live in [0, 1].
    broken = replace(table.entries[0], sustainable=Interval(2.0, 2.0))
    tampered = replace(table, entries=(broken, *table.entries[1:]))
    tables = tuple(tampered if t is table else t for t in first.tables)
    responses = (replace(first, tables=tables), *wave.responses[1:])
    run = replace(run, waves=(replace(wave, responses=responses),))
    violations = check(workload, run)
    assert len(violations) == 1
    assert violations[0].startswith("oracle: ") and "sustainable" in violations[0]


def test_diverging_replay_is_reported(workload):
    plan = ChaosPlan(trips=1, crash_points=(CrashPoint("mid-segment", 2),))
    run = run_chaos(workload, plan)
    recovery = run.recoveries[0]
    assert recovery.info is not None
    run = replace(run, recoveries=(replace(recovery, tables=recovery.tables[:-1]),))
    assert [v.split(":")[0] for v in check(workload, run)] == ["replay"]
