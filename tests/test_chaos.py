"""The one chaos runner and its checker, over combinations of fault axes.

Hypothesis draws :class:`ChaosPlan` combinations of upstream faults,
crash points, incident storms, overload and engine backends; every
combination must come back with ``check(...) == []``.  Tamper tests
prove the checker is not vacuous: an unsound served interval, a
diverging replay, a shed response gone missing and an unsound
stale-served interval are each reported.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.intervals import Interval
from repro.resilience import CrashPoint, FaultProfile, IncidentChaos, OverloadChaos
from repro.server.scheduling import Outcome, SchedulerConfig
from repro.simulation.chaos import CRASH_POINTS, ChaosPlan, check, run_chaos
from repro.simulation.load import LoadProfile, Phase
from repro.trajectories.datasets import load_workload


@pytest.fixture(scope="module")
def workload():
    return load_workload("oldenburg", scale=0.25)


#: One shard with a short queue, so a burst sheds, serves stale and widens.
TIGHT = SchedulerConfig(
    shards=1, queue_capacity=4, deadline_budget_s=2.0, tenant_rate_per_s=6.0, tenant_burst=8.0
)
LOAD = LoadProfile(phases=(Phase(1.0, 12.0), Phase(1.0, 12.0)))
BURST = OverloadChaos(burst_multiplier=4.0, burst_start_s=0.2, burst_duration_s=1.5)
SLOW = replace(BURST, slow_shard=0, slow_delay_s=0.2)

overloads = st.sampled_from(
    [
        {},
        {"load": LOAD, "overload": BURST, "scheduler": TIGHT},
        {"load": LOAD, "overload": SLOW, "scheduler": TIGHT},
    ]
)

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
plans = st.tuples(plans, overloads).map(lambda pair: replace(pair[0], **pair[1]))


@settings(max_examples=8, deadline=None)
@given(plan=plans)
# Both overload plans run every time; the second lands an incident batch
# at its phase boundary.
@example(plan=ChaosPlan(trips=1, load=LOAD, overload=BURST, scheduler=TIGHT))
@example(
    plan=ChaosPlan(
        trips=1,
        load=LOAD,
        overload=SLOW,
        scheduler=TIGHT,
        incidents=IncidentChaos(batches=1, batch_size=1),
    )
)
def test_every_combination_is_sound(workload, plan):
    run = run_chaos(workload, plan)
    assert check(workload, run) == []
    assert len(run.recoveries) == len(plan.crash_points)
    assert all(recovery.info is not None for recovery in run.recoveries)
    if plan.load is not None:
        expected_waves = len(plan.load.phases)
    else:
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


@pytest.fixture(scope="module")
def overloaded(workload):
    run = run_chaos(workload, ChaosPlan(trips=2, load=LOAD, overload=BURST, scheduler=TIGHT))
    assert check(workload, run) == []
    return run


def _without(run, wave, responses):
    waves = tuple(replace(w, responses=responses) if w is wave else w for w in run.waves)
    return replace(run, waves=waves)


def test_missing_shed_response_is_reported(workload, overloaded):
    wave, shed = next(
        (wave, response)
        for wave in overloaded.waves
        for response in wave.responses
        if response.outcome.value.startswith("shed-")
    )
    run = _without(overloaded, wave, tuple(r for r in wave.responses if r is not shed))
    violations = check(workload, run)
    assert len(violations) == 1
    assert violations[0].startswith("books: ") and shed.outcome.value in violations[0]


def test_unsound_stale_interval_is_reported(workload, overloaded):
    wave, stale = next(
        (wave, response)
        for wave in overloaded.waves
        for response in wave.responses
        if response.outcome is Outcome.STALE
        and any(not table.is_adapted for table in response.tables)
    )
    table = next(t for t in stale.tables if not t.is_adapted)
    broken = replace(table.entries[0], sustainable=Interval(2.0, 2.0))
    tables = tuple(
        replace(table, entries=(broken, *table.entries[1:])) if t is table else t
        for t in stale.tables
    )
    responses = tuple(
        replace(stale, tables=tables) if r is stale else r for r in wave.responses
    )
    violations = check(workload, _without(overloaded, wave, responses))
    assert len(violations) == 1
    assert violations[0].startswith("oracle: ") and "sustainable" in violations[0]
