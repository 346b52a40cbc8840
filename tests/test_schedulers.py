"""Baseline scheduler policies: random walk, POS, PCT."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench
from repro.runtime import program, run_program
from repro.runtime.executor import Candidate
from repro.runtime.thread import ThreadState
from repro.runtime.tso import TsoExecutor
from repro.schedulers import PctPolicy, PosPolicy, RandomWalkPolicy
from repro.schedulers.pos import _WRITEY

from tests.conftest import make_reorder


class TestRandomWalk:
    def test_deterministic_per_seed(self, reorder3):
        a = run_program(reorder3, RandomWalkPolicy(5))
        b = run_program(reorder3, RandomWalkPolicy(5))
        assert a.schedule == b.schedule

    def test_seeds_vary_schedules(self, reorder3):
        schedules = {tuple(run_program(reorder3, RandomWalkPolicy(s)).schedule) for s in range(10)}
        assert len(schedules) > 1

    def test_finds_shallow_race(self, racy_counter):
        assert any(run_program(racy_counter, RandomWalkPolicy(s)).crashed for s in range(300))


class TestPos:
    def test_deterministic_per_seed(self, reorder3):
        a = run_program(reorder3, PosPolicy(5))
        b = run_program(reorder3, PosPolicy(5))
        assert a.schedule == b.schedule

    def test_explores_multiple_rf_classes(self, reorder3):
        signatures = {run_program(reorder3, PosPolicy(s)).trace.rf_signature() for s in range(40)}
        assert len(signatures) >= 3

    def test_finds_small_reorder_sometimes(self):
        prog = make_reorder(2)
        assert any(run_program(prog, PosPolicy(s)).crashed for s in range(500))

    def test_misses_large_reorder(self):
        prog = make_reorder(30)
        assert not any(run_program(prog, PosPolicy(s)).crashed for s in range(200))

    def test_score_reset_on_races(self, reorder3):
        # Internal behaviour: after running, the score table is populated.
        policy = PosPolicy(0)
        run_program(reorder3, policy)
        assert policy._scores  # scores were drawn during the run


class TestPct:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            PctPolicy(depth=0)

    def test_deterministic_per_seed(self, reorder3):
        a = run_program(reorder3, PctPolicy(depth=3, seed=5))
        b = run_program(reorder3, PctPolicy(depth=3, seed=5))
        assert a.schedule == b.schedule

    def test_length_estimate_learns(self, reorder3):
        policy = PctPolicy(depth=3, seed=0, initial_length_estimate=4)
        result = run_program(reorder3, policy)
        assert policy.length_estimate >= result.steps

    def test_finds_depth_one_bug(self):
        """A bug needing a single ordering constraint: PCT(3) finds it."""

        @program("t/depth1", bug_kinds=("assertion",))
        def depth1(t):
            def writer(t, x):
                yield t.write(x, 1)

            x = t.var("x", 0)
            handle = yield t.spawn(writer, x)
            value = yield t.read(x)
            yield t.join(handle)
            t.require(value == 0, "read raced ahead of the writer")

        policy = PctPolicy(depth=3, seed=0)
        assert any(run_program(depth1, policy).crashed for _ in range(100))

    def test_struggles_with_deep_reorder(self):
        """reorder_20 has depth > 20: far beyond PCT(3)'s guarantee."""
        prog = make_reorder(20)
        policy = PctPolicy(depth=3, seed=0)
        hits = sum(run_program(prog, policy).crashed for _ in range(150))
        assert hits <= 2

    def test_priorities_assigned_above_change_point_band(self, reorder3):
        policy = PctPolicy(depth=3, seed=1)
        run_program(reorder3, policy)
        # Base priorities live in [depth, depth+1); demoted ones below 1.
        assert all(p < 1.0 or p >= 3.0 for p in policy._priorities.values())


# -- the arg-max loops against their reference ``max(key=...)`` forms ------

#: Candidate lists: tids may repeat (a TSO flush beside the thread's own
#: pending op) and kinds mix program events with flushes.
_candidate_specs = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from(["read", "write", "lock", "flush"])),
    min_size=1,
    max_size=12,
)


def _candidates(specs):
    return [Candidate(tid, kind, f"var:x{tid % 3}", f"f:{tid}") for tid, kind in specs]


@settings(max_examples=200, deadline=None)
@given(
    specs=_candidate_specs,
    seed=st.integers(0, 2**32),
    depth=st.integers(1, 5),
    known=st.dictionaries(st.integers(0, 7), st.integers(0, 4), max_size=8),
)
def test_pct_choose_matches_reference_max(specs, seed, depth, known):
    candidates = _candidates(specs)
    policy = PctPolicy(depth=depth, seed=seed)
    reference = PctPolicy(depth=depth, seed=seed)
    for p in (policy, reference):
        p.begin(None)
        # Some threads already hold a priority (change-point values, ties).
        p._priorities.update({tid: float(rank) / depth for tid, rank in known.items()})

    def priority(tid):
        if tid not in reference._priorities:
            reference._priorities[tid] = reference.depth + reference.rng.random()
        return reference._priorities[tid]

    chosen = policy.choose(candidates, None)
    expected = max(candidates, key=lambda c: priority(c.tid))
    assert chosen is expected
    assert policy.rng.getstate() == reference.rng.getstate()
    assert list(policy._priorities.items()) == list(reference._priorities.items())


def _execution(step_counts):
    threads = []
    for tid, count in enumerate(step_counts):
        thread = ThreadState(tid, f"t{tid}", None)
        thread.step_count = count
        threads.append(thread)
    return SimpleNamespace(threads=threads)


@settings(max_examples=200, deadline=None)
@given(
    specs=_candidate_specs,
    seed=st.integers(0, 2**32),
    step_counts=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    drawn=st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_pos_choose_matches_reference_max(specs, seed, step_counts, drawn):
    candidates = _candidates(specs)
    execution = _execution(step_counts)
    policy = PosPolicy(seed)
    reference = PosPolicy(seed)
    for p in (policy, reference):
        p.begin(execution)
        # Some pending events already hold a score from earlier steps.
        for candidate, has_score in zip(candidates, drawn):
            if has_score:
                p.score_of(candidate, execution)
    chosen = policy.choose(candidates, execution)
    expected = max(candidates, key=lambda c: reference.score_of(c, execution))
    assert chosen is expected
    assert policy.rng.getstate() == reference.rng.getstate()
    assert list(policy._scores.items()) == list(reference._scores.items())


class _AllThreadsResetCheck(PosPolicy):
    """POS that checks every score reset against a walk over all threads."""

    def notify(self, event, execution):
        expected = dict(self._scores)
        is_writeish = event.is_write or event.kind == "flush"
        if is_writeish or event.is_read:
            for thread in execution.threads:
                pending = thread.pending
                if pending is None or thread.tid == event.tid:
                    continue
                if pending.location != event.location:
                    continue
                if is_writeish or pending.category in _WRITEY:
                    expected.pop((thread.tid, thread.step_count, pending.kind), None)
        super().notify(event, execution)
        assert list(self._scores.items()) == list(expected.items())


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["CS/twostage", "CS/reorder_5", "CS/account", "CS/token_ring", "SafeStack"]),
    seed=st.integers(0, 2**32),
    tso=st.booleans(),
)
def test_pos_notify_over_unfinished_threads_matches_all_threads(name, seed, tso):
    prog = bench.get(name)
    policy = _AllThreadsResetCheck(seed)
    if tso:
        TsoExecutor(prog, policy, max_steps=prog.max_steps or 4000).run()
    else:
        run_program(prog, policy, max_steps=prog.max_steps or 4000)

