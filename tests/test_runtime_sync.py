"""Synchronization semantics: mutexes, condvars, semaphores, barriers,
deadlock detection and the memory-safety oracles."""

from __future__ import annotations

import dataclasses
from collections import deque

import pytest

from repro.runtime import program, run_program
from repro.runtime.errors import SchedulerError
from repro.runtime.tso import FLUSH_KIND, TsoExecutor
from repro.schedulers import RandomWalkPolicy, ReplayPolicy
from repro.schedulers.base import SchedulerPolicy


class ScriptedPolicy(SchedulerPolicy):
    """Follow an explicit thread-id script, then fall back to lowest tid.

    A deterministic adversarial scheduler: the script encodes the exact
    worst-case interleaving a test wants to force.  Script entries naming a
    thread that is not currently enabled are skipped."""

    def __init__(self, script):
        self._script = deque(script)

    def choose(self, candidates, execution):
        while self._script:
            tid = self._script.popleft()
            for candidate in candidates:
                if candidate.tid == tid:
                    return candidate
        return min(candidates, key=lambda c: c.tid)


def all_schedules_pass(prog, seeds=30, **kwargs):
    return all(not run_program(prog, RandomWalkPolicy(s), **kwargs).crashed for s in range(seeds))


def some_schedule_crashes(prog, seeds=300, **kwargs):
    return any(run_program(prog, RandomWalkPolicy(s), **kwargs).crashed for s in range(seeds))


class TestMutex:
    def test_mutual_exclusion_holds(self, racefree):
        assert all_schedules_pass(racefree, seeds=50)

    def test_self_deadlock_on_relock(self):
        @program("t/selflock", bug_kinds=("deadlock",))
        def prog(t):
            m = t.mutex("m")
            yield t.lock(m)
            yield t.lock(m)

        result = run_program(prog, RandomWalkPolicy(0))
        assert result.outcome == "deadlock"

    def test_trylock_fails_without_blocking(self):
        @program("t/trylock")
        def prog(t):
            def holder(t, m, flag):
                yield t.lock(m)
                yield t.write(flag, 1)
                yield t.pause()
                yield t.unlock(m)

            m = t.mutex("m")
            flag = t.var("flag", 0)
            handle = yield t.spawn(holder, m, flag)
            while True:
                held = yield t.read(flag)
                if held:
                    break
            got = yield t.trylock(m)
            t.require(not got, "trylock succeeded on a held mutex")
            yield t.join(handle)

        result = run_program(prog, RandomWalkPolicy(3), max_steps=500)
        assert not result.crashed and not result.truncated


class TestCondVar:
    def test_wait_signal_handshake(self):
        @program("t/handshake")
        def prog(t):
            def consumer(t, m, c, ready, data):
                yield t.lock(m)
                is_ready = yield t.read(ready)
                if not is_ready:
                    yield t.wait(c, m)
                value = yield t.read(data)
                yield t.unlock(m)
                t.require(value == 42, f"consumed {value}")

            def producer(t, m, c, ready, data):
                yield t.lock(m)
                yield t.write(data, 42)
                yield t.write(ready, 1)
                yield t.signal(c)
                yield t.unlock(m)

            m = t.mutex("m")
            c = t.cond("c")
            ready = t.var("ready", 0)
            data = t.var("data", 0)
            h1 = yield t.spawn(consumer, m, c, ready, data)
            h2 = yield t.spawn(producer, m, c, ready, data)
            yield t.join(h1)
            yield t.join(h2)

        # Correctly locked handshake: no schedule crashes or deadlocks.
        assert all_schedules_pass(prog, seeds=60)

    def test_lost_wakeup_deadlocks(self):
        @program("t/lostwakeup", bug_kinds=("deadlock",))
        def prog(t):
            def waiter(t, m, c, ready):
                yield t.lock(m)
                is_ready = yield t.read(ready)
                if not is_ready:
                    yield t.wait(c, m)
                yield t.unlock(m)

            def signaller(t, c, ready):
                # Signals without the mutex: the wakeup can be lost.
                yield t.write(ready, 1)
                yield t.signal(c)

            m = t.mutex("m")
            c = t.cond("c")
            ready = t.var("ready", 0)
            h1 = yield t.spawn(waiter, m, c, ready)
            h2 = yield t.spawn(signaller, c, ready)
            yield t.join(h1)
            yield t.join(h2)

        outcomes = {run_program(prog, RandomWalkPolicy(s)).outcome for s in range(200)}
        assert "deadlock" in outcomes  # the lost wakeup hangs the waiter
        assert None in outcomes  # and other schedules complete fine

    def test_broadcast_wakes_all_waiters(self):
        @program("t/broadcast")
        def prog(t):
            def waiter(t, m, c, go):
                yield t.lock(m)
                ready = yield t.read(go)
                if not ready:
                    yield t.wait(c, m)
                yield t.unlock(m)

            def waker(t, m, c, go):
                yield t.lock(m)
                yield t.write(go, 1)
                yield t.broadcast(c)
                yield t.unlock(m)

            m = t.mutex("m")
            c = t.cond("c")
            go = t.var("go", 0)
            handles = []
            for _ in range(3):
                handle = yield t.spawn(waiter, m, c, go)
                handles.append(handle)
            w = yield t.spawn(waker, m, c, go)
            for handle in [*handles, w]:
                yield t.join(handle)

        assert all_schedules_pass(prog, seeds=60)

    def test_signal_wakes_waiters_in_fifo_order(self):
        from repro.schedulers.base import SchedulerPolicy

        class PreferLowestTid(SchedulerPolicy):
            """Deterministic: always run the lowest enabled thread id."""

            def choose(self, candidates, execution):
                return min(candidates, key=lambda c: c.tid)

        @program("t/fifo")
        def prog(t):
            def waiter(t, m, c, order, me):
                yield t.lock(m)
                yield t.wait(c, m)
                position = yield t.read(order)
                yield t.write(order, position * 10 + me)
                yield t.unlock(m)

            def waker(t, m, c, order):
                yield t.signal(c)
                yield t.signal(c)
                sequence = yield t.read(order)
                t.require(sequence == 12, f"wakeup order {sequence} not FIFO")

            m = t.mutex("m")
            c = t.cond("c")
            order = t.var("order", 0)
            # Lowest-tid-first scheduling runs waiter 1 (tid 1) into its wait
            # first, then waiter 2 (tid 2), and only then the waker (tid 3):
            # FIFO wakeup must then record 1 before 2.
            h1 = yield t.spawn(waiter, m, c, order, 1)
            h2 = yield t.spawn(waiter, m, c, order, 2)
            h3 = yield t.spawn(waker, m, c, order)
            yield t.join(h1)
            yield t.join(h2)
            yield t.join(h3)

        result = run_program(prog, PreferLowestTid())
        assert not result.crashed, result.trace.failure


class TestSemaphore:
    def test_acquire_blocks_at_zero(self):
        @program("t/sem", bug_kinds=("deadlock",))
        def prog(t):
            s = t.sem("s", 0)
            yield t.acquire(s)

        assert run_program(prog, RandomWalkPolicy(0)).outcome == "deadlock"

    def test_release_enables_acquire(self):
        @program("t/semok")
        def prog(t):
            def releaser(t, s):
                yield t.release(s)

            s = t.sem("s", 0)
            yield t.spawn(releaser, s)
            yield t.acquire(s)

        assert all_schedules_pass(prog, seeds=20)

    def test_counting_semantics(self):
        @program("t/semcount")
        def prog(t):
            def worker(t, s, active, peak):
                yield t.acquire(s)
                now = yield t.add(active, 1)
                top = yield t.read(peak)
                if now + 1 > top:
                    yield t.write(peak, now + 1)
                yield t.add(active, -1)
                yield t.release(s)

            s = t.sem("s", 2)
            active = t.var("active", 0)
            peak = t.var("peak", 0)
            handles = []
            for _ in range(4):
                handle = yield t.spawn(worker, s, active, peak)
                handles.append(handle)
            for handle in handles:
                yield t.join(handle)
            top = yield t.read(peak)
            t.require(top <= 2, f"semaphore admitted {top} workers")

        assert all_schedules_pass(prog, seeds=60)


class TestBarrier:
    def test_barrier_releases_all_parties(self):
        @program("t/barrier")
        def prog(t):
            def worker(t, b, before, after):
                yield t.add(before, 1)
                yield t.arrive(b)
                count = yield t.read(before)
                t.require(count == 3, f"passed barrier with only {count} arrivals")
                yield t.add(after, 1)

            b = t.barrier("b", 3)
            before = t.var("before", 0)
            after = t.var("after", 0)
            handles = []
            for _ in range(3):
                handle = yield t.spawn(worker, b, before, after)
                handles.append(handle)
            for handle in handles:
                yield t.join(handle)
            done = yield t.read(after)
            t.require(done == 3)

        assert all_schedules_pass(prog, seeds=60)

    def test_underfull_barrier_deadlocks(self):
        @program("t/barrier_dl", bug_kinds=("deadlock",))
        def prog(t):
            b = t.barrier("b", 2)
            yield t.arrive(b)

        assert run_program(prog, RandomWalkPolicy(0)).outcome == "deadlock"


class TestDeadlockDetection:
    def test_abba_deadlocks_under_some_schedule(self, abba_deadlock):
        assert some_schedule_crashes(abba_deadlock, seeds=100)

    def test_abba_completes_under_other_schedules(self, abba_deadlock):
        outcomes = [run_program(abba_deadlock, RandomWalkPolicy(s)).outcome for s in range(100)]
        assert None in outcomes

    def test_deadlock_outcome_kind(self, abba_deadlock):
        for seed in range(100):
            result = run_program(abba_deadlock, RandomWalkPolicy(seed))
            if result.crashed:
                assert result.outcome == "deadlock"
                return
        raise AssertionError("expected at least one deadlock in 100 schedules")


class TestAdversarialDeadlock:
    """Deadlock detection under adversarial (worst-case) scheduler policies —
    not just sampled random walks."""

    def test_scripted_schedule_forces_abba_deadlock(self, abba_deadlock):
        # main spawns both workers, then each worker takes its first lock:
        # T1 holds A wanting B, T2 holds B wanting A, main blocked on join.
        result = run_program(abba_deadlock, ScriptedPolicy([0, 0, 1, 2]))
        assert result.outcome == "deadlock"
        assert result.trace.failure == "deadlock among threads [0, 1, 2]"

    def test_scripted_benign_schedule_completes(self, abba_deadlock):
        # Run worker one to completion before worker two ever starts.
        result = run_program(abba_deadlock, ScriptedPolicy([0, 0, 1, 1, 1, 1]))
        assert not result.crashed and result.outcome is None

    def test_lock_hunter_finds_abba_deadlock_deterministically(self, abba_deadlock):
        class LockHunterPolicy(SchedulerPolicy):
            """Adversary: spawn everything, then rotate lock acquisitions
            across threads — the classic hold-and-wait-maximising order."""

            def __init__(self):
                self._last = None

            def choose(self, candidates, execution):
                for kind in ("spawn", "lock"):
                    group = [c for c in candidates if c.kind == kind]
                    if group:
                        switched = [c for c in group if c.tid != self._last]
                        choice = min(switched or group, key=lambda c: c.tid)
                        break
                else:
                    choice = min(candidates, key=lambda c: c.tid)
                self._last = choice.tid
                return choice

        first = run_program(abba_deadlock, LockHunterPolicy())
        second = run_program(abba_deadlock, LockHunterPolicy())
        assert first.outcome == "deadlock"
        assert second.schedule == first.schedule

    def test_scripted_lost_wakeup_deadlocks(self):
        @program("t/lostwakeup_adv", bug_kinds=("deadlock",))
        def prog(t):
            def waiter(t, m, c, ready):
                yield t.lock(m)
                is_ready = yield t.read(ready)
                if not is_ready:
                    yield t.wait(c, m)
                yield t.unlock(m)

            def signaller(t, c, ready):
                yield t.write(ready, 1)
                yield t.signal(c)

            m = t.mutex("m")
            c = t.cond("c")
            ready = t.var("ready", 0)
            h1 = yield t.spawn(waiter, m, c, ready)
            h2 = yield t.spawn(signaller, c, ready)
            yield t.join(h1)
            yield t.join(h2)

        # Force the race window: the waiter reads ready == 0, the signaller
        # then writes and signals (no waiter yet — the wakeup is lost), and
        # only then does the waiter block in wait(): a guaranteed deadlock.
        result = run_program(prog, ScriptedPolicy([0, 0, 1, 1, 2, 2]))
        assert result.outcome == "deadlock"
        assert "threads [0, 1]" in result.trace.failure

    def test_replay_of_deadlock_schedule_reproduces_it(self, abba_deadlock):
        original = run_program(abba_deadlock, ScriptedPolicy([0, 0, 1, 2]))
        assert original.outcome == "deadlock"
        replay = run_program(abba_deadlock, ReplayPolicy(original.schedule))
        assert replay.outcome == "deadlock"
        assert replay.schedule == original.schedule

    def test_policy_returning_foreign_candidate_rejected(self, abba_deadlock):
        class RoguePolicy(SchedulerPolicy):
            def choose(self, candidates, execution):
                from repro.runtime.executor import Candidate

                return Candidate(tid=99, kind="w", location="var:x", loc="nowhere:1")

        with pytest.raises(SchedulerError, match="not an enabled candidate"):
            run_program(abba_deadlock, RoguePolicy())

    def test_policy_returning_equal_copy_of_candidate_rejected(self, abba_deadlock):
        # The contract is identity: an equal candidate built by the policy
        # is not one of the objects the executor offered.
        class CopyingPolicy(SchedulerPolicy):
            def choose(self, candidates, execution):
                copy = dataclasses.replace(candidates[0])
                assert copy == candidates[0] and copy is not candidates[0]
                return copy

        with pytest.raises(SchedulerError, match="not an enabled candidate"):
            run_program(abba_deadlock, CopyingPolicy())

    def test_tso_policy_choosing_flush_candidate_accepted(self):
        # Flush candidates are built per call, outside the per-thread
        # candidate cache; picking one must pass the identity check.
        class FlushFirstPolicy(SchedulerPolicy):
            flushes = 0

            def choose(self, candidates, execution):
                for candidate in candidates:
                    if candidate.kind == FLUSH_KIND:
                        self.flushes += 1
                        return candidate
                return candidates[-1]

        @program("t/tso-flush")
        def prog(t):
            def writer(t, x):
                yield t.write(x, 1)
                yield t.write(x, 2)

            x = t.var("x", 0)
            handle = yield t.spawn(writer, x)
            yield t.write(x, 3)
            yield t.join(handle)

        policy = FlushFirstPolicy()
        result = TsoExecutor(prog, policy).run()
        assert not result.crashed
        assert policy.flushes == 3
        assert [e.kind for e in result.trace.events].count(FLUSH_KIND) == 3


class TestHeapOracles:
    def test_uaf_reachable_and_reported(self, uaf):
        outcomes = {run_program(uaf, RandomWalkPolicy(s)).outcome for s in range(200)}
        assert outcomes & {"use-after-free", "null-dereference"}

    def test_uaf_replayable(self, uaf):
        for seed in range(200):
            result = run_program(uaf, RandomWalkPolicy(seed))
            if result.crashed:
                replay = run_program(uaf, ReplayPolicy(result.schedule))
                assert replay.outcome == result.outcome
                return
        raise AssertionError("expected a heap crash in 200 schedules")

    def test_double_free_detected(self):
        @program("t/dfree", bug_kinds=("double-free",))
        def prog(t):
            obj = yield t.malloc("n")
            yield t.free(obj)
            yield t.free(obj)

        assert run_program(prog, RandomWalkPolicy(0)).outcome == "double-free"

    def test_null_free_detected(self):
        @program("t/nullfree", bug_kinds=("null-dereference",))
        def prog(t):
            yield t.free(None)

        assert run_program(prog, RandomWalkPolicy(0)).outcome == "null-dereference"

    def test_heap_write_after_free_detected(self):
        @program("t/wafterfree", bug_kinds=("use-after-free",))
        def prog(t):
            obj = yield t.malloc("n", val=0)
            yield t.free(obj)
            yield t.heap_write(obj, "val", 1)

        assert run_program(prog, RandomWalkPolicy(0)).outcome == "use-after-free"

    def test_crashing_heap_event_recorded_in_trace(self):
        @program("t/heaptrace", bug_kinds=("use-after-free",))
        def prog(t):
            obj = yield t.malloc("n", val=0)
            yield t.free(obj)
            yield t.heap_read(obj, "val")

        result = run_program(prog, RandomWalkPolicy(0))
        assert result.trace.events[-1].kind == "hr"
