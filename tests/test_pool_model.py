"""ProcessorPool against a plain set model.

Random allocate / partial-release (shrink) / release_all / foreign
release sequences drive the pool and a model of one free set plus one
held set per job.  After every step the two must agree: free + held ==
total, allocation takes the lowest-numbered free processors, and a
release of a processor the job does not hold raises without changing
anything.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pool import ProcessorPool

JOBS = st.integers(1, 4)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), JOBS, st.integers(0, 14)),
        st.tuples(st.just("shrink"), JOBS, st.integers(0, 2**14)),
        st.tuples(st.just("release_all"), JOBS, st.none()),
        st.tuples(st.just("foreign"), JOBS, st.integers(0, 13)),
    ), min_size=1, max_size=80)


def check(pool, free, held):
    assert pool.free_processors() == sorted(free)
    assert pool.free_count == len(free)
    assert pool.busy_count == sum(len(procs) for procs in held.values())
    assert pool.free_count + pool.busy_count == pool.total
    for job_id, procs in held.items():
        assert pool.processors_of(job_id) == sorted(procs)
    owners = {p: j for j, procs in held.items() for p in procs}
    for p in range(pool.total):
        assert pool.owner_of(p) == owners.get(p)
    assert free.isdisjoint(owners)
    assert free | owners.keys() == set(range(pool.total))


@given(st.integers(1, 12), OPS)
@settings(max_examples=200, deadline=None)
def test_pool_matches_set_model(total, script):
    pool = ProcessorPool(total)
    free = set(range(total))
    held: dict[int, set[int]] = {}
    for op, job_id, value in script:
        mine = held.setdefault(job_id, set())
        if op == "allocate":
            if value > len(free):
                with pytest.raises(RuntimeError):
                    pool.allocate(value, job_id)
            else:
                chosen = pool.allocate(value, job_id)
                assert chosen == sorted(free)[:value]
                free -= set(chosen)
                mine |= set(chosen)
        elif op == "shrink":
            # Release the subset of the job's processors picked by the
            # bit mask, highest first (the order a shrink frees them).
            picked = [p for i, p in enumerate(sorted(mine))
                      if value >> i & 1][::-1]
            pool.release(picked, job_id)
            free |= set(picked)
            mine -= set(picked)
        elif op == "release_all":
            assert pool.release_all(job_id) == sorted(mine)
            free |= mine
            mine.clear()
        elif op == "foreign" and value < total and value not in mine:
            with pytest.raises(RuntimeError):
                pool.release([value], job_id)
        check(pool, free, held)
