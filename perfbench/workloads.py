"""The benchmark's four workloads, driven through the public API.

Each workload is split the way a user's experiment is: ``setup(seed)``
builds the inputs (spec lists, the generated job trace) and
``run(inputs)`` is the timed section.  Untimed after it,
``collect(raw)`` reduces what the program returned to an
:class:`Outcome`, and ``check(outcome)`` returns the digest of the
simulated results and the list of broken paper-shape expectations.

Operations (the ``attempted``/``failed`` unit): one scenario on the
scenario workloads, one job on ``synth-50k``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.machine import MachineSpec
from repro.sweep import resolver
from repro.sweep.experiments import checkpoint_grid, summarize_checkpoint
from repro.sweep.runner import SweepResult
from repro.sweep.spec import ScenarioSpec
from repro.workloads.paper import PROCESSOR_CONFIGS

#: Scheduling scale trace: jobs, processors, generator cap.
SYNTH_JOBS = 50_000
SYNTH_PROCESSORS = 36
SYNTH_MAX_INITIAL = 16


@dataclass
class Outcome:
    """What one timed section produced."""

    attempted: int
    failed: int
    #: Plain data the digest and shape checks read.
    results: list
    errors: list = field(default_factory=list)
    #: Per job: simulated seconds from arrival to first start.
    queue_waits: dict = field(default_factory=dict)


def digest(obj) -> str:
    """SHA-256 of ``repr``: floats repr exactly, so equal digests mean
    bit-identical simulated results."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _run_scenarios(specs) -> list:
    results = []
    for spec in specs:
        try:
            # Looked up on the module at call time, so a traced run
            # times the same entry point an untraced run calls.
            results.append(resolver.run_scenario(spec))
        except Exception as err:  # an errored operation, counted
            results.append(f"{spec.name}: {err!r}")
    return results


def _scenario_outcome(results) -> Outcome:
    errors = [r for r in results if isinstance(r, str)]
    results = [None if isinstance(r, str) else r for r in results]
    out = Outcome(attempted=len(results), failed=len(errors),
                  results=results, errors=errors)
    for res in results:
        if res is None:
            continue
        starts = _first_starts(res.timeline)
        for name, _size, arrival, _ta, _rd in res.job_stats:
            if name in starts:
                key = (res.spec.dynamic, name)
                out.queue_waits[key] = starts[name] - arrival
    return out


def _first_starts(timeline) -> dict:
    starts: dict = {}
    for when, _jid, name, _n, _cfg, reason in timeline:
        if reason == "start":
            starts.setdefault(name, when)
    return starts


# -- paper-w1 / paper-w2: Tables 4 and 5 ----------------------------------
def _paper_setup(workload: str):
    return [ScenarioSpec(kind="schedule", workload=workload,
                         dynamic=dynamic, iterations=10,
                         machine=MachineSpec())
            for dynamic in (False, True)]


def _paper_check(out: Outcome, *, expect_shrink: bool):
    problems = []
    static, dynamic = out.results
    if static is None or dynamic is None:
        return digest(None), ["a scenario raised"]
    for res in (static, dynamic):
        if any(ta is None for _n, _s, _a, ta, _r in res.job_stats):
            problems.append(f"{res.name}: a job did not finish")
        if any(ch[5] == "error" for ch in res.timeline):
            problems.append(f"{res.name}: a job ended in error")
    static_ta, dynamic_ta = (sum(res.turnarounds.values())
                             for res in (static, dynamic))
    if dynamic_ta > static_ta:
        problems.append(f"dynamic aggregate turnaround {dynamic_ta:.1f} s"
                        f" exceeds static {static_ta:.1f} s")
    if expect_shrink and not any(ch[5] == "shrink"
                                 for ch in dynamic.timeline):
        problems.append("dynamic run contains no shrink")
    key = [(res.timeline, res.job_stats) for res in (static, dynamic)]
    return digest(key), problems


# -- paper-remap: §4.1.2 grid plus every adjacent Table-2 LU step ---------
def remap_specs() -> list[ScenarioSpec]:
    """``checkpoint_grid()`` plus every adjacent Table-2 LU transition,
    both directions, under both methods; duplicates dropped, order
    kept."""
    machine = MachineSpec()
    specs = list(checkpoint_grid(machine=machine))
    for (app, size), configs in sorted(PROCESSOR_CONFIGS.items()):
        if app != "LU":
            continue
        for a, b in zip(configs, configs[1:]):
            for old, new in ((a, b), (b, a)):
                for method in ("reshape", "checkpoint"):
                    specs.append(ScenarioSpec(
                        kind="redist", app="lu", size=size, start=old,
                        target=new, machine=machine,
                        redistribution_method=method))
    return list(dict.fromkeys(specs))


def _remap_check(out: Outcome):
    problems = []
    if out.failed:
        return digest(None), ["a scenario raised"]
    band = set(checkpoint_grid(machine=MachineSpec()))
    subset = [r for r in out.results if r.spec in band]
    summary = summarize_checkpoint(SweepResult(results=subset))
    if len(summary["cases"]) * 2 != len(band) or not summary.get("in_band"):
        problems.append(
            f"checkpoint/redistribution ratio {summary.get('ratio_min')}"
            f"-{summary.get('ratio_max')} outside the paper band "
            f"{summary['paper_band']}")
    key = [(r.spec.name, r.metrics) for r in out.results]
    return digest(key), problems


# -- synth-50k: the scheduler at scale -------------------------------------
def _synth_setup(seed: int):
    from repro.workloads.generator import WorkloadGenerator
    gen = WorkloadGenerator(seed=seed, max_initial=SYNTH_MAX_INITIAL)
    return gen, gen.generate_scale(SYNTH_JOBS)


def _synth_run(inputs):
    from repro.core import ReshapeFramework
    from repro.core.job import reset_job_ids
    from repro.simulate import Environment
    gen, specs = inputs
    reset_job_ids()
    fw = ReshapeFramework(env=Environment(), num_processors=SYNTH_PROCESSORS,
                          dynamic=True)
    gen.submit_all(fw, specs, iterations=1)
    fw.run()
    return fw


def _synth_outcome(fw) -> Outcome:
    timeline = tuple((c.time, c.job_id, c.job_name, c.nprocs, c.config,
                      c.reason) for c in fw.timeline.changes)
    last = {}
    for ch in timeline:
        last[ch[1]] = ch[5]
    errors = [job.name for job in fw.jobs
              if job.turnaround is None or last.get(job.job_id) == "error"]
    starts = _first_starts(timeline)
    waits = {job.name: starts[job.name] - job.arrival_time
             for job in fw.jobs if job.name in starts}
    return Outcome(attempted=len(fw.jobs), failed=len(errors),
                   results=[timeline], errors=errors[:5],
                   queue_waits=waits)


def _synth_check(out: Outcome):
    problems = []
    if out.attempted != SYNTH_JOBS:
        problems.append(f"{out.attempted} jobs submitted, "
                        f"expected {SYNTH_JOBS}")
    return digest(out.results[0]), problems


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    collect: Callable
    check: Callable
    #: Counters that must be non-zero in a traced run: the layer the
    #: workload exists to exercise.
    main_counters: tuple


WORKLOADS = {w.name: w for w in (
    Workload("paper-w1", lambda seed: _paper_setup("w1"), _run_scenarios,
             _scenario_outcome,
             lambda out: _paper_check(out, expect_shrink=False),
             ("apps.iterations", "mpi.comm.collectives")),
    Workload("paper-w2", lambda seed: _paper_setup("w2"), _run_scenarios,
             _scenario_outcome,
             lambda out: _paper_check(out, expect_shrink=True),
             ("mpi.fastcoll.calls",)),
    Workload("synth-50k", _synth_setup, _synth_run, _synth_outcome,
             _synth_check, ("core.probes",)),
    Workload("paper-remap", lambda seed: remap_specs(), _run_scenarios,
             _scenario_outcome, _remap_check, ("redist.calls",)),
)}
