"""End-to-end host-time benchmark of the ReSHAPE reproduction.

    python3 perfbench/run.py --workload paper-w2 --seed 11 --seconds 30 \\
        --trace 0

Runs one workload (see ``BENCHMARK.json`` and ``rationale.json``) as a
series of samples, each in a fresh single-threaded interpreter
(``sample.py``), one after another for about ``--seconds`` and at
least ``MIN_SAMPLES`` samples.  Prints one line per sample, a summary,
and as its last line one JSON object:

* ``--trace 0``: the medians of ``wall_s``, ``setup_s`` and
  ``peak_rss_mb`` over the samples, and ``ok_frac``.
* ``--trace 1``: untraced and traced samples alternate; the per-layer
  metrics are the medians over the traced samples, and
  ``trace.overhead`` is traced over untraced median ``wall_s``.

Correctness gate: every sample's digest of its simulated results must
equal the committed one in ``digests.json`` (for ``synth-50k``, seeds
0-63 are committed; other seeds are checked for agreement between the
run's own samples only), every sample of the run must agree, no
paper-shape expectation may break, and a traced run must record calls
into the workload's main layer.  ``"correct": false`` on any miss.

The default seed is 11; 29 is the documented held-out seed.  Only
``synth-50k`` depends on it: W1, W2 and the remap grid are fixed paper
tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 3
#: Wall-clock budget of one whole run; a sample still going is killed.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def sample(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Run one fresh-interpreter sample and return its record."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} sample overran the run limit") \
            from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} sample failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("t_start") - t_spawn
    return record


def quartiles(values: list) -> tuple:
    """(q1, median, q3), as ``statistics.quantiles`` cuts them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def gate(records: list, reference) -> list:
    """Reasons the run's simulated results are not correct."""
    problems = []
    digests = {r["digest"] for r in records}
    if len(digests) != 1:
        problems.append(f"samples disagree: {len(digests)} digests")
    if reference is not None and digests != {reference}:
        problems.append("digest differs from the committed reference")
    for r in records:
        problems += r["problems"] + r["errors"]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    references = json.loads((HERE / "digests.json").read_text())
    if args.workload not in references:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(references)}", file=sys.stderr)
        return 2
    reference = references[args.workload]
    if isinstance(reference, dict):
        reference = reference.get(str(args.seed))
        if reference is None:
            print(f"note: no committed digest for seed {args.seed}; "
                  f"checking agreement between samples only")

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    min_rounds = 1 if args.trace else MIN_SAMPLES
    try:
        # Stop before a round that would end past --seconds, so a run
        # lasts about --seconds whatever the workload's sample length.
        while True:
            plain.append(sample(args.workload, args.seed, False, deadline))
            if args.trace:
                traced.append(sample(args.workload, args.seed, True,
                                     deadline))
            elapsed = time.monotonic() - start
            per_round = elapsed / len(plain)
            if (len(plain) >= min_rounds
                    and elapsed + per_round > args.seconds):
                break
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    for i, r in enumerate(plain + traced):
        kind = "traced" if i >= len(plain) else "plain"
        print(f"sample {i} {kind}: wall_s={r['wall_s']:.4f} "
              f"setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} digest={r['digest'][:12]}")
    problems = gate(plain + traced, reference)
    for problem in problems:
        print(f"INCORRECT: {problem}")
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)

    summary = {}
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        summary[name] = quartiles([r[name] for r in plain])
    print(f"{args.workload} seed={args.seed} samples={len(plain)} "
          f"fail_frac={failed / attempted:.4g} (median, q1, q3): "
          + "; ".join(f"{name} {med:.4f} {q1:.4f} {q3:.4f}"
                      for name, (q1, med, q3) in summary.items()))

    if args.trace:
        metrics = {name: statistics.median(r["layers"][name]
                                           for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead"] = (metrics.pop("trace.wall_s")
                                     / summary["wall_s"][1])
    else:
        metrics = {name: med for name, (_q1, med, _q3) in summary.items()}
        metrics["ok_frac"] = 1.0 - failed / attempted
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
