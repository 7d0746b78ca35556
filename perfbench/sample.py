"""One benchmark sample: a fresh interpreter runs one workload once.

    python3 perfbench/sample.py --workload paper-w2 --seed 11 [--trace]

Prints one JSON object: the monotonic clock at the start of the timed
section (the parent subtracts its spawn time to get ``setup_s``), the
timed section's host seconds, peak RSS, operation counts, the digest
of the simulated results, broken paper-shape expectations, and with
``--trace`` the per-layer counters and self times.  A fresh process per
sample keeps the redistribution ``lru_cache``s and LU's cost caches
cold, as they are in every sweep worker.  GC stays at its default.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_repro() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_repro()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from layers import install
        tracer = install()
    inputs = workload.setup(args.seed)

    t_start = time.monotonic()
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.top("timed"):
            raw = workload.run(inputs)
    else:
        raw = workload.run(inputs)
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = workload.collect(raw)

    result_digest, problems = workload.check(out)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "t_start": t_start,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "digest": result_digest,
        "problems": problems,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(out, wall)
        record["problems"] += [
            f"traced run recorded no {name}"
            for name in workload.main_counters
            if not record["layers"].get(name)]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
