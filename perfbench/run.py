"""The zovr benchmark command.

    python3 perfbench/run.py --workload ls-fig1a --seed 0 --seconds 30 --trace 0

Run it from the repository root: zovr is imported from ``./src`` and
nothing needs building. With ``--trace 0`` it reports the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` the per-layer
ones. It prints one line per metric, an environment line, and, as the
last line, the JSON result ``{"correct", "attempted", "failed",
"metrics"}``. Scratch files go to ``.bench_build/perfbench``; the spans
of a traced run are kept there as ``spans-<workload>-seed<n>.jsonl``.

End-to-end times and rates are calibrated against a fixed reference
kernel timed around each measurement (``workloads.REFERENCE_S``), because
the CPU speed of a shared machine drifts; the env line gives the median
reference time, so a raw time is about ``value * reference_s / REFERENCE_S``.

BLAS is held at one thread. On a 2-CPU machine a 100k-query MLP
MeZO-SVRG run took 1.41-1.57 s with one thread and 1.62-2.44 s with the
default, so one thread is both faster and steadier there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ls-fig1a", "mlp-preset", "replay-wide")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "zovr" / "__init__.py").is_file():
        print(f"perfbench: no zovr sources at {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads  # numpy is imported only now, after the BLAS setting

    with open(spec_path, encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    scratch = ROOT / ".bench_build" / "perfbench"
    outdir = scratch / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        metrics, env, tally = workloads.run(
            args.workload, args.seed, args.seconds, args.trace == 1, str(outdir),
            spans_path=str(spans))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, value in result.items():
        print(f"{name} = {value['value']} {value['unit']}")
    print(f"failed_share = {tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed} of {tally.attempted} operations)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
