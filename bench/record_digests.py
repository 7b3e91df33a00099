"""Record the output digest of every input the benchmark can generate.

    python3 bench/record_digests.py            # rewrites bench/digests.json

The benchmark compares each output it emits (seed CSV, sweep metrics JSON,
verify report, calibration block) with this table and reports the count that
differ as `runner.outputs_changed`. The table is recorded once, at the commit
that defines the benchmark; a change that means to keep outputs byte-identical
shows 0 against it. Rewriting it hides exactly that comparison, so only do it
in a change that redefines the benchmark. Takes about six minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    from run import THREAD_PIN
    os.environ.update(THREAD_PIN)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import ftcbf.scenarios as scenarios
    import workloads as wl

    work = ROOT / ".bench_out" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    digests: dict = {}
    failed = 0
    try:
        for workload in wl.WORKLOADS.values():
            scn = scenarios.load_scenario(ROOT / workload.scenario)
            ctx = wl.Context(scn, work, {})
            if workload.sweep_size == 0:
                items = [{"calib_seed": g * wl.CALIB_STRIDE} for g in range(wl.CALIB_POOL)]
                run_pass = wl.calibrate_pass
            else:
                s = workload.sweep_size
                items = [{"seeds": list(range(k * s, k * s + s)) if k < workload.sweep_groups else [],
                          "verify_seed": k}
                         for k in range(max(workload.sweep_groups, wl.VERIFY_POOL))]
                run_pass = wl.sweep_pass
            for item in items:
                ops, _ = run_pass(ctx, item, check_rerun=False)
                failed += sum(1 for o in ops if not o.ok)
            digests.update(ctx.digests)
            print(f"{workload.name}: {len(ctx.digests)} outputs", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failed:
        print(f"error: {failed} operations failed; digests not written", file=sys.stderr)
        return 1
    (BENCH_DIR / "digests.json").write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n",
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
