"""Run one ftcbf benchmark workload and print its metrics.

    python3 bench/run.py --workload wmr-attack --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree that holds `src/ftcbf` and `scenarios/`.
With --trace 0 the last line of standard output is a JSON object with every
end-to-end metric of BENCHMARK.json; with --trace 1 it carries every per-layer
metric instead. The lines before it are a human-readable table (all
end-to-end figures with their units, including those that BENCHMARK.json does
not gate) and the run's provenance. The full result, with every output digest,
is written to .bench_out/, and so is the span trace of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread and one sweep worker: every workload is a single serial caller.
THREAD_PIN = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "FTCBF_THREADS")}

UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "samples_per_s": "1/s",
         "calib_runs_per_s": "1/s", "peak_rss_mb": "MB", "failed_frac": "frac",
         "safety_rate": "frac", "reach_rate": "frac"}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _source_tree_problem() -> str:
    for need in ("src/ftcbf/__init__.py", "scenarios/wmr.yaml", "scenarios/boeing.yaml"):
        if not (ROOT / need).is_file():
            return f"{need} not found under {ROOT}: run from a full ftcbf source tree"
    return ""


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, digest) -> dict:
    src = b"".join(p.read_bytes() for p in sorted((ROOT / "src" / "ftcbf").glob("*.py")))
    import numpy
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "git_sha": _git_sha(), "src_sha256": digest(src),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_PIN}, "workers": 1,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> dict:
    """Measure one workload; returns the full result (what .bench_out/ keeps)."""
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    reference = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = wl.measure(workload, args.seed, args.seconds, bool(args.trace),
                             ROOT, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = _spec()
    result = {
        "provenance": provenance(args, wl.digest),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": [o.detail for o in outcome.ops if not o.ok][:20],
        "inputs": outcome.inputs,
        "passes": len(outcome.passes),
        "outputs_changed": sorted(outcome.ctx.changed),
        "outputs_unreferenced": sorted(k for k in outcome.ctx.digests if k not in reference),
        "digests": outcome.ctx.digests,
        "setup": outcome.setup,
        "pass_seconds": outcome.passes,
        "ops": [[o.kind, o.seconds, o.units, o.ok, o.start, o.end] for o in outcome.ops],
    }
    if args.trace:
        layer = wl.per_layer(outcome)
        result["per_layer"] = layer
        result["absent_targets"] = outcome.tracer.absent
        result["spans"] = outcome.tracer.summary()
        outcome.tracer.write(OUT_DIR / f"{tag}.spans.npz")
        result["metrics"] = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                             for m in spec["per_layer"]}
    else:
        e2e = wl.end_to_end(outcome)
        result["end_to_end"] = e2e
        result["raw_timings"] = wl.raw_timings(outcome)
        result["metrics"] = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                             for m in spec["end_to_end"]}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return result


def _print_table(result: dict) -> None:
    prov = result["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  passes {result['passes']}  "
          f"operations {result['attempted']}  failed {result['failed']}")
    if "end_to_end" in result:
        for name, value in result["end_to_end"].items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<18} {shown:>14} {UNITS[name]}")
        raw = result["raw_timings"]
        print(f"  host speed factor {raw['speed_factor']:.4f} from {raw['speed_samples']} samples;"
              " times above are at the reference speed, raw ones are in the result file")
    else:
        for name, value in result["per_layer"].items():
            print(f"  {name:<36} {value:>14.6g}")
        if result["absent_targets"]:
            print(f"  absent targets: {', '.join(result['absent_targets'])}")
    print(f"  outputs changed against digests.json: {len(result['outputs_changed'])}"
          f" (unreferenced {len(result['outputs_unreferenced'])})")
    for detail in result["failures"]:
        print(f"  failure: {detail.strip().splitlines()[-1]}")
    print("provenance: " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = _source_tree_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PIN)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args)
    _print_table(result)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
