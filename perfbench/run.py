"""gazecast benchmark: one run of one workload, printed as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. With ``--trace 0`` the run starts
PROCESSES fresh worker processes one after another; each sets up the
workload, then drives it for S/PROCESSES seconds. The end-to-end metrics
are medians over all requests and over the processes' set-up times and
peak RSS. With ``--trace 1`` one worker runs an untraced and a traced
segment and then the isolated module measurements. The last line printed
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the run's metadata. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
PROCESSES = 3
DEADLINE_S = 170   # the whole run, including every worker's set-up


def spawn(args, mode: str, seconds: float, index: int, workdir: str, deadline: float) -> dict:
    result = os.path.join(workdir, f"result-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
           "--workdir", os.path.join(workdir, f"p{index}"), "--result", result]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited {proc.returncode}")
    with open(result) as f:
        out = json.load(f)
    out["setup_s"] = out["first_call"] - started   # process start to first request
    return out


def end_to_end(workers: list[dict]) -> dict:
    requests = [r for w in workers for r in w["requests"]]
    latency = sorted(elapsed for elapsed, _ in requests)
    return {
        "samples_per_s": statistics.median(s / elapsed for elapsed, s in requests),
        "latency_ms_p50": 1000.0 * statistics.median(latency),
        "latency_ms_p90": 1000.0 * statistics.quantiles(latency, n=10, method="inclusive")[-1],
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gazecast", "cli.py")):
        print(f"error: {ROOT} is not a gazecast checkout (no src/gazecast)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # the workers seed numpy SeedSequences, which take non-negative integers
    args.seed %= 2**31
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            workers = [spawn(args, "trace", args.seconds, 0, workdir, deadline)]
            metrics = dict(workers[0]["layers"])
            shutil.copyfile(os.path.join(workdir, "p0", "spans.jsonl"),
                            os.path.join(out_dir, f"{tag}-spans.jsonl"))
        else:
            workers = [spawn(args, "measure", args.seconds / PROCESSES, i, workdir, deadline)
                       for i in range(PROCESSES)]
            metrics = end_to_end(workers)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for w in workers for e in w["errors"]]
    failed = sum(w["failed"] for w in workers)
    attempted = sum(w["attempted"] for w in workers)
    digests = {w["digest"] for w in workers}
    if len(digests) > 1:   # outputs of one seed must match across processes
        failed += len(digests) - 1
        errors.append(f"{len(digests)} distinct outputs across worker processes")
    if args.trace:
        metrics.update(ops_attempted=attempted, ops_failed=failed,
                       ops_failed_share=failed / attempted)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "processes": len(workers),
              "requests": sum(len(w.get("requests", ())) for w in workers),
              "warmup_s": [w["warmup_s"] for w in workers],
              "final_loss": workers[0]["final_loss"],
              "failed_share": f"{failed}/{attempted}", **workers[0]["meta"]}
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({"run": record}))
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump({"run": record, "metrics": metrics, "errors": errors,
                   "requests": [w.get("requests") for w in workers]}, f)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
