"""foldline benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload braid-paths --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a foldline checkout; foldline is imported from its
``src/``.  Every workload run happens in fresh interpreters started here,
so foldline's process-wide caches start empty and nothing carries over
between runs.

``--trace 0`` reports the end-to-end metrics.  Set-up is sampled in
SETUP_SAMPLES fresh interpreters (median reported).  Then one timed
interpreter per CPU, at most TIMED_WORKERS of them, each pinned to its own
CPU, sets up and runs the seeded ops for ``--seconds`` side by side; their
samples are pooled.  On a shared host each CPU goes through slow phases
of its own, so two pinned samples per run vary less than one.  Each
worker is still one closed-loop client.  ``--trace 1`` runs the workload's
fixed traced op count twice, once with spans at every foldline module
boundary and once without, and reports the per-layer metrics and the
tracing overhead.  Outputs go to ``.bench_out/<run>/`` in the checkout;
the last line of stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
TIMED_WORKERS = 2
RUN_BUDGET_S = 160

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RunFailed(Exception):
    pass


def start(root, out_dir, tag, **config):
    """Start worker.py in a fresh interpreter; returns (process, result path)."""
    out = out_dir / f"{tag}.json"
    config.update(root=str(root), out=str(out), spans=str(out_dir / "spans.bin"))
    config["spawned"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        cwd=root,
        start_new_session=True,
    )
    return process, out


def finish(process, out, deadline):
    """Wait for a worker and load its result."""
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{out.stem} worker ran out of time") from None
    finally:
        try:  # the worker and its own children (cli-session) end here
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise RunFailed(f"{out.stem} worker exited with code {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def spawn(root, out_dir, tag, deadline, **config):
    return finish(*start(root, out_dir, tag, **config), deadline)


def spawn_all(root, out_dir, deadline, configs):
    """Run workers side by side; every one is reaped even if another fails."""
    started = []
    try:
        for tag, config in configs:
            started.append(start(root, out_dir, tag, **config))
        return [finish(process, out, deadline) for process, out in started]
    finally:
        for process, _ in started:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()


def block_rate(workers):
    """Median over complete blocks of ops per second inside the block.

    Every block holds the workload's full mix, so block rates are alike; the
    median keeps a rare slow input or a burst of machine noise from setting
    the run's throughput.  A worker's last block is cut by the clock.
    """
    rates = []
    for worker in workers:
        time_in, ops_in = {}, {}
        for latency, block in zip(worker["latencies"], worker["blocks"]):
            time_in[block] = time_in.get(block, 0.0) + latency
            ops_in[block] = ops_in.get(block, 0) + 1
        last = worker["blocks"][-1]
        complete = [b for b in time_in if b != last] or list(time_in)
        rates += [ops_in[b] / time_in[b] for b in complete]
    return statistics.median(rates)


def end_to_end(timed, setups):
    latencies = [x for worker in timed for x in worker["latencies"]]
    p90 = statistics.quantiles(latencies, n=10)[8]
    attempted = sum(worker["attempted"] for worker in timed)
    failed = sum(worker["failed"] for worker in timed)
    return {
        "ops_per_s": block_rate(timed),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(worker["peak_rss_mb"] for worker in timed),
    }, {
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "op_fail_ratio": failed / max(1, attempted),
        "workers": len(timed),
    }


def run(args, root):
    out_dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    common = dict(workload=args.workload, seed=args.seed, seconds=args.seconds)
    if not args.trace:
        cpus = sorted(os.sched_getaffinity(0))[:TIMED_WORKERS]
        setups = [
            spawn(root, out_dir, f"setup{k}", deadline, mode="setup", trace=False,
                  in_process=False, cpu=None, **common)["setup_s"]
            for k in range(SETUP_SAMPLES - len(cpus))
        ]
        timed = spawn_all(root, out_dir, deadline, [
            (f"timed{k}", dict(mode="timed", trace=False, in_process=False, cpu=cpu, **common))
            for k, cpu in enumerate(cpus)
        ])
        metrics, notes = end_to_end(timed, setups + [worker["setup_s"] for worker in timed])
        units = dict(END_TO_END)
        result = {k: (v, units[k]) for k, v in metrics.items()}
        result["op_fail_ratio"] = (notes.pop("op_fail_ratio"), "ratio")
        report = {
            "attempted": sum(worker["attempted"] for worker in timed),
            "failed": sum(worker["failed"] for worker in timed),
            "failures": [f for worker in timed for f in worker["failures"]],
            "digest": [worker["digest"] for worker in timed],
        }
    else:
        ops = workloads.WORKLOADS[args.workload].trace_ops
        traced = spawn(root, out_dir, "traced", deadline, mode="count", ops=ops, trace=True,
                       in_process=True, cpu=None, **common)
        plain = spawn(root, out_dir, "untraced", deadline, mode="count", ops=ops, trace=False,
                      in_process=True, cpu=None, **common)
        if traced["digest"] != plain["digest"]:
            traced["failed"] += 1
            traced["failures"].append({"why": "tracing changed the answers"})
        layers = dict(traced["layers"])
        layers["trace.overhead"] = sum(traced["latencies"]) / sum(plain["latencies"]) - 1
        if args.workload == "cli-session":
            layers["cli.import_s"] = statistics.median([traced["import_s"], plain["import_s"]])
        else:  # the cli layer is only entered by cli-session
            layers["cli.import_s"] = 0.0
        report = traced
        result = {name: (layers[name], unit) for name, unit, _ in tracing.LAYER_METRICS}
        notes = {"spans": layers["trace.spans"], "untraced_digest": plain["digest"]}

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": report["attempted"], "failed": report["failed"],
        "failures": report["failures"], "digest": report["digest"], **notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    for name, (value, unit) in result.items():
        print(f"{args.workload:15s} {name:34s} {value:14.6g} {unit}")
    for key, value in notes.items():
        print(f"{args.workload:15s} {key:34s} {value}")
    for failure in report["failures"][:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    metric_names = (
        [name for name, _ in END_TO_END] if not args.trace
        else [name for name, _, _ in tracing.LAYER_METRICS]
    )
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": result[name][0], "unit": result[name][1]} for name in metric_names
        },
    }


def main(argv=None):
    # a terminated run still reaps its workers, through spawn's finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "foldline" / "__init__.py").is_file():
        print(f"no foldline sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            line = run(argparse.Namespace(**{**vars(args), "workload": name}), root)
        except RunFailed as error:
            print(f"benchmark run failed: {error}", file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
