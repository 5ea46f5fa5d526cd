"""One workload run in a fresh interpreter.

Started by run.py with one JSON argument; writes one JSON result file.
Modes: ``setup`` stops at the first timed op (a set-up sample), ``timed``
runs ops for the given seconds, ``count`` runs a fixed number of ops
(traced runs and their untraced twins).  Every op is checked right after
it returns, outside its timed region; its answer then feeds the digest.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback
from types import SimpleNamespace

MIN_OPS = 110  # p90 then has at least ten samples beyond it
MODULES = ("cartan", "weyl", "semifield", "chamber", "folding", "monoid", "checks", "cli")


def clock():
    """CLOCK_MONOTONIC, shared with the parent process that spawned us."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(config):
    if config.get("cpu") is not None:
        os.sched_setaffinity(0, {config["cpu"]})
    root = config["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    cli_layer = config["workload"] == "cli-session"

    start = clock()
    importlib.import_module("foldline.cli" if cli_layer else "foldline")
    import_s = clock() - start
    src = os.path.realpath(os.path.join(root, "src", "foldline"))
    if os.path.dirname(os.path.realpath(sys.modules["foldline"].__file__)) != src:
        raise RuntimeError("foldline was not imported from the checkout's src/")
    loaded = {name: sys.modules.get(f"foldline.{name}") for name in MODULES}
    fl = SimpleNamespace(**{name: module for name, module in loaded.items() if module})

    # the benchmark's own modules and reference data, kept out of setup_s
    start = clock()
    import workloads

    workload = workloads.WORKLOADS[config["workload"]](config["seed"])
    workload.root = root
    bench_s = clock() - start

    tracer = None
    if config["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(vars(fl))

    if cli_layer and config["in_process"]:
        workload.run = in_process_runner(fl.cli)
    workload.setup(fl)
    ops = workload.ops()
    ready = clock()
    result = {"setup_s": ready - config["spawned"] - bench_s, "import_s": import_s}
    if config["mode"] == "setup":
        return result

    latencies, kinds, blocks, failures = [], [], [], []
    digest = hashlib.sha256()
    deadline = ready + config["seconds"]
    hard_stop = ready + 3 * config["seconds"]
    for block, op in ops:
        if config["mode"] == "count":
            if len(latencies) >= config["ops"]:
                break
        elif clock() >= hard_stop or (clock() >= deadline and len(latencies) >= MIN_OPS):
            break
        kind = workload.kind(op)
        begin = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(op)
            else:
                out = tracer.call(tracer.intern(f"op.{kind}"), workload.run, (op,), {})[0]
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - begin)
        kinds.append(kind)
        blocks.append(block)
        if tracer is not None:
            tracer.enabled = False
        try:
            if error is not None:
                raise workloads.Wrong(f"raised: {error}")
            seen = workload.observe(op, out)
            workload.check(op, seen)
            digest.update(json.dumps([kind, seen], sort_keys=True).encode())
        except Exception as problem:
            failures.append({"op": len(latencies) - 1, "kind": kind, "why": str(problem)[:500]})
        if tracer is not None:
            tracer.enabled = True

    children = cli_layer and not config["in_process"]
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    result.update(
        {
            "latencies": latencies,
            "kinds": kinds,
            "blocks": blocks,
            "attempted": len(latencies),
            "failed": len(failures),
            "failures": failures[:20],
            "digest": digest.hexdigest(),
            "elapsed_s": clock() - ready,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
    )
    if tracer is not None:
        tracer.enabled = False
        result["layers"] = tracer.metrics()
        tracer.write(config["spans"])
    return result


def in_process_runner(cli):
    """Replay a CLI op through cli.main in this process, capturing stdout."""
    import contextlib
    import io

    def run(op):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(op[1])
        return SimpleNamespace(returncode=code, stdout=buffer.getvalue())

    return run


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    result = main(config)
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
