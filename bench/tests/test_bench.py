"""Self-tests of the benchmark: oracles, determinism and the metric lists.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def count_run(name, seed, ops, trace=False):
    """A fixed-count run of a workload inside this process."""
    return worker.main(
        {
            "root": str(ROOT), "workload": name, "seed": seed, "mode": "count",
            "ops": ops, "seconds": 60, "trace": trace, "in_process": True,
            "spawned": worker.clock(), "spans": None,
        }
    )


def first_ops(name, seed, n=40):
    return list(itertools.islice(workloads.WORKLOADS[name](seed).ops(), n))


def off_by_one(seen):
    """The first integer or rational coordinate in the observed data, plus one."""
    if isinstance(seen, dict):
        for key in ("coords", "at_point", "tropical", "lstring", "value", "via_a3"):
            if key in seen:
                if key == "value":
                    return {**seen, key: seen[key] + 1}
                return {**seen, key: off_by_one(seen[key])}
        raise AssertionError(f"nothing to perturb in {seen}")
    first = seen[0]
    if isinstance(first, list):
        return [off_by_one(first)] + list(seen[1:])
    if isinstance(first, str):
        from fractions import Fraction

        return [str(Fraction(first) + 1)] + list(seen[1:])
    return [first + 1] + list(seen[1:])


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_ops_other_seed_other_ops(name):
    assert first_ops(name, 7) == first_ops(name, 7)
    assert first_ops(name, 7) != first_ops(name, 8)


@pytest.mark.parametrize("name", ["braid-paths", "monoid-crystal", "symbolic-fold"])
def test_same_seed_same_digest(name):
    a, b = count_run(name, 3, 25), count_run(name, 3, 25)
    assert a["failed"] == b["failed"] == 0, a["failures"]
    assert a["kinds"] == b["kinds"]
    assert a["digest"] == b["digest"]
    assert count_run(name, 4, 25)["digest"] != a["digest"]


@pytest.mark.parametrize(
    "name, kinds",
    [
        ("braid-paths", {"A4", "D4+triality"}),
        ("monoid-crystal", {"mul:A3", "lstring:A4", "lower-raise:A3", "frobenius:A3",
                            "folded-mul:a3"}),
        ("symbolic-fold", {"A3", "g2", "compare"}),
        ("cli-session", {"transition:tropz", "transition:rat", "lambda", "rho",
                         "folded:tropz", "folded:rat", "monoid:mul", "monoid:lstring"}),
    ],
)
def test_off_by_one_answer_is_a_failure(name, kinds, monkeypatch):
    """One coordinate off by one fails the op and counts in the fail ratio."""
    cls = workloads.WORKLOADS[name]
    observe = cls.observe
    perturbed = set()

    def perturb(self, op, out):
        seen = observe(self, op, out)
        if self.kind(op) in kinds:
            perturbed.add(self.kind(op))
            return off_by_one(seen)
        return seen

    monkeypatch.setattr(cls, "observe", perturb)
    result = count_run(name, 5, 60)
    failed_kinds = {f["kind"] for f in result["failures"]}
    assert perturbed == kinds
    assert failed_kinds == kinds
    assert result["failed"] == sum(1 for k in result["kinds"] if k in kinds)


def test_cli_expected_errors_need_the_right_kind(monkeypatch):
    cls = workloads.CliSession
    observe = cls.observe

    def wrong_kind(self, op, out):
        seen = observe(self, op, out)
        return {**seen, "kind": "other"} if "kind" in seen else seen

    monkeypatch.setattr(cls, "observe", wrong_kind)
    result = count_run("cli-session", 5, 40)
    assert result["failed"] == sum(1 for k in result["kinds"] if k == "error") > 0


def test_tits_paths_are_validated_letter_by_letter():
    import random

    cox = ref.coxeter("D4+triality")
    rng = random.Random(1)
    start, goal = cox.walk(rng), cox.walk(rng)
    moves = ref.checked_path(cox, start, goal)
    assert moves
    k, r = moves[0]
    with pytest.raises(ref.PathError):
        ref.validate_path(cox, start, goal, [(k + 1, r)] + moves[1:])
    with pytest.raises(ref.PathError):
        ref.validate_path(cox, start, goal, moves[:-1])


def test_traced_run_reports_every_layer_metric_and_keeps_answers():
    # in a subprocess: the wrappers stay installed for the life of a process
    tmp_path = ROOT / ".bench_out" / "selftest"
    tmp_path.mkdir(parents=True, exist_ok=True)
    results = {}
    for trace in (True, False):
        config = {
            "root": str(ROOT), "workload": "symbolic-fold", "seed": 2, "mode": "count",
            "ops": 25, "seconds": 60, "trace": trace, "in_process": True,
            "spawned": worker.clock(), "spans": str(tmp_path / "spans.bin"),
            "out": str(tmp_path / f"{trace}.json"),
        }
        subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(config)], check=True)
        results[trace] = json.loads(Path(config["out"]).read_text())
    assert results[True]["digest"] == results[False]["digest"]
    layers = results[True]["layers"]
    for name, _, _ in tracing.LAYER_METRICS:
        if name not in ("trace.overhead", "cli.import_s"):
            assert name in layers, name
    assert layers["semifield.ops.sym"] > 0 and layers["semifield.sym_max_terms"] > 0
    assert layers["chamber.transition.calls"] > 0
    header = (tmp_path / "spans.bin").read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["count"] == layers["trace.spans"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS
    )
