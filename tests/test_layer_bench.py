"""The per-layer timing script runs every row, and the committed BENCH file
holds a row, on both sides, for each case the script times."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = [
    (layer, case)
    for case in ("A4", "D4+triality")
    for layer in ("monoid.mul", "monoid.l_scan", "monoid.r_scan", "monoid.raise_to", "monoid.normal_form")
] + [
    ("monoid.folded_mul", "d4"),
    ("monoid.crystal_graph_dot", "A3 --bound 3"),
    ("monoid.crystal_graph_dot", "D4+triality --bound 1"),
]


def load_script():
    spec = importlib.util.spec_from_file_location("layer_bench", ROOT / "tools" / "layer_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_row_runs_once():
    rows = load_script().measure(repeat=1, number=1)
    assert [(row["layer"], row["case"]) for row in rows] == CASES
    for row in rows:
        assert row["repeat"] == 1 and len(row["samples"]) == 1
        assert 0 < row["min_s"] <= row["median_s"]
        assert row["python"].count(".") == 2


def test_committed_rows_cover_every_case_on_both_sides():
    rows = json.loads((ROOT / "BENCH_monoid-walk.json").read_text(encoding="utf-8"))
    assert sorted((row["layer"], row["case"]) for row in rows) == sorted(CASES)
    for row in rows:
        assert row["repeat"] >= 1 and row["python"]
        for side in ("baseline", "current"):
            assert 0 < row[side]["min_s"] <= row[side]["median_s"]
