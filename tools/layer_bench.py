"""Per-layer timings of the monoid walk: warm ``monoid.mul``, ``l_scan``,
``r_scan``, ``raise_to`` after ``lower_to_zero``, ``normal_form`` from a
reduced word and ``folded_mul`` on seeded inputs, and whole
``crystal_graph_dot`` graphs, stdlib ``timeit`` only.

    python3 tools/layer_bench.py                       # time this checkout
    python3 tools/layer_bench.py --src OTHER/src       # time another checkout
    python3 tools/layer_bench.py --baseline OTHER/src > BENCH_x.json

Each row is one (layer, case): the seconds one call takes, as the median
and the min over REPEAT timings of NUMBER passes over the case's seeded
inputs, with the repeat count, the Python version and the timings
themselves.  Every case is run once before it is timed, so its caches are
warm.  With ``--baseline``, ROUNDS rounds alternate a fresh interpreter on
the baseline source and one on this checkout's, and each row holds both
sides' pooled timings.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = 50  # seeded inputs per case
NUMBER = 20  # passes over the inputs per timing
REPEAT = 7  # timings per case in one interpreter
ROUNDS = 10  # alternating baseline/current interpreter pairs with --baseline


def cases():
    """(layer, case, fn): fn makes one call on each of the case's inputs
    and returns the list of their answers."""
    from foldline import monoid
    from foldline.cartan import builtin
    from foldline.folding import standard_folding
    from foldline.weyl import enumerate_reduced_words

    rng = random.Random(1)
    out = []
    for name in ("A4", "D4+triality"):
        datum, _ = builtin(name)
        size = len(monoid.base_word(datum).letters)

        def element():
            return monoid.MonoidElement(datum, tuple(rng.randint(0, 5) for _ in range(size)))

        pairs = [(element(), element()) for _ in range(INPUTS)]
        scans = [(element(), rng.choice(datum.labels)) for _ in range(INPUTS)]
        # a separate seed, so the rows above keep the inputs they always had
        reduced, draw = enumerate_reduced_words(datum).vertices, random.Random(f"forms:{name}")
        forms = [(draw.choice(reduced), [draw.randint(0, 5) for _ in range(size)]) for _ in range(INPUTS)]

        def raise_lowered(scans=scans):
            return [monoid.raise_to(3, monoid.lower_to_zero(m, i), i) for m, i in scans]

        out += [
            ("monoid.mul", name, lambda pairs=pairs: [monoid.mul(x, y) for x, y in pairs]),
            ("monoid.l_scan", name, lambda scans=scans: [monoid.l_scan(m, i) for m, i in scans]),
            ("monoid.r_scan", name, lambda scans=scans: [monoid.r_scan(m, i) for m, i in scans]),
            ("monoid.raise_to", name, raise_lowered),
            ("monoid.normal_form", name, lambda d=datum, f=forms: [monoid.normal_form(d, *x) for x in f]),
        ]
    fd = standard_folding("d4")
    words = (("1", "2", "1", "2", "1", "2"), ("2", "1", "2", "1", "2", "1"))
    folded = [
        (fd, *(tuple(rng.randint(0, 5) for _ in range(6)) for _ in range(2)), words[k % 2])
        for k in range(INPUTS)
    ]
    out.append(("monoid.folded_mul", "d4", lambda: [monoid.folded_mul(*args) for args in folded]))
    for name, bound in (("A3", 3), ("D4+triality", 1)):
        datum, _ = builtin(name)
        graph = lambda d=datum, b=bound: [monoid.crystal_graph_dot(d, b)]  # noqa: E731
        out.append(("monoid.crystal_graph_dot", f"{name} --bound {bound}", graph))
    return out


def measure(repeat: int = REPEAT, number: int = NUMBER) -> list[dict]:
    """One row per case, timed in this interpreter."""
    rows = []
    for layer, case, fn in cases():
        calls = len(fn())  # warm
        per_call = [t / (number * calls) for t in timeit.repeat(fn, number=number, repeat=repeat)]
        rows.append(
            {
                "layer": layer,
                "case": case,
                "median_s": statistics.median(per_call),
                "min_s": min(per_call),
                "repeat": repeat,
                "python": platform.python_version(),
                "samples": per_call,
            }
        )
    return rows


def _side(src: str) -> list[dict]:
    """measure() in a fresh interpreter that imports foldline from src."""
    command = [sys.executable, str(Path(__file__).resolve()), "--src", src]
    return json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout)


def compare(baseline: str, src: str) -> list[dict]:
    """Alternate the two sources round by round and pool each side's timings."""
    pooled: dict = {}
    for _ in range(ROUNDS):
        for side, path in (("baseline", baseline), ("current", src)):
            for row in _side(path):
                pooled.setdefault((row["layer"], row["case"]), {}).setdefault(side, []).extend(
                    row["samples"]
                )
    rows = []
    for (layer, case), sides in pooled.items():
        row = {"layer": layer, "case": case}
        for side, samples in sides.items():
            row[side] = {"median_s": statistics.median(samples), "min_s": min(samples)}
        row["repeat"] = len(sides["current"])
        row["python"] = platform.python_version()
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory foldline is imported from")
    parser.add_argument("--baseline", help="another checkout's src, timed in alternating rounds")
    args = parser.parse_args(argv)
    if args.baseline:
        rows = compare(args.baseline, args.src)
    else:
        sys.path.insert(0, args.src)
        rows = measure()
    print(json.dumps(rows, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
