"""Command-line interface: payload shapes, determinism, error kinds."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from foldline.cartan import RANK_LIMIT
from foldline.checks import TRIALS_LIMIT
from foldline import cli
from foldline.cli import main
from foldline.exprs import FACTOR_LIMIT, NESTING_LIMIT
from foldline.semifield import TERM_LIMIT
from foldline.weyl import ENUMERATION_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


def run_json(capsys, *argv):
    code, output = run(capsys, *argv)
    return code, json.loads(output)


class TestDatum:
    def test_validate_builtin(self, capsys):
        code, doc = run_json(capsys, "datum", "validate", "--builtin", "B:n=2")
        assert code == 0
        assert doc["payload"]["pairing"] == [[2, -2], [-2, 4]]
        assert doc["payload"]["simply_laced"] is False

    def test_fold(self, capsys):
        code, doc = run_json(capsys, "datum", "fold", "--builtin", "A4+flip")
        assert code == 0
        assert doc["payload"]["folded"]["pairing"] == [[2, -2], [-2, 4]]
        assert doc["payload"]["delta"] == 2

    def test_fold_needs_sigma(self, capsys):
        code, doc = run_json(capsys, "datum", "fold", "--builtin", "A2")
        assert code == 2
        assert doc["status"] == "error" and doc["kind"] == "usage"

    def test_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "datum.json"
        path.write_text(
            json.dumps(
                {
                    "labels": ["1", "2"],
                    "pairing": [[2, -1], [-1, 2]],
                    "sigma": {"1": "2", "2": "1"},
                }
            )
        )
        code, doc = run_json(capsys, "datum", "fold", "--file", str(path))
        assert code == 0
        assert doc["payload"]["folded"]["pairing"] == [[4]]

    def test_domain_error_kind(self, capsys):
        code, doc = run_json(capsys, "datum", "validate", "--builtin", "Z9")
        assert code == 1
        assert doc["kind"] == "unknown-builtin"

    def test_missing_file(self, capsys, tmp_path):
        code, doc = run_json(capsys, "datum", "validate", "--file", str(tmp_path / "none.json"))
        assert (code, doc["kind"]) == (1, "no-file")

    @pytest.mark.parametrize("text", ['{"labels": ["1"', "", "\udcff"])
    def test_malformed_json(self, capsys, tmp_path, text):
        path = tmp_path / "datum.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        code, doc = run_json(capsys, "datum", "validate", "--file", str(path))
        assert (code, doc["kind"]) == (1, "bad-json")

    @pytest.mark.parametrize(
        "document, kind",
        [
            ({"labels": ["1", "2"], "pairing": [[2, -1], [-1, 2]], "sigma": [1]}, "bad-sigma"),
            ({"labels": ["1", "2"], "pairing": [[2, -1], [-1, 2]], "sigma": "12"}, "bad-sigma"),
            ({"labels": 5, "pairing": [[2]]}, "shape"),
            ({"labels": ["1"], "pairing": 2}, "shape"),
            ({"labels": ["1", "2"], "pairing": [2, 2]}, "shape"),
            ([1], "shape"),
        ],
    )
    def test_malformed_document(self, capsys, tmp_path, document, kind):
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(document))
        code, doc = run_json(capsys, "datum", "validate", "--file", str(path))
        assert (code, doc["kind"]) == (1, kind)


class TestWords:
    def test_enumerate(self, capsys):
        code, doc = run_json(capsys, "words", "enumerate", "--builtin", "A2")
        assert code == 0
        assert doc["payload"]["count"] == 2
        assert doc["payload"]["words"] == [["1", "2", "1"], ["2", "1", "2"]]

    def test_enumerate_dot(self, capsys):
        code, output = run(capsys, "words", "enumerate", "--builtin", "A2", "--dot")
        assert code == 0
        assert output.startswith("graph words")

    def test_neighbors(self, capsys):
        code, doc = run_json(
            capsys, "words", "neighbors", "--builtin", "B:n=2", "--word", "1,2,1,2"
        )
        assert code == 0
        assert doc["payload"] == [{"word": ["2", "1", "2", "1"], "k": 1, "r": 4}]


class TestStreamedOutput:
    def test_a_large_document_is_never_held_whole_as_text(self, monkeypatch):
        class Sink:
            """Hashes what is written and keeps none of it."""

            size, digest = 0, hashlib.sha256()

            def write(self, text):
                self.size += len(text)
                self.digest.update(text.encode())
                return len(text)

        document = {"status": "ok", "payload": {"words": [["1", "2", "1", "3"]] * 20_000}}
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        size, digest = len(text), hashlib.sha256(text.encode()).hexdigest()
        del text
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._print_json(document)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size == size > 10**6
        assert sink.digest.hexdigest() == digest
        assert peak < size / 8


class TestTransition:
    def test_tropical(self, capsys):
        code, doc = run_json(
            capsys,
            "transition",
            "--builtin",
            "A2",
            "--from",
            "1,2,1",
            "--to",
            "2,1,2",
            "--coords",
            "0,1,2",
            "--semifield",
            "tropz",
        )
        assert code == 0
        assert [entry["c"] for entry in doc["payload"]] == [3, 0, 1]

    def test_trace(self, capsys):
        code, doc = run_json(
            capsys,
            "transition",
            "--builtin",
            "A2",
            "--from",
            "1,2,1",
            "--to",
            "2,1,2",
            "--coords",
            "0,1,2",
            "--trace",
        )
        assert code == 0
        assert len(doc["trace"]) == 2

    def test_rational(self, capsys):
        code, doc = run_json(
            capsys,
            "transition",
            "--builtin",
            "A2",
            "--from",
            "1,2,1",
            "--to",
            "2,1,2",
            "--coords",
            "2,3,2",
            "--semifield",
            "rat",
        )
        assert [entry["c"] for entry in doc["payload"]] == ["3/2", "4", "3/2"]

    def test_lambda_rho(self, capsys):
        code, doc = run_json(
            capsys,
            "lambda",
            "--builtin",
            "A2",
            "--word",
            "1,2,1",
            "--coords",
            "0,1,2",
            "--i",
            "2",
        )
        assert doc["payload"] == {"i": "2", "value": 3}
        code, doc = run_json(
            capsys,
            "rho",
            "--builtin",
            "A2",
            "--word",
            "1,2,1",
            "--coords",
            "0,1,2",
            "--i",
            "1",
        )
        assert doc["payload"] == {"i": "1", "value": 2}

    def test_byte_stability(self, capsys):
        args = (
            "transition",
            "--builtin",
            "A2",
            "--from",
            "1,2,1",
            "--to",
            "2,1,2",
            "--coords",
            "0,1,2",
        )
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestFolded:
    def test_transition(self, capsys):
        code, doc = run_json(
            capsys,
            "folded",
            "transition",
            "--model",
            "a3",
            "--from",
            "2,1,2,1",
            "--to",
            "1,2,1,2",
            "--coords",
            "1,1,1,1",
            "--semifield",
            "rat",
        )
        assert code == 0
        assert doc["payload"]["coords"] == ["1/5", "5/3", "9/5", "1/3"]

    def folded_to(self, capsys, goal):
        return run_json(
            capsys, "folded", "transition", "--model", "a3", "--from", "2,1,2,1",
            "--to", goal, "--coords", "1,1,1,1",
        )

    def test_target_word_checked_in_the_folded_datum(self, capsys):
        code, doc = self.folded_to(capsys, "1,2,1,1")
        assert (code, doc["kind"]) == (1, "not-reduced")
        assert doc["message"] == "1,2,1,1 does not multiply to w_0"
        code, doc = self.folded_to(capsys, "1,2,1")
        assert (code, doc["kind"]) == (1, "not-reduced")
        assert doc["message"] == "expected a word of length 4, got 3"

    def test_compare_models_symbolic(self, capsys):
        code, doc = run_json(
            capsys, "folded", "compare-models", "--coords", "d,c,b,a", "--semifield", "sym"
        )
        assert code == 0
        assert doc["payload"]["ok"] is True

    def test_tropnat_range_error_propagates(self, capsys):
        # moves never underflow on natural coordinates (closure), but a
        # negative input is rejected up front with its own kind
        code, doc = run_json(
            capsys,
            "transition",
            "--builtin",
            "A2",
            "--from",
            "1,2,1",
            "--to",
            "2,1,2",
            "--coords=-1,0,0",
            "--semifield",
            "tropn",
        )
        assert code == 1
        assert doc["kind"] == "tropnat-range"


class TestVerify:
    def test_chain(self, capsys):
        code, doc = run_json(capsys, "verify", "chain", "--id", "b2-from-a3")
        assert code == 0
        assert doc["payload"]["ok"] is True
        assert len(doc["payload"]["steps"]) == 5

    def test_chain_needs_id(self, capsys):
        code, doc = run_json(capsys, "verify", "chain")
        assert code == 2

    def test_word_counts(self, capsys):
        code, doc = run_json(capsys, "verify", "word-counts")
        assert code == 0
        assert doc["payload"]["ok"] is True

    def test_all_small(self, capsys):
        code, output = run(capsys, "verify", "all", "--trials", "20")
        assert code == 0
        assert output.count("PASS") >= 10

    def test_every_registry_check_is_reachable(self, capsys):
        """Each non-chain registry entry runs as `verify <spelling>` under its own name."""
        from foldline.checks import ALL_CHECKS

        spellings = (
            "path-independence", "tropical-b2", "monoid", "frobenius", "crystal",
            "filling-independence", "closed-form", "word-counts",
        )
        reported = []
        for spelling in spellings:
            code, doc = run_json(capsys, "verify", spelling, "--trials", "5")
            assert code == 0
            reported.append(doc["payload"]["name"])
        registry = [name for name, _ in ALL_CHECKS if not name.startswith("chain-")]
        assert sorted(reported) == sorted(registry)
        assert run(capsys, "verify", "monoid-laws")[0] == 2  # spellings are unchanged

    @pytest.mark.parametrize(
        "check, trials",
        [("tropical-b2", "0"), ("tropical-b2", "-3"), ("frobenius", "-1"), ("all", "0")],
    )
    def test_trials_below_one_is_a_usage_error(self, capsys, check, trials):
        code, doc = run_json(capsys, "verify", check, "--trials", trials)
        assert (code, doc["kind"]) == (2, "usage")
        assert doc["message"] == f"--trials must be at least 1, got {trials}"

    def test_registry_defaults_only_a_missing_count(self):
        from foldline.checks import ALL_CHECKS

        run = dict(ALL_CHECKS)["tropical-b2"]
        assert run(0, 0).detail["trials"] == 0
        assert run(0, 3).detail["trials"] == 3
        assert run(0, None).detail["trials"] == 1000

    def test_one_trial_checks_every_monoid_law(self, monkeypatch):
        """With --trials 1, relations (i) and (iii) run once on A2 (3 and 6
        actions) and associativity once per datum (4 products each)."""
        from foldline import checks

        left_mul_gen, mul = checks.left_mul_gen, checks.mul
        actions, products = [], []

        def counted_action(gen, m):
            actions.append(m.datum.rank)
            return left_mul_gen(gen, m)

        def counted_product(x, y):
            products.append(x.datum.rank)
            return mul(x, y)

        monkeypatch.setattr(checks, "left_mul_gen", counted_action)
        monkeypatch.setattr(checks, "mul", counted_product)
        assert checks.check_monoid_laws(0, 1).ok
        assert actions.count(2) == 3 + 6
        assert sorted(products) == [2] * 4 + [3] * 4


class TestWordErrors:
    """Typed errors from reduced-word validation reach the CLI unchanged."""

    def transition(self, capsys, word):
        return run_json(
            capsys, "transition", "--datum", "A2", "--from", word, "--to", "2,1,2",
            "--coords", "0,1,2", "--semifield", "tropz",
        )

    def test_unknown_label(self, capsys):
        code, doc = self.transition(capsys, "1,9,1")
        assert code == 1
        assert (doc["status"], doc["kind"]) == ("error", "unknown-label")
        assert doc["message"] == "unknown node label '9'"

    def test_wrong_length(self, capsys):
        code, doc = self.transition(capsys, "1,2")
        assert code == 1
        assert doc["kind"] == "not-reduced"
        assert doc["message"] == "expected a word of length 3, got 2"

    def test_not_w0(self, capsys):
        code, doc = self.transition(capsys, "1,1,2")
        assert code == 1
        assert doc["kind"] == "not-reduced"
        assert doc["message"] == "1,1,2 does not multiply to w_0"


class TestMonoid:
    def test_mul(self, capsys):
        code, doc = run_json(
            capsys, "monoid", "mul", "--builtin", "A2", "--left", "0,0,0", "--right", "2,1,3"
        )
        assert doc["payload"]["coords"] == [0, 0, 0]

    def test_frobenius(self, capsys):
        code, doc = run_json(
            capsys, "monoid", "frobenius", "--builtin", "A2", "--e", "2", "--coords", "1,2,3"
        )
        assert doc["payload"]["coords"] == [2, 4, 6]

    def test_lstring(self, capsys):
        code, doc = run_json(
            capsys, "monoid", "lstring", "--builtin", "A2", "--i", "2", "--coords", "0,1,2"
        )
        assert doc["payload"]["l_scan"] == 3
        assert doc["payload"]["l_coordinate"] == 3

    def test_crystal_graph_negative_bound(self, capsys):
        code, doc = run_json(capsys, "monoid", "crystal-graph", "--datum", "A2", "--bound", "-1")
        assert (code, doc["kind"]) == (1, "bad-bound")

    def test_crystal_graph_dot(self, capsys):
        code, output = run(
            capsys, "monoid", "crystal-graph", "--builtin", "A2", "--bound", "1", "--dot"
        )
        assert code == 0
        assert output.startswith("digraph crystal")

    def test_lstring_large_coordinate(self, capsys):
        start = time.perf_counter()
        code, doc = run_json(
            capsys, "monoid", "lstring", "--datum", "A2", "--i", "1",
            "--coords", "0,0,100000000",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert doc["payload"]["l_scan"] == doc["payload"]["l_coordinate"] == 0
        assert doc["payload"]["r_scan"] == doc["payload"]["r_coordinate"] == 100000000


class TestMalformedNumbers:
    @pytest.mark.parametrize(
        "argv",
        (
            ("transition", "--datum", "A2", "--from", "121", "--to", "212",
             "--coords", "a,b,c", "--semifield", "rat"),
            ("transition", "--datum", "A2", "--from", "121", "--to", "212",
             "--coords", "1.5,2,3", "--semifield", "tropz"),
            ("lambda", "--datum", "A2", "--word", "121", "--coords", "1/0,1,2",
             "--i", "1", "--semifield", "rat"),
            ("monoid", "mul", "--datum", "A2", "--left", "1,x,2", "--right", "1,1,1"),
            ("monoid", "frobenius", "--datum", "A2", "--e", "2", "--coords", "1,2,z"),
            ("monoid", "lstring", "--datum", "A2", "--i", "1", "--coords", "1,2.0,3"),
        ),
    )
    def test_parse_error_on_stdout_only(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert (code, doc["status"], doc["kind"], captured.err) == (1, "error", "parse", "")


class TestParserErrors:
    """What the argument parser cannot read is a usage error document."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "tropical-b2", "--trials", "x"), "argument --trials: invalid int value: 'x'"),
            (("verify",), "the following arguments are required: what"),
            (("transition", "--datum", "A2", "--from", "121", "--to", "212"),
             "the following arguments are required: --coords"),
            (("transition", "--datum", "A2", "--coords", "1,2,3", "--from", "121", "--to", "212",
              "--semifield", "real"),
             "argument --semifield: invalid choice: 'real'"),
        ],
    )
    def test_usage_document(self, capsys, argv, message):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        doc = json.loads(captured.out)
        assert (doc["status"], doc["kind"]) == ("error", "usage")
        assert doc["message"].startswith(message)  # Python versions add choices differently
        assert captured.err.startswith("usage: foldline")

    def test_value_with_a_leading_minus(self, capsys):
        argv = ("transition", "--datum", "A2", "--from", "121", "--to", "212", "--semifield", "tropz")
        spaced = run_json(capsys, *argv, "--coords", "-1,2,3")
        joined = run_json(capsys, *argv, "--coords=-1,2,3")
        assert spaced == joined
        assert spaced[0] == 0
        assert [entry["c"] for entry in spaced[1]["payload"]] == [6, -1, 2]


class TestLimits:
    """Inputs past a fixed size answer with kind limit in under a second, a
    braid path search past its word limit in a few seconds."""

    def run_limited(self, capsys, *argv):
        start = time.perf_counter()
        code, doc = run_json(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        return code, doc

    @pytest.mark.parametrize("bound", ("4", "5", "8", "40"))
    def test_crystal_graph_past_the_node_limit(self, capsys, bound):
        # A3 has (bound + 1)^6 nodes: 15,625 at bound 4
        code, doc = self.run_limited(
            capsys, "monoid", "crystal-graph", "--datum", "A3", "--bound", bound
        )
        assert (code, doc["kind"]) == (1, "limit")

    def test_crystal_graph_at_the_node_limit(self, capsys):
        code, doc = self.run_limited(
            capsys, "monoid", "crystal-graph", "--datum", "A3", "--bound", "3"
        )
        dot = doc["payload"]["dot"]
        assert code == 0
        assert dot.count("[label=") - dot.count("->") == 4**6

    COUNTED = ("tropical-b2", "monoid", "frobenius", "crystal")

    @pytest.mark.parametrize("check", (*COUNTED, "all"))
    @pytest.mark.parametrize("trials", (TRIALS_LIMIT + 1, 100_000_000))
    def test_trials_past_the_limit(self, capsys, check, trials):
        # unbounded, --trials 100000000 ran past a 20 s timeout
        code, doc = self.run_limited(capsys, "verify", check, "--trials", str(trials))
        assert (code, doc["kind"]) == (1, "limit")

    @pytest.mark.parametrize("check", COUNTED)
    def test_trials_at_the_limit(self, capsys, check):
        start = time.perf_counter()
        code, doc = run_json(capsys, "verify", check, "--trials", str(TRIALS_LIMIT))
        assert time.perf_counter() - start < 5.0  # about 1 s, on a shared host
        assert (code, doc["payload"]["ok"]) == (0, True)

    @pytest.mark.parametrize("cap", ("0", "-5"))
    def test_cap_below_one_is_a_usage_error(self, capsys, cap):
        code, doc = run_json(capsys, "words", "enumerate", "--cap", cap)
        assert (code, doc["kind"]) == (2, "usage")
        assert doc["message"] == f"--cap must be at least 1, got {cap}"

    @pytest.mark.parametrize("cap", (ENUMERATION_LIMIT + 1, 10**12))
    def test_cap_past_the_enumeration_limit(self, capsys, cap):
        # A6 has about 1.1e9 reduced words: with the cap passed, the listing
        # died with a MemoryError under an 800 MB address-space limit
        code, doc = self.run_limited(
            capsys, "words", "enumerate", "--datum", "A6", "--cap", str(cap)
        )
        assert (code, doc["kind"]) == (1, "limit")

    def test_cap_at_the_enumeration_limit(self, capsys):
        code, doc = self.run_limited(
            capsys, "words", "enumerate", "--datum", "A3", "--cap", str(ENUMERATION_LIMIT)
        )
        assert (code, doc["payload"]["count"]) == (0, 16)
        code, doc = self.run_limited(capsys, "words", "enumerate", "--datum", "A5")
        assert (code, doc["kind"]) == (1, "cap-exceeded")  # 292,864 words

    def test_braid_path_search_past_the_word_limit(self, capsys):
        # a far A5 pair visits more than BFS_WORD_LIMIT words; unbounded,
        # this search ran for more than a minute
        start = time.perf_counter()
        code, doc = run_json(
            capsys, "transition", "--datum", "A5", "--from", "121321432154321",
            "--to", "545345234512345", "--coords", ",".join("0" * 15), "--semifield", "tropz",
        )
        assert time.perf_counter() - start < 10.0
        assert (code, doc["kind"]) == (1, "limit")
        assert "braid path search" in doc["message"]

    @pytest.mark.parametrize("name, size", (("A40", 820), ("A64", 2080)))
    @pytest.mark.parametrize("command", ("mul", "lstring"))
    def test_monoid_route_past_the_move_limit(self, capsys, name, size, command):
        coords = ",".join(str(k % 3) for k in range(size))
        if command == "mul":
            argv = ("monoid", "mul", "--datum", name, "--left", coords, "--right", coords)
        else:
            argv = ("monoid", "lstring", "--datum", name, "--i", "1", "--coords", coords)
        code, doc = self.run_limited(capsys, *argv)
        assert (code, doc["kind"]) == (1, "limit")
        assert doc["message"] == "a route needs more than 6000 moves"

    def test_monoid_answers_past_the_search(self, capsys):
        """D5 took a braid path search past its word limit; the monoid now
        walks constructive paths there."""
        coords = ",".join(str(k % 4) for k in range(20))
        for argv in (
            ("mul", "--left", coords, "--right", coords[::-1]),
            ("lstring", "--i", "4'", "--coords", coords),
            ("crystal-graph", "--bound", "0"),
        ):
            code, doc = self.run_limited(capsys, "monoid", argv[0], "--datum", "Dstyle:n=4", *argv[1:])
            assert (code, doc["status"]) == (0, "ok")
        code, doc = self.run_limited(
            capsys, "monoid", "crystal-graph", "--datum", "Dstyle:n=4", "--bound", "1"
        )
        assert (code, doc["kind"]) == (1, "limit")
        assert doc["message"].startswith("the crystal graph has more than 4096 nodes")

    def test_crystal_graph_within_the_node_limit_on_d4(self, capsys):
        """D4 keeps the whole node limit: N = 12 is within the coordinate
        limit, and its --bound 1 graph has 3720 nodes."""
        code, doc = self.run_limited(
            capsys, "monoid", "crystal-graph", "--datum", "D4+triality", "--bound", "1"
        )
        dot = doc["payload"]["dot"]
        assert code == 0
        assert dot.count("[label=") - dot.count("->") == 3720

    def test_crystal_graph_past_the_coordinate_limit(self, capsys):
        # A20's 390 nodes of 210 coordinates fill CRYSTAL_COORDINATE_LIMIT;
        # unbounded, its 4096 nodes took about 4 s
        code, doc = self.run_limited(
            capsys, "monoid", "crystal-graph", "--datum", "A20", "--bound", "1"
        )
        assert (code, doc["kind"]) == (1, "limit")
        assert doc["message"].startswith("the crystal graph has more than 390 nodes")

    @pytest.mark.parametrize("name, status", (("A40", "ok"), ("A64", "ok"), ("Dstyle:n=63", "error")))
    def test_crystal_graph_past_the_compile_size(self, name, status):
        # past 256 coordinates routes run as _run loops; compiled, the work
        # took 0.5 s on A40, 1.8 s on A64 and 3.2 s on Dstyle:n=63.  A raise
        # is two one-leg routes, each within the move limit on A64; one of
        # Dstyle:n=63's legs is past it.  Timed
        # in a fresh process: in this one, caches keyed by an equal datum
        # built earlier compare whole pairings on every lookup
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ("monoid", "crystal-graph", "--datum", name, "--bound", "0")
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "foldline", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert time.perf_counter() - start < 1.0
        doc = json.loads(out.stdout)
        assert doc["status"] == status
        if status == "error":
            assert (out.returncode, doc["message"]) == (1, "a route needs more than 6000 moves")

    @pytest.mark.parametrize(
        "power",
        ("x^101", "x^3000", "x^3000000", "(x+y)^101*z", "(x^100)^100", "((x^10)^10)^2"),
    )
    def test_exponent_past_the_limit(self, capsys, power):
        code, doc = self.run_limited(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", f"{power},y,z", "--semifield", "sym",
        )
        assert (code, doc["kind"]) == (1, "limit")

    @pytest.mark.parametrize("power", ("x^100", "(x^10)^10"))
    def test_exponent_at_the_limit(self, capsys, power):
        code, doc = self.run_limited(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", f"{power},y,z", "--semifield", "sym",
        )
        assert code == 0
        assert doc["payload"][0]["c"] == "y*z / (x^100 + z)"

    def test_product_past_the_token_limit(self, capsys):
        # 4,000 factors are 7,999 tokens; unbounded, they took about 6 s
        code, doc = self.run_limited(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", "*".join(["x"] * 4000) + ",y,z", "--semifield", "sym",
        )
        assert (code, doc["kind"]) == (1, "limit")

    def test_nesting_past_the_limit(self, capsys):
        # 300 levels raised RecursionError; the certificates nest 2 deep
        nested = "(" * 300 + "x" + ")" * 300
        code, doc = self.run_limited(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", f"{nested},y,z", "--semifield", "sym",
        )
        assert (code, doc["kind"]) == (1, "limit")

    def test_nesting_at_the_limit(self, capsys):
        nested = "(" * NESTING_LIMIT + "x" + ")" * NESTING_LIMIT
        code, doc = self.run_limited(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", f"{nested},y,z", "--semifield", "sym",
        )
        assert code == 0
        assert doc["payload"][0]["c"] == "y*z / (x + z)"

    def test_symbolic_expansion_past_the_term_limit(self, capsys):
        # the largest polynomial grew to 190,850 terms in 20-24 s unbounded
        coords = ",".join(f"({x}+{x}{x})" for x in "abcdefghijkl")
        start = time.perf_counter()
        code, doc = run_json(
            capsys, "lambda", "--datum", "D4+triality", "--word", "4,2,3,1,2,4,1,2,3,1,2,1",
            "--coords", coords, "--i", "1", "--semifield", "sym",
        )
        assert time.perf_counter() - start < 2.0
        assert (code, doc["kind"]) == (1, "limit")
        assert doc["message"] == f"a polynomial has more than {TERM_LIMIT} terms"

    def test_product_past_the_term_limit_stops_early(self, capsys):
        # each factor expands to 11,441 terms; unbounded, their product
        # ran for more than 40 s before the limit could see it
        factor = "((a+b+c+d+e+f+g+h+i+j)^7+1)"
        start = time.perf_counter()
        code, doc = run_json(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", f"{factor}*{factor},y,z", "--semifield", "sym",
        )
        assert time.perf_counter() - start < 2.0
        assert (code, doc["kind"]) == (1, "limit")

    @pytest.mark.parametrize("name", [f"A{RANK_LIMIT + 1}", "A99999999", "A" + "1" * 5000,
                                      f"Dstyle:n={RANK_LIMIT}", f"B:n={RANK_LIMIT + 1}"])
    def test_rank_past_the_limit(self, capsys, name):
        # A99999999 would build a pairing of 10^16 entries
        start = time.perf_counter()
        code, doc = run_json(capsys, "datum", "validate", "--builtin", name)
        assert time.perf_counter() - start < 2.0
        assert (code, doc["kind"]) == (1, "limit")

    def test_rank_at_the_limit(self, capsys):
        code, doc = self.run_limited(capsys, "datum", "validate", "--builtin", f"A{RANK_LIMIT}")
        assert code == 0 and len(doc["payload"]["labels"]) == RANK_LIMIT

    def test_file_rank_past_the_limit(self, capsys, tmp_path):
        n = RANK_LIMIT + 1
        path = tmp_path / "datum.json"
        path.write_text(json.dumps({"labels": list(range(n)), "pairing": [[2] * n] * n}))
        code, doc = run_json(capsys, "datum", "validate", "--file", str(path))
        assert (code, doc["kind"]) == (1, "limit")
        assert doc["message"] == f"rank {n} is above {RANK_LIMIT}"

    def test_factors_past_the_limit(self, capsys):
        # fifty factors (1+x)^100 are 5,000 polynomial factors; before the
        # bound, expanding them for the sum ran past a 30 s timeout
        product = "*".join(["(1+x)^100"] * 50)
        code, doc = self.run_limited(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", f"{product}+1,y,z", "--semifield", "sym",
        )
        assert (code, doc["kind"]) == (1, "limit")
        assert doc["message"] == f"symbolic input has 1100 factors, above {FACTOR_LIMIT}"

    def test_factors_of_all_coordinates_count_together(self, capsys):
        power = "*".join(["x^100"] * 6)  # 600 factors in each of two coordinates
        code, doc = self.run_limited(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", f"{power},{power},z", "--semifield", "sym",
        )
        assert (code, doc["kind"]) == (1, "limit")

    def test_factors_at_the_limit(self, capsys):
        product = "*".join(["(1+x)^100"] * 10)
        start = time.perf_counter()
        code, doc = run_json(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", f"{product}+1,y,z", "--semifield", "sym",
        )
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert doc["payload"][1]["c"].startswith("(x^1000 + 1000*x^999 + ")

    def test_product_under_the_token_limit(self, capsys):
        code, doc = self.run_limited(
            capsys, "transition", "--datum", "A2", "--from", "121", "--to", "212",
            "--coords", "*".join(["x"] * 400) + ",y,z", "--semifield", "sym",
        )
        assert code == 0
        assert doc["payload"][0]["c"] == "y*z / (x^400 + z)"
