"""Command-line front end.

Every subcommand prints one JSON document: ``{"status": "ok", "payload":
...}`` on success (plus ``"trace"`` where requested) or ``{"status":
"error", "kind": ..., "message": ...}`` on failure.  Usage errors exit 2,
domain errors exit 1.  Output is deterministic for fixed inputs and
``--seed``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import chamber, checks, folding, monoid
from .cartan import builtin, fold, load_datum_file
from .errors import FoldlineError, SemifieldError, UsageError
from .exprs import parse_value
from .semifield import SemifieldValue, TropInt, model_by_name
from .weyl import DEFAULT_ENUMERATION_CAP, base_word, braid_neighbors, enumerate_reduced_words
from .weyl import word_for_w0


def _split_csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _split_word(text: str) -> tuple[str, ...]:
    """Letters from '1,2,1' or compact '121' (primes attach to the left)."""
    if "," in text:
        return _split_csv(text)
    letters: list[str] = []
    for char in text.strip():
        if char == "'" and letters:
            letters[-1] += "'"
        else:
            letters.append(char)
    return tuple(letters)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _numbers(text: str, number: type = int) -> tuple:
    """Comma-separated numbers; a malformed one is a ``parse`` error."""
    out = []
    for part in _split_csv(text):
        try:
            out.append(number(part))
        except (ValueError, ZeroDivisionError):
            raise SemifieldError("parse", f"cannot read {part!r} as {number.__name__}") from None
    return tuple(out)


def _parse_coords(text: str, semifield: str) -> tuple[SemifieldValue, ...]:
    parts = _split_csv(text)
    if not parts:
        raise UsageError("no coordinates given")
    names = sorted({name for part in parts for name in _IDENT.findall(part)})
    model = model_by_name(semifield, tuple(names))
    if semifield == "sym":
        env = model.vars()
        return tuple(parse_value(part, model, env) for part in parts)
    return tuple(map(model.value, _numbers(text, Fraction if semifield == "rat" else int)))


def _value_json(value: SemifieldValue):
    if isinstance(value, TropInt):
        return value.n
    return str(value)


def _decorated_json(dw) -> list[dict]:
    return [
        {"i": letter, "c": _value_json(value)}
        for letter, value in zip(dw.word.letters, dw.coords)
    ]


def _datum_of(args) -> tuple:
    if getattr(args, "file", None):
        return load_datum_file(args.file)
    name = getattr(args, "datum", None) or getattr(args, "builtin", None)
    return builtin(name or "A2")


def _print_json(document: dict) -> None:
    """The one printer of every JSON document the CLI writes."""
    print(json.dumps(document, indent=2, sort_keys=True))


def _emit(payload, trace=None) -> int:
    document = {"status": "ok", "payload": payload}
    if trace is not None:
        document["trace"] = trace
    _print_json(document)
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_datum_validate(args) -> int:
    datum, sigma = _datum_of(args)
    payload = datum.to_json(sigma)
    payload["simply_laced"] = datum.simply_laced
    payload["irreducible"] = datum.irreducible
    return _emit(payload)


def _cmd_datum_fold(args) -> int:
    datum, sigma = _datum_of(args)
    if sigma is None:
        raise UsageError("folding needs an automorphism (builtin with one, or 'sigma' in the file)")
    folded = fold(datum, sigma)
    return _emit(
        {
            "orbits": [list(orbit) for orbit in folded.orbits],
            "delta_eta": list(folded.delta_eta),
            "delta": folded.delta,
            "folded": folded.folded.to_json(),
        }
    )


def _cmd_words_enumerate(args) -> int:
    datum, _ = _datum_of(args)
    graph = enumerate_reduced_words(datum, cap=args.cap)
    if args.dot:
        print(graph.to_dot())
        return 0
    return _emit(
        {
            "count": len(graph.vertices),
            "n": len(base_word(datum).letters),
            "words": [list(w) for w in graph.vertices],
            "edges": [list(edge) for edge in graph.edges],
        }
    )


def _cmd_words_neighbors(args) -> int:
    datum, _ = _datum_of(args)
    word = word_for_w0(datum, _split_word(args.word))
    return _emit(
        [
            {"word": list(w.letters), "k": k, "r": r}
            for w, k, r in braid_neighbors(word)
        ]
    )


def _cmd_transition(args) -> int:
    datum, _ = _datum_of(args)
    coords = _parse_coords(args.coords, args.semifield)
    source = chamber.decorated(datum, _split_word(args.from_word), coords)
    target = word_for_w0(datum, _split_word(args.to_word))
    if args.trace:
        step = source
        trace = [{"move": None, "decorated": _decorated_json(step)}]
        for k, r in chamber.move_path(datum, source.word.letters, target.letters):
            step = chamber.apply_move(step, k, r)
            trace.append({"move": [k, r], "decorated": _decorated_json(step)})
        return _emit(_decorated_json(step), trace=trace)
    moved = chamber.transition(source, target)
    return _emit(_decorated_json(moved))


def _cmd_coordinate_read(args, use_lambda: bool) -> int:
    datum, _ = _datum_of(args)
    coords = _parse_coords(args.coords, args.semifield)
    dw = chamber.decorated(datum, _split_word(args.word), coords)
    read = chamber.lambda_coord if use_lambda else chamber.rho_coord
    return _emit({"i": args.i, "value": _value_json(read(dw, args.i))})


def _cmd_folded_transition(args) -> int:
    fd = folding.standard_folding(args.model)
    coords = _parse_coords(args.coords, args.semifield)
    fdw = folding.folded_decorated(fd, _split_word(args.from_word), coords)
    moved = folding.folded_transition(fdw, _split_word(args.to_word))
    return _emit(
        {
            "word": list(moved.letters),
            "coords": [_value_json(value) for value in moved.coords],
        }
    )


def _cmd_folded_compare(args) -> int:
    coords = _parse_coords(args.coords, args.semifield)
    report = folding.compare_models(coords)
    return _emit(
        {
            "via_a3": [_value_json(v) for v in report["via_a3"]],
            "via_a4": [_value_json(v) for v in report["via_a4"]],
            "closed_form": [_value_json(v) for v in report["closed_form"]],
            "models_agree": report["models_agree"],
            "closed_form_agrees": report["closed_form_agrees"],
            "ok": report["ok"],
        }
    )


# The CLI spells two registry checks shorter; chains go through "chain --id".
_VERIFY_SPELLINGS = {"monoid-laws": "monoid", "closed-form-models": "closed-form"}
_VERIFY_RUNNERS = {
    _VERIFY_SPELLINGS.get(name, name): run
    for name, run in checks.ALL_CHECKS
    if not name.startswith("chain-")
}


def _cmd_verify(args) -> int:
    if args.what == "chain":
        if not args.id:
            raise UsageError("verify chain needs --id")
        certificate = folding.verify_chain(args.id)
        _emit(certificate.to_json())
        return 0 if certificate.ok else 1
    if args.what == "all":
        results = checks.check_all(args.seed, args.trials)
        for result in results:
            print(f"{'PASS' if result.ok else 'FAIL'}  {result.name}")
        _emit([result.to_json() for result in results])
        return 0 if all(result.ok for result in results) else 1
    result = _VERIFY_RUNNERS[args.what](args.seed, args.trials)
    _emit(result.to_json())
    return 0 if result.ok else 1


def _cmd_monoid_mul(args) -> int:
    datum, _ = _datum_of(args)
    letters = base_word(datum).letters
    left = monoid.MonoidElement(datum, _numbers(args.left))
    right = monoid.MonoidElement(datum, _numbers(args.right))
    product = monoid.mul(left, right)
    return _emit({"word": list(letters), "coords": list(product.coords)})


def _cmd_monoid_frobenius(args) -> int:
    datum, _ = _datum_of(args)
    element = monoid.MonoidElement(datum, _numbers(args.coords))
    scaled = monoid.frobenius(args.e, element)
    return _emit({"word": list(scaled.word.letters), "coords": list(scaled.coords)})


def _cmd_monoid_lstring(args) -> int:
    datum, _ = _datum_of(args)
    element = monoid.MonoidElement(datum, _numbers(args.coords))
    return _emit(
        {
            "i": args.i,
            "l_scan": monoid.l_scan(element, args.i),
            "l_coordinate": monoid.l_coordinate(element, args.i),
            "r_scan": monoid.r_scan(element, args.i),
            "r_coordinate": monoid.r_coordinate(element, args.i),
        }
    )


def _cmd_monoid_crystal(args) -> int:
    datum, _ = _datum_of(args)
    dot = monoid.crystal_graph_dot(datum, args.bound)
    if args.dot:
        print(dot)
        return 0
    return _emit({"dot": dot})


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldline",
        description="Exact transition maps, diagram folding, and the tropical monoid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_datum_flags(p):
        p.add_argument("--datum", help="builtin datum name (alias of --builtin)")
        p.add_argument("--builtin", help="builtin datum name (e.g. A2, A4+flip, Dstyle:n=2, B:n=2, D4+triality)")
        p.add_argument("--file", help="JSON datum file {labels, pairing, sigma?}")

    datum = sub.add_parser("datum", help="validate or fold Cartan data")
    datum_sub = datum.add_subparsers(dest="action", required=True)
    p = datum_sub.add_parser("validate")
    add_datum_flags(p)
    p.set_defaults(run=_cmd_datum_validate)
    p = datum_sub.add_parser("fold")
    add_datum_flags(p)
    p.set_defaults(run=_cmd_datum_fold)

    p = sub.add_parser("fold", help="shortcut for 'datum fold'")
    add_datum_flags(p)
    p.set_defaults(run=_cmd_datum_fold)

    words = sub.add_parser("words", help="reduced words for the longest element")
    words_sub = words.add_subparsers(dest="action", required=True)
    p = words_sub.add_parser("enumerate")
    add_datum_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--dot", action="store_true", help="emit the word graph as DOT")
    p.set_defaults(run=_cmd_words_enumerate)
    p = words_sub.add_parser("neighbors")
    add_datum_flags(p)
    p.add_argument("--word", required=True, help="comma-separated letters")
    p.set_defaults(run=_cmd_words_neighbors)

    p = sub.add_parser("transition", help="transport coordinates between words")
    add_datum_flags(p)
    p.add_argument("--from", dest="from_word", required=True)
    p.add_argument("--to", dest="to_word", required=True)
    p.add_argument("--coords", required=True)
    p.add_argument("--semifield", default="tropz", choices=("rat", "tropz", "tropn", "sym"))
    p.add_argument("--trace", action="store_true", help="include every intermediate decorated word")
    p.set_defaults(run=_cmd_transition)

    for name, flag in (("lambda", True), ("rho", False)):
        p = sub.add_parser(name, help=f"read the {name} coordinate of a component")
        add_datum_flags(p)
        p.add_argument("--word", required=True)
        p.add_argument("--coords", required=True)
        p.add_argument("--i", required=True)
        p.add_argument("--semifield", default="tropz", choices=("rat", "tropz", "tropn", "sym"))
        p.set_defaults(run=lambda args, use=flag: _cmd_coordinate_read(args, use))

    folded = sub.add_parser("folded", help="transition maps between folded words")
    folded_sub = folded.add_subparsers(dest="action", required=True)
    p = folded_sub.add_parser("transition")
    p.add_argument("--model", default="a3", choices=("a3", "a4", "d4"))
    p.add_argument("--from", dest="from_word", required=True)
    p.add_argument("--to", dest="to_word", required=True)
    p.add_argument("--coords", required=True)
    p.add_argument("--semifield", default="rat", choices=("rat", "tropz", "tropn", "sym"))
    p.set_defaults(run=_cmd_folded_transition)
    p = folded_sub.add_parser("compare-models")
    p.add_argument("--coords", required=True)
    p.add_argument("--semifield", default="sym", choices=("rat", "tropz", "tropn", "sym"))
    p.set_defaults(run=_cmd_folded_compare)

    p = sub.add_parser("verify", help="run verification procedures")
    p.add_argument("what", choices=("chain", *_VERIFY_RUNNERS, "all"))
    p.add_argument("--id", help=f"chain id ({' or '.join(folding.CHAIN_IDS)})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--level", default="desk", choices=("desk",))
    p.set_defaults(run=_cmd_verify)

    mono = sub.add_parser("monoid", help="normal forms, products, crystal structure")
    mono_sub = mono.add_subparsers(dest="action", required=True)
    p = mono_sub.add_parser("mul")
    add_datum_flags(p)
    p.add_argument("--left", required=True, help="base-word coordinates, comma-separated")
    p.add_argument("--right", required=True)
    p.set_defaults(run=_cmd_monoid_mul)
    p = mono_sub.add_parser("frobenius")
    add_datum_flags(p)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--coords", required=True)
    p.set_defaults(run=_cmd_monoid_frobenius)
    p = mono_sub.add_parser("lstring")
    add_datum_flags(p)
    p.add_argument("--i", required=True)
    p.add_argument("--coords", required=True)
    p.set_defaults(run=_cmd_monoid_lstring)
    p = mono_sub.add_parser("crystal-graph")
    add_datum_flags(p)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(run=_cmd_monoid_crystal)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_error:
        return 2 if exit_error.code not in (0, None) else 0
    try:
        return args.run(args)
    except FoldlineError as error:
        _print_json({"status": "error", "kind": error.kind, "message": str(error)})
        return 2 if isinstance(error, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
