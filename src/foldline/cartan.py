"""Cartan data, diagram automorphisms, and diagram folding.

A Cartan datum is a finite label set I together with a symmetric positive
definite integer pairing i.j such that i.i is a positive even integer and
2(i.j)/(i.i) is a nonpositive integer for i != j.  A pairing-preserving
permutation sigma of I folds the datum: the sigma-orbits become the nodes
of a new datum whose pairing is computed from orbit sizes and the original
pairing.  Folding a simply laced datum yields the nonsimply-laced types;
the two standard degenerate-orbit behaviours are tracked by the per-orbit
weight delta_eta in {1, 2} and its maximum delta.

Everything here is exact integer arithmetic; positive definiteness is
decided by leading principal minors computed with fraction-free elimination.
Labels are opaque strings ordered by ``(len(label), label)``, which sorts
decimal labels numerically and places primed labels like ``2'`` after their
base node.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DatumError

Matrix = tuple[tuple[int, ...], ...]

# Largest rank accepted. Validating A_64 takes 0.2 s as one CLI process and
# A_400 3.0 s, and A_99999999 would build a pairing of 10^16 entries.
RANK_LIMIT = 64


def label_key(label: str) -> tuple[int, str]:
    """Canonical ordering key for node labels."""
    return (len(label), label)


@dataclass(frozen=True)
class CartanDatum:
    """A validated Cartan datum: ordered labels plus the pairing matrix."""

    labels: tuple[str, ...]
    pairing: Matrix
    simply_laced: bool
    irreducible: bool

    def __post_init__(self):
        # A datum keys many caches, so its hash is computed once; it equals
        # the hash of the field tuple, as the generated one would.
        fields = (self.labels, self.pairing, self.simply_laced, self.irreducible)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy, _hash.
        return (CartanDatum, (self.labels, self.pairing, self.simply_laced, self.irreducible))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DatumError("unknown-label", f"unknown node label {label!r}") from None

    def dot(self, i: str, j: str) -> int:
        """The pairing i.j."""
        return self.pairing[self.index(i)][self.index(j)]

    def cartan_integer(self, i: str, j: str) -> int:
        """2(i.j)/(i.i); an integer by validation."""
        a, b = self.index(i), self.index(j)
        return 2 * self.pairing[a][b] // self.pairing[a][a]

    @property
    def rank(self) -> int:
        return len(self.labels)

    def to_json(self, sigma: "Optional[DiagramAutomorphism]" = None) -> dict:
        doc = {"labels": list(self.labels), "pairing": [list(r) for r in self.pairing]}
        if sigma is not None:
            doc["sigma"] = {i: sigma.apply(i) for i in self.labels}
        return doc


def _check_rank(rank: int) -> None:
    if rank > RANK_LIMIT:
        raise DatumError("limit", f"rank {rank} is above {RANK_LIMIT}")


def validate_datum(labels: Sequence[str], pairing: Sequence[Sequence[int]]) -> CartanDatum:
    """Validate and classify a pairing matrix as a Cartan datum.

    Rejections carry distinct kinds: ``shape``, ``limit`` (rank above
    ``RANK_LIMIT``), ``labels``, ``non-integral`` (matrix entries or Cartan
    integers), ``asymmetric``, ``bad-diagonal``, ``bad-off-diagonal``,
    ``not-positive-definite``.
    """
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if n == 0:
        raise DatumError("shape", "empty label set")
    _check_rank(n)
    if len(set(labels)) != n:
        raise DatumError("labels", "duplicate node labels")
    if len(pairing) != n or any(len(row) != n for row in pairing):
        raise DatumError("shape", f"pairing must be a {n}x{n} matrix")
    for row in pairing:
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise DatumError("non-integral", f"pairing entry {entry!r} is not an integer")
    matrix: Matrix = tuple(tuple(row) for row in pairing)
    for a in range(n):
        for b in range(a + 1, n):
            if matrix[a][b] != matrix[b][a]:
                raise DatumError(
                    "asymmetric",
                    f"pairing is not symmetric at ({labels[a]}, {labels[b]})",
                )
    for a in range(n):
        diag = matrix[a][a]
        if diag <= 0 or diag % 2 != 0:
            raise DatumError(
                "bad-diagonal",
                f"{labels[a]}.{labels[a]} = {diag} is not a positive even integer",
            )
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if matrix[a][b] > 0:
                raise DatumError(
                    "bad-off-diagonal",
                    f"{labels[a]}.{labels[b]} = {matrix[a][b]} is positive",
                )
            if (2 * matrix[a][b]) % matrix[a][a] != 0:
                raise DatumError(
                    "non-integral",
                    f"2({labels[a]}.{labels[b]})/({labels[a]}.{labels[a]}) is not an integer",
                )
    # Fraction-free (Bareiss) elimination: each pivot is the leading
    # principal minor of its order, and every division is exact.
    m = [list(row) for row in matrix]
    previous = 1
    for k in range(n):
        minor = m[k][k]
        if minor <= 0:
            raise DatumError(
                "not-positive-definite",
                f"leading principal minor of order {k + 1} is {minor}",
            )
        for a in range(k + 1, n):
            for b in range(k + 1, n):
                m[a][b] = (m[a][b] * minor - m[a][k] * m[k][b]) // previous
        previous = minor
    simply = all(
        matrix[a][a] == 2 and (a == b or matrix[a][b] in (0, -1))
        for a in range(n)
        for b in range(n)
    )
    return CartanDatum(labels, matrix, simply, _is_irreducible(matrix))


def _is_irreducible(matrix: Matrix) -> bool:
    n = len(matrix)
    seen = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for b in range(n):
            if b not in seen and matrix[a][b] != 0:
                seen.add(b)
                frontier.append(b)
    return len(seen) == n


def h_value(datum: CartanDatum, i: str, j: str) -> int:
    """Order of s_i s_j: 2, 3, 4 or 6 for product of Cartan integers 0, 1, 2, 3."""
    if i == j:
        raise DatumError("equal-nodes", "h(i, j) needs two distinct nodes")
    product = datum.cartan_integer(i, j) * datum.cartan_integer(j, i)
    try:
        return {0: 2, 1: 3, 2: 4, 3: 6}[product]
    except KeyError:  # impossible for a positive definite pairing
        raise DatumError("bad-pairing", f"Cartan integer product {product} out of range")


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A pairing-preserving permutation of the nodes of a datum."""

    datum: CartanDatum
    images: tuple[str, ...]  # aligned with datum.labels
    order: int

    def apply(self, label: str) -> str:
        return self.images[self.datum.index(label)]

    def apply_word(self, letters: Sequence[str]) -> tuple[str, ...]:
        return tuple(self.apply(i) for i in letters)

    def orbits(self) -> tuple[tuple[str, ...], ...]:
        """Orbits as label tuples sorted internally and by minimum label."""
        seen: set[str] = set()
        out = []
        for start in self.datum.labels:
            if start in seen:
                continue
            orbit = []
            current = start
            while current not in seen:
                seen.add(current)
                orbit.append(current)
                current = self.apply(current)
            out.append(tuple(sorted(orbit, key=label_key)))
        return tuple(sorted(out, key=lambda orb: label_key(orb[0])))


def validate_automorphism(datum: CartanDatum, mapping: dict[str, str]) -> DiagramAutomorphism:
    images = []
    for label in datum.labels:
        image = mapping.get(label)
        if image is None or image not in datum.labels:
            raise DatumError("bad-sigma", f"sigma must map every node; bad entry for {label!r}")
        images.append(image)
    if len(set(images)) != len(images):
        raise DatumError("bad-sigma", "sigma is not a bijection")
    for i in datum.labels:
        for j in datum.labels:
            if datum.dot(mapping[i], mapping[j]) != datum.dot(i, j):
                raise DatumError(
                    "bad-sigma",
                    f"sigma does not preserve the pairing at ({i}, {j})",
                )
    order = 1
    current = {i: mapping[i] for i in datum.labels}
    while any(current[i] != i for i in datum.labels):
        current = {i: mapping[current[i]] for i in datum.labels}
        order += 1
    return DiagramAutomorphism(datum, tuple(images), order)


def identity_automorphism(datum: CartanDatum) -> DiagramAutomorphism:
    return DiagramAutomorphism(datum, datum.labels, 1)


@dataclass(frozen=True)
class FoldedDatum:
    """Result of folding (I, .) along sigma: orbits and the new datum.

    delta_eta is 1 on orbits whose distinct nodes are pairwise orthogonal
    and 2 otherwise; delta is the maximum.  Orbit labels in the folded
    datum are the minimum source labels.
    """

    source: CartanDatum
    sigma: DiagramAutomorphism
    orbits: tuple[tuple[str, ...], ...]
    delta_eta: tuple[int, ...]
    delta: int
    folded: CartanDatum

    def orbit_of(self, folded_label: str) -> tuple[str, ...]:
        return self.orbits[self.folded.index(folded_label)]


def fold(datum: CartanDatum, sigma: DiagramAutomorphism) -> FoldedDatum:
    """Fold a simply laced datum along a pairing-preserving permutation."""
    if sigma.datum != datum:
        raise DatumError("bad-sigma", "automorphism belongs to a different datum")
    if not datum.simply_laced:
        raise DatumError("not-simply-laced", "folding is defined for simply laced data")
    orbits = sigma.orbits()
    delta_eta = []
    for orbit in orbits:
        joined = any(
            datum.dot(i, j) != 0 for i in orbit for j in orbit if i != j
        )
        delta_eta.append(2 if joined else 1)
    delta = max(delta_eta)
    if delta == 2 and not datum.irreducible:
        raise DatumError(
            "delta2-reducible",
            "a joined orbit (delta = 2) requires an irreducible datum",
        )
    size = len(orbits)
    pairing = [[0] * size for _ in range(size)]
    for a, eta in enumerate(orbits):
        value = Fraction(2 * delta_eta[a] * len(eta), delta)
        if value.denominator != 1:
            raise DatumError("fold-fraction", f"orbit pairing {value} is not an integer")
        pairing[a][a] = int(value)
        for b in range(a + 1, size):
            eta2 = orbits[b]
            crossings = sum(
                1 for i in eta for j in eta2 if datum.dot(i, j) != 0
            )
            value = Fraction(-delta_eta[a] * delta_eta[b] * crossings, delta)
            if value.denominator != 1:
                raise DatumError("fold-fraction", f"orbit pairing {value} is not an integer")
            pairing[a][b] = pairing[b][a] = int(value)
    labels = tuple(orbit[0] for orbit in orbits)
    folded = validate_datum(labels, pairing)
    return FoldedDatum(datum, sigma, orbits, tuple(delta_eta), delta, folded)


# ---------------------------------------------------------------------------
# Built-in data


def _size(digits: str, extra: int = 0) -> int:
    """n in a builtin name whose datum has rank n + extra, checked before
    anything is built."""
    size = int(digits) if len(digits) <= 9 else 10**9  # int() refuses 4301 digits
    _check_rank(size + extra)
    return size


def _path_pairing(n: int) -> list[list[int]]:
    return [
        [2 if a == b else (-1 if abs(a - b) == 1 else 0) for b in range(n)]
        for a in range(n)
    ]


def builtin(name: str) -> tuple[CartanDatum, Optional[DiagramAutomorphism]]:
    """Named standard data: A_m, A_2n with the flip, the D-style datum with
    its swap, the B_n target datum, and D_4 with a triality 3-cycle."""
    if match := re.fullmatch(r"A(\d+)", name):
        m = _size(match.group(1))
        if m < 1:
            raise DatumError("bad-size", "A_m needs m >= 1")
        labels = [str(i) for i in range(1, m + 1)]
        return validate_datum(labels, _path_pairing(m)), None
    if match := re.fullmatch(r"A(\d+)\+flip", name):
        m = _size(match.group(1))
        if m < 2 or m % 2 != 0:
            raise DatumError("bad-size", "the flip involution needs A_2n with n >= 1")
        datum, _ = builtin(f"A{m}")
        mapping = {str(i): str(m + 1 - i) for i in range(1, m + 1)}
        return datum, validate_automorphism(datum, mapping)
    if match := re.fullmatch(r"Dstyle:n=(\d+)", name):
        n = _size(match.group(1), extra=1)
        if n < 1:
            raise DatumError("bad-size", "the D-style datum needs n >= 1")
        labels = [str(i) for i in range(1, n + 1)] + [f"{n}'"]
        pairing = _path_pairing(n + 1)
        # node n' is attached to n-1 (if any) and orthogonal to n
        idx_n, idx_np = n - 1, n
        pairing[idx_np][idx_n] = pairing[idx_n][idx_np] = 0
        if n >= 2:
            pairing[idx_np][n - 2] = pairing[n - 2][idx_np] = -1
        datum = validate_datum(labels, pairing)
        mapping = {label: label for label in labels}
        mapping[str(n)], mapping[f"{n}'"] = f"{n}'", str(n)
        return datum, validate_automorphism(datum, mapping)
    if match := re.fullmatch(r"B:n=(\d+)", name):
        n = _size(match.group(1))
        if n < 1:
            raise DatumError("bad-size", "the B-type datum needs n >= 1")
        labels = [str(i) for i in range(1, n + 1)]
        pairing = _path_pairing(n)
        pairing[n - 1][n - 1] = 4
        if n >= 2:
            pairing[n - 1][n - 2] = pairing[n - 2][n - 1] = -2
        return validate_datum(labels, pairing), None
    if name == "D4+triality":
        labels = ["1", "2", "3", "4"]
        pairing = [
            [2, -1, 0, 0],
            [-1, 2, -1, -1],
            [0, -1, 2, 0],
            [0, -1, 0, 2],
        ]
        datum = validate_datum(labels, pairing)
        mapping = {"1": "3", "3": "4", "4": "1", "2": "2"}
        return datum, validate_automorphism(datum, mapping)
    raise DatumError("unknown-builtin", f"unknown builtin datum {name!r}")


def datum_from_json(doc: dict) -> tuple[CartanDatum, Optional[DiagramAutomorphism]]:
    """Parse the interchange format {labels, pairing, sigma?}."""
    try:
        labels, pairing, sigma = doc["labels"], doc["pairing"], doc.get("sigma")
    except (KeyError, TypeError):
        raise DatumError("shape", "datum document needs 'labels' and 'pairing'") from None
    if not isinstance(labels, list) or not isinstance(pairing, list) or not all(
        isinstance(row, list) for row in pairing
    ):
        raise DatumError("shape", "'labels' must be a list and 'pairing' a list of lists")
    if sigma is not None and not isinstance(sigma, dict):
        raise DatumError("bad-sigma", "'sigma' must map each label to its image")
    datum = validate_datum(labels, pairing)
    return datum, None if sigma is None else validate_automorphism(datum, sigma)


def load_datum_file(path: str) -> tuple[CartanDatum, Optional[DiagramAutomorphism]]:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as error:
        raise DatumError("no-file", f"cannot read {path}: {error.strerror}") from None
    except ValueError as error:  # malformed JSON, or bytes that are not UTF-8
        raise DatumError("bad-json", f"{path} is not a JSON document: {error}") from None
    return datum_from_json(doc)
