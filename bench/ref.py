"""The benchmark's own reference arithmetic, independent of foldline.

Everything here works on plain tuples of labels and plain ints or
Fractions: Coxeter data for the simply laced types the workloads use,
reduced words for w_0 from a descent walk, braid-move paths from Tits'
constructive solution of the word problem (each path is validated letter
by letter before use), min-plus and rational replays of the coordinate
moves, and the tropical monoid built on them.  The oracles compare
foldline's answers with these replays; by path independence any valid
move path gives the same coordinates.
"""

from __future__ import annotations

from fractions import Fraction


def label_key(label):
    return (len(label), label)


class Coxeter:
    """A simply laced datum: labels and the set of joined pairs."""

    def __init__(self, labels, joined):
        self.labels = tuple(sorted(labels, key=label_key))
        self.joined = frozenset(frozenset(pair) for pair in joined)
        self.cartan = {
            (p, q): 2 if p == q else (-1 if frozenset((p, q)) in self.joined else 0)
            for p in self.labels
            for q in self.labels
        }
        self._w0 = self._longest()
        self.base = self.walk(None)

    def m(self, p, q):
        """Braid length: 3 for joined nodes, 2 for orthogonal ones."""
        return 3 if frozenset((p, q)) in self.joined else 2

    def dot(self, p, q):
        return self.cartan[p, q]

    # Elements are dicts label -> image of the simple root, as a coefficient
    # tuple in label order; w s_j sends alpha_k to w(alpha_k) - a_jk w(alpha_j).
    def _times_simple(self, w, j):
        wj = w[j]
        return {
            k: tuple(a - self.cartan[j, k] * b for a, b in zip(w[k], wj))
            for k in self.labels
        }

    def _descents(self, w):
        return [j for j in self.labels if min(w[j]) < 0]

    def _identity(self):
        return {
            k: tuple(int(k == l) for l in self.labels) for k in self.labels
        }

    def _longest(self):
        w = self._identity()
        while True:
            ascents = [j for j in self.labels if min(w[j]) >= 0]
            if not ascents:
                return w
            w = self._times_simple(w, ascents[0])

    def walk(self, rng, first=None):
        """A reduced word for w_0 by a descent walk.

        ``rng`` picks uniformly among the descents; ``None`` takes the
        smallest, which gives the lexicographically least word (foldline's
        base word).  ``first`` forces the first letter.
        """
        w, word = self._w0, []
        while True:
            descents = self._descents(w)
            if not descents:
                return tuple(word)
            if first is not None and not word:
                j = first
            elif rng is None:
                j = descents[0]
            else:
                j = rng.choice(descents)
            word.append(j)
            w = self._times_simple(w, j)

    def first_word(self, i):
        return self.walk(None, first=i)

    def last_word(self, i):
        return tuple(reversed(self.first_word(i)))


def path_a(n):
    labels = [str(i) for i in range(1, n + 1)]
    return Coxeter(labels, [(labels[a], labels[a + 1]) for a in range(n - 1)])


D4 = (("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("2", "4")))
DSTYLE2 = (("1", "2", "2'"), (("1", "2"), ("1", "2'")))


def coxeter(name):
    """The simply laced data the workloads use, by foldline builtin name."""
    if name.startswith("A") and name[1:].split("+")[0].isdigit():
        return path_a(int(name[1:].split("+")[0]))
    if name == "D4+triality":
        return Coxeter(*D4)
    if name == "Dstyle:n=2":
        return Coxeter(*DSTYLE2)
    raise ValueError(f"no reference datum for {name!r}")


def same_datum(cox, labels, pairing):
    """True iff foldline's datum has the labels and pairing of ``cox``."""
    labels = tuple(labels)
    if set(labels) != set(cox.labels):
        return False
    return all(
        pairing[a][b] == cox.dot(p, q)
        for a, p in enumerate(labels)
        for b, q in enumerate(labels)
    )


# ---------------------------------------------------------------------------
# Braid-move paths


def tits_path(cox, start, goal):
    """Moves (k, r), 1-based, taking ``start`` to ``goal``.

    Bring goal's letters to the front one at a time; to bring i to the
    front of a suffix starting with j, first make the suffix start with the
    alternating word (j, i, j, ...) of length m(i, j), recursively, then
    apply one braid move.
    """
    current = list(start)
    moves = []

    def front(t, i):
        j = current[t]
        if j == i:
            return
        r = cox.m(i, j)
        for s in range(1, r):
            front(t + s, i if s % 2 else j)
        current[t : t + r] = [i if s % 2 == 0 else j for s in range(r)]
        moves.append((t + 1, r))

    for t, i in enumerate(goal):
        front(t, i)
    return moves


class PathError(Exception):
    pass


def validate_path(cox, start, goal, moves):
    """Replay the moves on letters, checking every move; raise PathError."""
    current = list(start)
    for k, r in moves:
        k0 = k - 1
        if k0 < 0 or k0 + r > len(current):
            raise PathError(f"move ({k}, {r}) does not fit")
        p, q = current[k0], current[k0 + 1]
        if p == q or r != cox.m(p, q):
            raise PathError(f"move ({k}, {r}) on letters {p}, {q}")
        if current[k0 : k0 + r] != [p if s % 2 == 0 else q for s in range(r)]:
            raise PathError(f"segment at ({k}, {r}) is not alternating")
        current[k0 : k0 + r] = [q if s % 2 == 0 else p for s in range(r)]
    if tuple(current) != tuple(goal):
        raise PathError("path does not end at the goal word")


def checked_path(cox, start, goal):
    moves = tits_path(cox, start, goal)
    validate_path(cox, start, goal, moves)
    return moves


# ---------------------------------------------------------------------------
# Coordinate replays


def minplus3(x, y, z):
    m = min(x, z)
    return y + z - m, m, x + y - m


def rational3(x, y, z):
    s = x + z
    return y * z / s, s, x * y / s


def replay(coords, moves, move3):
    out = list(coords)
    for k, r in moves:
        k0 = k - 1
        if r == 2:
            out[k0], out[k0 + 1] = out[k0 + 1], out[k0]
        else:
            out[k0 : k0 + 3] = move3(*out[k0 : k0 + 3])
    return out


def transport(cox, start, goal, coords, move3=minplus3):
    return replay(coords, checked_path(cox, start, goal), move3)


# ---------------------------------------------------------------------------
# The tropical monoid on base-word coordinates


class Monoid:
    """Reference monoid: normal forms are natural coordinates at the base word."""

    def __init__(self, cox):
        self.cox = cox
        self._paths = {}

    def _path(self, start, goal):
        key = (start, goal)
        if key not in self._paths:
            self._paths[key] = checked_path(self.cox, start, goal)
        return self._paths[key]

    def at(self, m, word):
        return replay(m, self._path(self.cox.base, word), minplus3)

    def from_word(self, word, coords):
        return tuple(replay(coords, self._path(word, self.cox.base), minplus3))

    def left_gen(self, i, n, m):
        word = self.cox.first_word(i)
        coords = self.at(m, word)
        coords[0] = min(n, coords[0])
        return self.from_word(word, coords)

    def mul(self, m1, m2):
        out = tuple(m2)
        for i, n in reversed(list(zip(self.cox.base, m1))):
            out = self.left_gen(i, n, out)
        return out

    def l(self, m, i):
        return self.at(m, self.cox.first_word(i))[0]

    def r(self, m, i):
        return self.at(m, self.cox.last_word(i))[-1]

    def raise_to(self, n, m, i):
        word = self.cox.first_word(i)
        coords = self.at(m, word)
        if coords[0] != 0:
            raise ValueError("raise_to needs l_i = 0")
        coords[0] = n
        return self.from_word(word, coords)

    def relabel(self, m, sigma):
        word = tuple(sigma[i] for i in self.cox.base)
        return self.from_word(word, m)


def filling(cox, orbit):
    """Default orbit word: a singleton, an orthogonal set, or (i, i', i)."""
    orbit = tuple(sorted(orbit, key=label_key))
    if len(orbit) == 2 and cox.m(*orbit) == 3:
        return (orbit[0], orbit[1], orbit[0])
    return orbit


class FoldedMonoid:
    """Folded products of sigma-fixed elements, in tropical coordinates.

    In a tropical model the 2-fold sum is the identity, so unfolding puts
    the folded coordinate on every letter of the orbit's block.
    """

    def __init__(self, cox, orbits, sigma):
        self.monoid = Monoid(cox)
        self.orbit_of = {orbit[0]: orbit for orbit in orbits}
        self.sigma = sigma

    def _blocks(self, letters):
        return [filling(self.monoid.cox, self.orbit_of[eta]) for eta in letters]

    def unfold(self, letters, coords):
        blocks = self._blocks(letters)
        word = tuple(i for block in blocks for i in block)
        spread = [c for block, c in zip(blocks, coords) for _ in block]
        return self.monoid.from_word(word, spread)

    def is_sigma_fixed(self, m):
        return self.monoid.relabel(m, self.sigma) == tuple(m)

    def fold(self, m, letters):
        blocks = self._blocks(letters)
        word = tuple(i for block in blocks for i in block)
        coords = self.monoid.at(m, word)
        out, offset = [], 0
        for block in blocks:
            values = coords[offset : offset + len(block)]
            offset += len(block)
            if len(set(values)) != 1:
                raise ValueError("block does not carry one folded coordinate")
            out.append(values[0])
        return tuple(out)

    def mul(self, letters, f1, f2):
        product = self.monoid.mul(self.unfold(letters, f1), self.unfold(letters, f2))
        if not self.is_sigma_fixed(product):
            raise ValueError("product is not sigma-fixed")
        return self.fold(product, letters)


# ---------------------------------------------------------------------------
# Evaluating foldline's symbolic values without foldline


def poly_at(poly, point):
    """A sparse polynomial (exponent tuple -> coefficient) at a Fraction point."""
    total = Fraction(0)
    for exponents, coefficient in poly.terms.items():
        term = Fraction(coefficient)
        for x, e in zip(point, exponents):
            if e:
                term *= x**e
        total += term
    return total


def poly_tropical(poly, point):
    """Tropicalization: min over terms of the exponent-weighted sum."""
    return min(
        sum(x * e for x, e in zip(point, exponents)) for exponents in poly.terms
    )


def sym_at(value, point):
    return poly_at(value.num, point) / poly_at(value.den, point)


def sym_tropical(value, point):
    return poly_tropical(value.num, point) - poly_tropical(value.den, point)


def sym_is_variable(value, index):
    """Cross multiplication: value == x_index iff num == x_index * den."""
    shifted = {
        tuple(e + (a == index) for a, e in enumerate(exponents)): c
        for exponents, c in value.den.terms.items()
    }
    return value.num.terms == shifted
