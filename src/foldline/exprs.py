"""A tiny parser for subtraction-free coordinate expressions.

Grammar (no subtraction, no unary minus -- the values live in semifields):

    expr   := term ('+' term)*
    term   := factor (('*' | '/') factor)*
    factor := atom (('^' | '**') positive-integer)?
    atom   := positive-integer | identifier | '(' expr ')'

Integer literals go through the model's ``from_int``; identifiers are
looked up in the given environment.  Used for the embedded certificate
data and for symbolic coordinates on the command line.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .errors import SemifieldError
from .semifield import Semifield, SemifieldValue

# Largest exponent accepted, also as the product of nested exponents such
# as (x^10)^10: every later operation on x^k pays for its k factors.
EXPONENT_LIMIT = 100

# Most tokens in one expression: a product x*x*...*x costs time quadratic
# in its length, and the longest certificate expression has 25 tokens.
TOKEN_LIMIT = 1000

# Deepest parenthesis nesting: the certificates nest 2 deep, and 300 levels
# overflowed the stack of this recursive descent (four frames a level).
NESTING_LIMIT = 50

# Most polynomial factors in the symbolic values of all expressions parsed
# together, counted after each product, quotient and power.  A sum expands
# its summands' factors one product at a time: ten factors (1+x)^100 (1000
# factors) plus 1 answer, and fifty of them ran past 30 s.
FACTOR_LIMIT = 1000

_TOKEN = re.compile(r"\s*(\*\*|[()+*/^]|\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise SemifieldError("parse", f"bad character in expression: {text[pos:]!r}")
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def _factors(value: SemifieldValue) -> int:
    """Polynomial factors of a symbolic value's representative (0 for numbers)."""
    return len(getattr(value, "fnum", ())) + len(getattr(value, "fden", ()))


class _Parser:
    def __init__(
        self,
        tokens: list[str],
        model: Semifield,
        env: Mapping[str, SemifieldValue],
        spent: int,
    ):
        self.tokens = tokens
        self.pos = 0
        self.model = model
        self.env = env
        # factors of the expressions parsed before this one
        self.spent = spent
        # largest product of nested exponents in the factor being parsed
        self.power = 1
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise SemifieldError("parse", "unexpected end of expression")
        self.pos += 1
        return token

    def expr(self) -> SemifieldValue:
        value = self.term()
        while self.peek() == "+":
            self.take()
            value = value + self.term()
        return value

    def bounded(self, value: SemifieldValue) -> SemifieldValue:
        factors = self.spent + _factors(value)
        if factors > FACTOR_LIMIT:
            raise SemifieldError("limit", f"symbolic input has {factors} factors, above {FACTOR_LIMIT}")
        return value

    def term(self) -> SemifieldValue:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            other = self.factor()
            value = self.bounded(value * other if op == "*" else value / other)
        return value

    def factor(self) -> SemifieldValue:
        outer, self.power = self.power, 1
        value = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            exponent = self.take()
            if not exponent.isdigit() or int(exponent) < 1:
                raise SemifieldError("parse", f"exponent must be a positive integer, got {exponent!r}")
            if int(exponent) > EXPONENT_LIMIT:
                raise SemifieldError("limit", f"exponent {exponent} is above {EXPONENT_LIMIT}")
            self.power *= int(exponent)
            if self.power > EXPONENT_LIMIT:
                raise SemifieldError(
                    "limit", f"nested exponents multiply to {self.power}, above {EXPONENT_LIMIT}"
                )
            value = self.bounded(value ** int(exponent))
        self.power = max(outer, self.power)
        return value

    def atom(self) -> SemifieldValue:
        token = self.take()
        if token == "(":
            self.depth += 1
            if self.depth > NESTING_LIMIT:
                raise SemifieldError("limit", f"parentheses nest deeper than {NESTING_LIMIT}")
            value = self.expr()
            if self.take() != ")":
                raise SemifieldError("parse", "missing closing parenthesis")
            self.depth -= 1
            return value
        if token.isdigit():
            return self.model.from_int(int(token))
        if token in self.env:
            return self.env[token]
        raise SemifieldError("parse", f"unknown name {token!r} in expression")


def parse_value(text: str, model: Semifield, env: Mapping[str, SemifieldValue] | None = None) -> SemifieldValue:
    """Parse one subtraction-free expression into a semifield value."""
    return parse_values((text,), model, env)[0]


def parse_values(
    texts: Iterable[str], model: Semifield, env: Mapping[str, SemifieldValue] | None = None
) -> tuple[SemifieldValue, ...]:
    """Parse expressions whose symbolic factors together stay within
    ``FACTOR_LIMIT``."""
    values, spent = [], 0
    for text in texts:
        tokens = _tokenize(text)
        if len(tokens) > TOKEN_LIMIT:
            raise SemifieldError("limit", f"expression has {len(tokens)} tokens, above {TOKEN_LIMIT}")
        parser = _Parser(tokens, model, env or {}, spent)
        value = parser.expr()
        if parser.peek() is not None:
            raise SemifieldError("parse", f"trailing input at {parser.peek()!r}")
        spent += _factors(parser.bounded(value))
        values.append(value)
    return tuple(values)
