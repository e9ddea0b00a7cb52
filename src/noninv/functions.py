"""Explicit functions between finite indexed sets.

A function f: X -> Y with |X| = n and |Y| = m is stored as the tuple of
images (f(0), ..., f(n-1)), all indices zero-based.  The degree of
noninvertibility

    deg(f) = (1/n) * sum_x |f^-1(f(x))| = (1/n) * sum_y |f^-1(y)|^2

is always an exact rational (a ``fractions.Fraction``); nothing in this
module touches floating point.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import mul, sub
from typing import Collection, Iterable, NoReturn, Sequence

from .errors import (
    EmptySetError,
    FunctionFileError,
    InvalidExponentError,
    LengthMismatchError,
    OutOfRangeImageError,
    SizeMismatchError,
)

__all__ = [
    "FiniteFunction",
    "fiber_sizes",
    "make_function",
    "compose",
    "identity_function",
    "constant_function",
    "parse_function_text",
    "parse_function_json",
    "load_function",
    "format_function_text",
    "function_to_json",
]


def fiber_sizes(images: Iterable[int], codomain_size: int) -> list[int]:
    """Fiber sizes |f^-1(y)| for y = 0..codomain_size-1 of the map with
    these (zero-based, in-range) images."""
    counts = [0] * codomain_size
    for y in images:
        counts[y] += 1
    return counts


def _square_sum(values: Collection[int]) -> int:
    """sum of v^2 over ``values``, which is read twice."""
    return sum(map(mul, values, values))


@dataclass(frozen=True)
class FiniteFunction:
    """An explicit function between two finite nonempty indexed sets.

    Immutable; all derived quantities are pure functions of the image
    tuple, so instances are safe to share between threads.  The fibers
    are counted once, on first use, and kept for ``degree``,
    ``degree_q`` and ``max_fiber``.
    """

    domain_size: int
    codomain_size: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.domain_size < 1 or self.codomain_size < 1:
            raise EmptySetError(
                f"domain and codomain must be nonempty, got sizes "
                f"({self.domain_size}, {self.codomain_size})"
            )
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.domain_size:
            raise LengthMismatchError(
                f"expected {self.domain_size} images, got {len(images)}"
            )
        # exact types: a bool or a float is not an image
        if not (set(map(type, images)) <= {int} and 0 <= min(images)
                and max(images) < self.codomain_size):
            for x, y in enumerate(images):
                if type(y) is not int:
                    raise OutOfRangeImageError(
                        f"image of {x} is {y!r}, not an integer"
                    )
                if not 0 <= y < self.codomain_size:
                    raise OutOfRangeImageError(
                        f"image of {x} is {y}, outside "
                        f"[0, {self.codomain_size})"
                    )
        # set by fiber_sizes() on first use; not a field, so it takes no
        # part in ==, hash or repr
        object.__setattr__(self, "_fibers", None)

    def __call__(self, x: int) -> int:
        if not 0 <= x < self.domain_size:
            raise IndexError(f"{x} is outside the domain [0, {self.domain_size})")
        return self.images[x]

    def fiber_sizes(self) -> tuple[int, ...]:
        """Sizes |f^-1(y)| for y = 0..codomain_size-1; they sum to |X|."""
        fibers = self._fibers
        if fibers is None:
            fibers = tuple(fiber_sizes(self.images, self.codomain_size))
            object.__setattr__(self, "_fibers", fibers)
        return fibers

    def degree(self) -> Fraction:
        """deg(f) = (1/|X|) * sum_y |f^-1(y)|^2, as a reduced rational."""
        return Fraction(_square_sum(self.fiber_sizes()), self.domain_size)

    def degree_q(self, q: int) -> Fraction:
        """Generalized degree (1/|X|) * sum_y |f^-1(y)|^q for q >= 1.

        q = 1 always gives 1 and q = 2 recovers ``degree``.  Exponents
        below 1 are rejected: q = 0 would force a 0^0 convention into the
        public API (the internal summations that need it adopt 0^0 = 1,
        but callers never see it).
        """
        if q < 1:
            raise InvalidExponentError(f"exponent must be >= 1, got {q}")
        # one power per distinct fiber size: a million two-point fibers
        # at a large q form a single power, not a million
        return Fraction(
            sum(count * size**q
                for size, count in Counter(self.fiber_sizes()).items()),
            self.domain_size,
        )

    def max_fiber(self) -> int:
        """Largest fiber size; at least ceil(|X| / |Y|)."""
        return max(self.fiber_sizes())


def make_function(
    domain_size: int, codomain_size: int, images: Sequence[int]
) -> FiniteFunction:
    """Build a validated FiniteFunction from zero-based images."""
    return FiniteFunction(domain_size, codomain_size, tuple(images))


def identity_function(n: int) -> FiniteFunction:
    return FiniteFunction(n, n, tuple(range(n)))


def constant_function(
    domain_size: int, codomain_size: int, value: int
) -> FiniteFunction:
    return FiniteFunction(
        domain_size, codomain_size, (value,) * domain_size
    )


def compose(outer: FiniteFunction, inner: FiniteFunction) -> FiniteFunction:
    """outer after inner: x -> outer(inner(x))."""
    if inner.codomain_size != outer.domain_size:
        raise SizeMismatchError(
            f"cannot compose: inner codomain {inner.codomain_size} != "
            f"outer domain {outer.domain_size}"
        )
    return FiniteFunction(
        inner.domain_size,
        outer.codomain_size,
        tuple(map(outer.images.__getitem__, inner.images)),
    )


# ---------------------------------------------------------------------------
# Function file formats.
#
# Text:  a single line  "n m : i_1 i_2 ... i_n"  with ONE-based images.
# JSON:  {"domain": n, "codomain": m, "images": [...]}  with ZERO-based
#        images.  The two conventions are never mixed: a 0 in the text
#        format and an image equal to the codomain size in the JSON
#        format are both rejected with a pointed message.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\S+")
_JSON_START = re.compile(r"\s*\{")


def _column(line: str, index: int) -> int:
    """One-based column of token ``index`` of ``line.split()``.

    ``str.split()`` and ``\\S+`` agree on what is whitespace, so the
    regex is only run up to the token an error message names.
    """
    return next(islice(_TOKEN.finditer(line), index, None)).start() + 1


def parse_function_text(text: str) -> FiniteFunction:
    """Parse the one-line text format (one-based images)."""
    lines = text.splitlines()
    content = [i for i, ln in enumerate(lines, 1) if ln and not ln.isspace()]
    if not content:
        raise FunctionFileError("empty function file", 1, 1)
    if len(content) > 1:
        raise FunctionFileError(
            "expected a single line 'n m : i_1 ... i_n'", content[1], 1
        )
    lineno = content[0]
    line = lines[lineno - 1]
    tokens = line.split()
    line_end = len(line) + 1

    def want_int(idx: int, what: str, minimum: int) -> int:
        if idx >= len(tokens):
            raise FunctionFileError(f"missing {what}", lineno, line_end)
        tok = tokens[idx]
        try:
            value = int(tok)
        except ValueError:
            raise FunctionFileError(
                f"{what} must be an integer, got {tok!r}",
                lineno,
                _column(line, idx),
            ) from None
        if value < minimum:
            raise FunctionFileError(
                f"{what} must be >= {minimum}, got {value}",
                lineno,
                _column(line, idx),
            )
        return value

    n = want_int(0, "domain size", 1)
    m = want_int(1, "codomain size", 1)
    if len(tokens) < 3 or tokens[2] != ":":
        col = _column(line, 2) if len(tokens) > 2 else line_end
        raise FunctionFileError("expected ':' after the two sizes", lineno, col)
    count = len(tokens) - 3
    if count != n:
        col = _column(line, len(tokens) - 1) if count else line_end
        raise FunctionFileError(
            f"expected {n} images, got {count}", lineno, col
        )
    try:
        # zero-based images, range-checked by the constructor
        return FiniteFunction(
            n, m, tuple(map(sub, map(int, islice(tokens, 3, None)), repeat(1)))
        )
    except ValueError:  # a token int() refuses, or an image out of range
        pass
    _raise_first_bad_image(line, lineno, tokens, m)


def _raise_first_bad_image(
    line: str, lineno: int, tokens: list[str], m: int
) -> NoReturn:
    """Raise the error of the first image token that is not an integer
    in 1..m, at its column."""
    for idx in range(3, len(tokens)):
        tok = tokens[idx]
        try:
            value = int(tok)
        except ValueError:
            message = f"image must be an integer, got {tok!r}"
        else:
            if value == 0:
                message = (
                    "text images are one-based; 0 is not a valid image "
                    "(zero-based images belong in the JSON format)"
                )
            elif not 1 <= value <= m:
                message = f"one-based image {value} outside [1, {m}]"
            else:
                continue
        raise FunctionFileError(message, lineno, _column(line, idx))


def parse_function_json(text: str) -> FiniteFunction:
    """Parse the JSON format (zero-based images)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionFileError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(data, dict):
        raise FunctionFileError("expected a JSON object", 1, 1)
    required = {"domain", "codomain", "images"}
    missing = required - data.keys()
    if missing:
        raise FunctionFileError(f"missing keys: {sorted(missing)}", 1, 1)
    extra = data.keys() - required
    if extra:
        raise FunctionFileError(f"unknown keys: {sorted(extra)}", 1, 1)
    n, m, images = data["domain"], data["codomain"], data["images"]
    if not isinstance(n, int) or not isinstance(m, int):
        raise FunctionFileError("domain and codomain must be integers", 1, 1)
    if n < 1 or m < 1:
        raise FunctionFileError("domain and codomain must be >= 1", 1, 1)
    # exact types: a bool is an int instance but not an image
    if not isinstance(images, list) or not set(map(type, images)) <= {int}:
        raise FunctionFileError("images must be a list of integers", 1, 1)
    if len(images) != n:
        raise FunctionFileError(
            f"expected {n} images, got {len(images)}", 1, 1
        )
    try:
        return FiniteFunction(n, m, tuple(images))
    except OutOfRangeImageError:
        pass
    # some image is out of range: name the first
    for i, v in enumerate(images):
        if v == m:
            raise FunctionFileError(
                f"image {v} at index {i} equals the codomain size; "
                "JSON images are zero-based (one-based images belong "
                "in the text format)",
                1,
                1,
            )
        if not 0 <= v < m:
            raise FunctionFileError(
                f"image {v} at index {i} outside [0, {m})", 1, 1
            )


def load_function(path: str) -> FiniteFunction:
    """Read a UTF-8 function file, sniffing the format from the first
    character.  A byte that is not UTF-8 text is a ``FunctionFileError``
    at its line and column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.object is its
        # bytes; the line and column are counted as the text parser
        # counts them, with "x" standing for the bad byte
        data, start = exc.object, exc.start
        head = (data[:start].decode("utf-8") + "x").splitlines()
        raise FunctionFileError(
            f"byte 0x{data[start]:02x} is not UTF-8 text",
            len(head),
            len(head[-1]),
        ) from None
    if _JSON_START.match(text):
        return parse_function_json(text)
    return parse_function_text(text)


def format_function_text(f: FiniteFunction) -> str:
    """Serialize to the one-line text format (one-based images)."""
    images = " ".join(str(y + 1) for y in f.images)
    return f"{f.domain_size} {f.codomain_size} : {images}"


def function_to_json(f: FiniteFunction) -> dict:
    """Serialize to the JSON format dict (zero-based images)."""
    return {
        "domain": f.domain_size,
        "codomain": f.codomain_size,
        "images": list(f.images),
    }
