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
from fractions import Fraction
from itertools import islice, repeat
from operator import mul, sub
from typing import Collection, Iterable, NoReturn, Optional, Sequence

from ._frozen import Frozen
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


def _block_sums(
    labels: Iterable[int], weights: Iterable[int], blocks: int
) -> list[int]:
    """Total weight of each block 0..blocks-1, where ``labels[i]`` names
    the block of weight ``weights[i]``; sorted ascending."""
    sums = [0] * blocks
    for label, weight in zip(labels, weights):
        sums[label] += weight
    sums.sort()
    return sums


def _size_histogram(sizes: Collection[int], labels: int) -> Counter[int]:
    """How many of ``labels`` fibers have each size, given the sizes of
    some of them; the ``labels - len(sizes)`` fibers not given are empty.

    The sizes are packed into ``bytes``, and ``bytes.count`` counts
    size 0, 1, ... until at most 1/64 of the given fibers is left; those
    are counted one by one, so a few large fibers do not cost a pass
    per size up to 255.  On 10^6 fibers of a random function (2-core
    Xeon, Python 3.11) that took about 30 ms against 50-80 ms for
    ``Counter(sizes)``, which remains only for a fiber of 256 or more
    points, where ``bytes()`` refuses.
    """
    try:
        packed = bytes(sizes)
    except ValueError:  # a fiber of 256 or more points
        histogram = Counter(sizes)
    else:
        histogram = Counter()
        left, size = len(packed), 0
        while left > len(packed) >> 6:
            found = packed.count(size)
            if found:
                histogram[size] = found
                left -= found
            size += 1
        if left:
            histogram.update(packed.translate(None, bytes(range(size))))
    if labels > len(sizes):
        histogram[0] += labels - len(sizes)
    return histogram


class FiniteFunction(Frozen):
    """An explicit function between two finite nonempty indexed sets.

    Immutable; all derived quantities are pure functions of the image
    tuple.  ``FiniteFunction(...)`` checks that both sets are nonempty,
    that there are ``domain_size`` images and that each is an exact
    ``int`` (not a bool or a float) in [0, codomain_size).  The file
    parsers and ``compose`` check their images themselves and skip the
    constructor's checks.  The fibers are counted once, on first use,
    into a histogram of their sizes, which ``degree``, ``degree_q`` and
    ``max_fiber`` read; it is the function's one view of its fibers.
    The module function ``fiber_sizes(images, m)`` lists them densely.
    """

    _fields = ("domain_size", "codomain_size", "images")
    # _histogram is set on first use; not a field, so it takes no part
    # in ==, hash, repr or pickling
    __slots__ = _fields + ("_histogram",)

    def __init__(
        self, domain_size: int, codomain_size: int, images: Iterable[int]
    ):
        if domain_size < 1 or codomain_size < 1:
            raise EmptySetError(
                f"domain and codomain must be nonempty, got sizes "
                f"({domain_size}, {codomain_size})"
            )
        images = tuple(images)
        if len(images) != domain_size:
            raise LengthMismatchError(
                f"expected {domain_size} images, got {len(images)}"
            )
        # exact types: a bool or a float is not an image
        if not (set(map(type, images)) <= {int} and 0 <= min(images)
                and max(images) < codomain_size):
            for x, y in enumerate(images):
                if type(y) is not int:
                    raise OutOfRangeImageError(
                        f"image of {x} is {y!r}, not an integer"
                    )
                if not 0 <= y < codomain_size:
                    raise OutOfRangeImageError(
                        f"image of {x} is {y}, outside "
                        f"[0, {codomain_size})"
                    )
        self._store(domain_size, codomain_size, images)

    def _store(
        self, domain_size: int, codomain_size: int, images: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "codomain_size", codomain_size)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_histogram", None)

    def __call__(self, x: int) -> int:
        if not 0 <= x < self.domain_size:
            raise IndexError(f"{x} is outside the domain [0, {self.domain_size})")
        return self.images[x]

    def _fiber_histogram(self) -> Counter[int]:
        """How many fibers have each size (empty fibers under 0).

        Counted densely when there are no more labels than points, and
        by image otherwise, so the memory is bounded by |X| for any |Y|;
        both branches histogram their fiber sizes with ``_size_histogram``
        (about 30 ms for 10^6 labels, against 50-80 ms for a ``Counter``).
        The dense loop stays for |Y| <= |X|: counting 10^6 images into
        10^6 labels by image alone took 1.21 s against 0.94 s in a cold
        ``deg --file`` (2-core Xeon, Python 3.11) and peaked at 94
        against 74 MiB, the dict of distinct images being larger than
        the list of counts.  It stays the list loop of ``fiber_sizes``,
        which ``simulate maxfiber`` shares: counting into a ``bytearray``
        took 61 against 113 ns an image at 10^6 labels but 52 against 30
        at 10^4, since CPython 3.11 specializes list subscripts only.
        """
        histogram = self._histogram
        if histogram is None:
            m = self.codomain_size
            if m <= self.domain_size:
                histogram = _size_histogram(fiber_sizes(self.images, m), m)
            else:
                histogram = _size_histogram(Counter(self.images).values(), m)
            object.__setattr__(self, "_histogram", histogram)
        return histogram

    def _power_sum(self, q: int) -> int:
        """sum_y |f^-1(y)|^q, with one power per distinct fiber size: a
        million two-point fibers at a large q form a single power."""
        return sum(count * size**q
                   for size, count in self._fiber_histogram().items())

    def degree(self) -> Fraction:
        """deg(f) = (1/|X|) * sum_y |f^-1(y)|^2, as a reduced rational."""
        return Fraction(self._power_sum(2), self.domain_size)

    def degree_q(self, q: int) -> Fraction:
        """Generalized degree (1/|X|) * sum_y |f^-1(y)|^q for q >= 1.

        q = 1 always gives 1 and q = 2 recovers ``degree``.  Exponents
        below 1 are rejected: q = 0 would force a 0^0 convention into the
        public API (the internal summations that need it adopt 0^0 = 1,
        but callers never see it).
        """
        if q < 1:
            raise InvalidExponentError(f"exponent must be >= 1, got {q}")
        return Fraction(self._power_sum(q), self.domain_size)

    def max_fiber(self) -> int:
        """Largest fiber size; at least ceil(|X| / |Y|)."""
        return max(self._fiber_histogram())


def _from_valid_images(
    domain_size: int, codomain_size: int, images: tuple[int, ...]
) -> FiniteFunction:
    """A FiniteFunction without the constructor's checks, for a caller
    that knows ``images`` holds ``domain_size >= 1`` exact ints in
    [0, codomain_size)."""
    f = object.__new__(FiniteFunction)
    f._store(domain_size, codomain_size, images)
    return f


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
    # outer's images are checked ints in range, so the composite's are
    return _from_valid_images(
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
# whitespace as str.split() and str.isspace() see it
_SPACE = re.compile(r"\s")
_JSON_START = re.compile(r"\s*\{")
# characters of the image list converted at a time; a chunk ends at
# whitespace, so no token is cut
_CHUNK = 1 << 16
# the bytes of a chunk that the JSON scanner may read
_DIGITS = b"0123456789 "


def _column(line: str, index: int) -> int:
    """One-based column of token ``index`` of ``line.split()``.

    ``str.split()`` and ``\\S+`` agree on what is whitespace, so the
    regex is only run up to the token an error message names.
    """
    return next(islice(_TOKEN.finditer(line), index, None)).start() + 1


def parse_function_text(text: str) -> FiniteFunction:
    """Parse the one-line text format (one-based images).

    A line that passes every check is read in one pass
    (``_parse_valid_line``): no list of all its tokens is built, and
    ``min`` and ``max`` check the range of the images.  Any other line
    is read again token by token (``_raise_line_error``), which raises
    a ``FunctionFileError`` at the line and column of the first error.
    """
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
    function = _parse_valid_line(line)
    if function is None:
        _raise_line_error(line, lineno)
    return function


def _parse_valid_line(line: str) -> Optional[FiniteFunction]:
    """The function on ``line`` if it passes every check, else None.

    ``line.split(None, 3)`` splits off the header ``n m :`` from the
    image list, which ``_zero_based_images`` converts.
    """
    head = line.split(None, 3)
    if len(head) < 4 or head[2] != ":":
        return None
    try:
        n, m = int(head[0]), int(head[1])
        # popped, so the copy of the image list is freed before the
        # tuple of images is built
        images = _zero_based_images(head.pop())
    except ValueError:  # a token int() refuses
        return None
    # the image list holds at least one image, so a count equal to n
    # makes n >= 1, and images in range make m >= 1
    if len(images) != n or min(images) < 0 or max(images) >= m:
        return None
    return _from_valid_images(n, m, tuple(images))


def _zero_based_images(body: str) -> list[int]:
    """int(token) - 1 for each token of ``body``, converted in chunks of
    about ``_CHUNK`` characters, each cut at whitespace, so that no list
    of all the tokens is built.

    A chunk of ASCII digits and spaces is read by the C scanner of
    ``json``, with each space made a comma; every number the scanner
    accepts there is one ``int()`` reads to the same value.  A chunk the
    scanner refuses (a run of spaces, a leading or trailing space, a
    leading zero, a number past ``int()``'s digit limit), and any chunk
    with another character, is converted by ``int()`` token by token,
    so both routes accept the same files with the same images.  On a
    10^6-image file (2-core Xeon, Python 3.11) the scanner route took
    about 150 ms against 220 ms for ``int()``; the guard costs 7-12 ms
    per 7 MB, where ``str.isdigit`` after removing the spaces took 50 ms.
    A chunk ends at the first whitespace character at or after
    ``_CHUNK`` characters, and the next starts after it, since the
    scanner refuses a leading space; a body with none past that point is
    one chunk.
    """
    images: list[int] = []
    start, end = 0, len(body)
    while start < end:
        found = _SPACE.search(body, start + _CHUNK)
        cut = found.start() if found else end
        chunk = body[start:cut]
        start = cut + 1
        if chunk.isascii() and not chunk.encode().translate(None, _DIGITS):
            try:
                ones = json.loads("[" + chunk.replace(" ", ",") + "]")
            except ValueError:  # a token the scanner refuses
                pass
            else:
                images += map(sub, ones, repeat(1))
                continue
        images += map(sub, map(int, chunk.split()), repeat(1))
    return images


def _raise_line_error(line: str, lineno: int) -> NoReturn:
    """Raise the first error of a line that ``_parse_valid_line``
    refused, checking its tokens in order: the header, the image count
    and then each image.

    That reader makes the same checks on the same tokens, so one of
    them fails here."""
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
    # exact types: a bool is an int instance but neither a size nor an
    # image
    if type(n) is not int or type(m) is not int:
        raise FunctionFileError("domain and codomain must be integers", 1, 1)
    if n < 1 or m < 1:
        raise FunctionFileError("domain and codomain must be >= 1", 1, 1)
    if not isinstance(images, list) or not set(map(type, images)) <= {int}:
        raise FunctionFileError("images must be a list of integers", 1, 1)
    if len(images) != n:
        raise FunctionFileError(
            f"expected {n} images, got {len(images)}", 1, 1
        )
    if 0 <= min(images) and max(images) < m:
        return _from_valid_images(n, m, tuple(images))
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
