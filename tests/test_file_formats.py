"""Function file formats: one-based text line and zero-based JSON."""

import json
import re

import pytest

from noninv import (
    FiniteFunction,
    FunctionFileError,
    format_function_text,
    function_to_json,
    load_function,
    make_function,
    parse_function_json,
    parse_function_text,
)
from noninv.functions import _JSON_START


class TestTextFormat:
    def test_parse(self):
        f = parse_function_text("3 3 : 1 1 2\n")
        assert f == make_function(3, 3, [0, 0, 1])

    def test_round_trip(self):
        f = make_function(4, 2, [0, 0, 0, 1])
        assert parse_function_text(format_function_text(f)) == f

    def test_zero_image_rejected(self):
        # zero-based images are the JSON convention; mixing is an error
        with pytest.raises(FunctionFileError, match="one-based"):
            parse_function_text("2 2 : 0 1")

    def test_image_above_codomain(self):
        with pytest.raises(FunctionFileError, match=r"\[1, 2\]"):
            parse_function_text("2 2 : 1 3")

    def test_error_carries_line_and_column(self):
        try:
            parse_function_text("2 2 : 1 3")
        except FunctionFileError as exc:
            assert exc.line == 1
            assert exc.column == 9
        else:
            pytest.fail("expected FunctionFileError")

    def test_missing_colon(self):
        with pytest.raises(FunctionFileError, match="':'"):
            parse_function_text("2 2 1 1")

    def test_wrong_image_count(self):
        with pytest.raises(FunctionFileError, match="expected 3 images"):
            parse_function_text("3 2 : 1 1")

    def test_garbage_token(self):
        with pytest.raises(FunctionFileError, match="integer"):
            parse_function_text("2 x : 1 1")

    def test_empty_file(self):
        with pytest.raises(FunctionFileError, match="empty"):
            parse_function_text("   \n  \n")

    def test_two_content_lines(self):
        with pytest.raises(FunctionFileError, match="single line"):
            parse_function_text("2 2 : 1 1\n2 2 : 1 2\n")


class TestJsonFormat:
    def test_parse(self):
        f = parse_function_json('{"domain": 3, "codomain": 3, "images": [0, 0, 1]}')
        assert f == make_function(3, 3, [0, 0, 1])

    def test_round_trip(self):
        f = make_function(2, 3, [0, 2])
        assert parse_function_json(json.dumps(function_to_json(f))) == f

    def test_one_based_hint(self):
        # an image equal to the codomain size betrays one-based input
        with pytest.raises(FunctionFileError, match="zero-based"):
            parse_function_json('{"domain": 2, "codomain": 2, "images": [1, 2]}')

    def test_missing_key(self):
        with pytest.raises(FunctionFileError, match="missing keys"):
            parse_function_json('{"domain": 2, "images": [0, 1]}')

    def test_unknown_key(self):
        with pytest.raises(FunctionFileError, match="unknown keys"):
            parse_function_json(
                '{"domain": 2, "codomain": 2, "images": [0, 1], "extra": 1}'
            )

    def test_syntax_error_position(self):
        try:
            parse_function_json('{"domain": 2,\n "codomain": }')
        except FunctionFileError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected FunctionFileError")


class TestLoad:
    def test_sniffs_text(self, tmp_path):
        path = tmp_path / "f.fn"
        path.write_text("2 3 : 1 3\n")
        assert load_function(str(path)) == make_function(2, 3, [0, 2])

    def test_sniffs_json(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"domain": 2, "codomain": 3, "images": [0, 2]}')
        assert load_function(str(path)) == make_function(2, 3, [0, 2])

    def test_sniffs_json_after_whitespace(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('\n \t{"domain": 1, "codomain": 2, "images": [1]}')
        assert load_function(str(path)) == make_function(1, 2, [1])

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_function("definitely-missing.fn")


# ---------------------------------------------------------------------------
# The one-pass parsers against the per-token and per-item parsers they
# replaced, kept here verbatim as the reference for every error.

_TOKEN = re.compile(r"\S+")


def reference_parse_text(text: str) -> FiniteFunction:
    lines = text.splitlines() or [""]
    content = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not content:
        raise FunctionFileError("empty function file", 1, 1)
    if len(content) > 1:
        lineno = content[1][0]
        raise FunctionFileError(
            "expected a single line 'n m : i_1 ... i_n'", lineno, 1
        )
    lineno, line = content[0]
    tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]

    def want_int(idx: int, what: str, minimum: int) -> int:
        if idx >= len(tokens):
            raise FunctionFileError(f"missing {what}", lineno, len(line) + 1)
        tok, col = tokens[idx]
        try:
            value = int(tok)
        except ValueError:
            raise FunctionFileError(
                f"{what} must be an integer, got {tok!r}", lineno, col
            ) from None
        if value < minimum:
            raise FunctionFileError(
                f"{what} must be >= {minimum}, got {value}", lineno, col
            )
        return value

    n = want_int(0, "domain size", 1)
    m = want_int(1, "codomain size", 1)
    if len(tokens) < 3 or tokens[2][0] != ":":
        col = tokens[2][1] if len(tokens) > 2 else len(line) + 1
        raise FunctionFileError("expected ':' after the two sizes", lineno, col)
    image_tokens = tokens[3:]
    if len(image_tokens) != n:
        col = image_tokens[-1][1] if image_tokens else len(line) + 1
        raise FunctionFileError(
            f"expected {n} images, got {len(image_tokens)}", lineno, col
        )
    images = []
    for tok, col in image_tokens:
        try:
            value = int(tok)
        except ValueError:
            raise FunctionFileError(
                f"image must be an integer, got {tok!r}", lineno, col
            ) from None
        if value == 0:
            raise FunctionFileError(
                "text images are one-based; 0 is not a valid image "
                "(zero-based images belong in the JSON format)",
                lineno,
                col,
            )
        if not 1 <= value <= m:
            raise FunctionFileError(
                f"one-based image {value} outside [1, {m}]", lineno, col
            )
        images.append(value - 1)
    return FiniteFunction(n, m, tuple(images))


def reference_parse_json(text: str) -> FiniteFunction:
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
    if not isinstance(images, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in images
    ):
        raise FunctionFileError("images must be a list of integers", 1, 1)
    if len(images) != n:
        raise FunctionFileError(
            f"expected {n} images, got {len(images)}", 1, 1
        )
    for i, v in enumerate(images):
        if v == m:
            raise FunctionFileError(
                f"image {v} at index {i} equals the codomain size; JSON "
                "images are zero-based (one-based images belong in the "
                "text format)",
                1,
                1,
            )
        if not 0 <= v < m:
            raise FunctionFileError(
                f"image {v} at index {i} outside [0, {m})", 1, 1
            )
    return FiniteFunction(n, m, tuple(images))


def outcome(parse, text):
    """The parsed function, or the error's text, line and column."""
    try:
        return parse(text)
    except FunctionFileError as exc:
        return (str(exc), exc.line, exc.column)


def with_image(images, index, token):
    return images[:index] + [token] + images[index + 1:]


POSITIONS = (0, 3, 6)  # first, middle and last of seven images
TEXT_IMAGES = ["1", "2", "3", "4", "5", "1", "2"]

TEXT_CORPUS = [
    *(
        "7 5 : " + " ".join(with_image(TEXT_IMAGES, i, bad))
        for bad in ("x", "0", "6", "-1", "1.5", "0x1", "+0", "99999999")
        for i in POSITIONS
    ),
    # a wrong image count: one short at each position, one long
    *(
        "7 5 : " + " ".join(TEXT_IMAGES[:i] + TEXT_IMAGES[i + 1:])
        for i in POSITIONS
    ),
    "7 5 : " + " ".join(TEXT_IMAGES + ["3"]),
    # two bad images: the first is named
    "7 5 : 1 x 3 0 5 1 2",
    "7 5 : 1 2 9 4 x 1 2",
    # header errors
    "", " \n\t\n", "7", "7 5", "7 5 1 2 3 4 5 1 2", "x 5 : 1", "0 5 :",
    "7 y : 1", "7 0 :", "-3 2 : 1", "2 -2 : 1 1", "2 2 ; 1 1", "2 2 :",
    "7 5 :", "2 2 : 1 1\n2 2 : 1 2", "\n\n 2 2 : 1\t\t3 \n",
    # valid files, with odd whitespace and digits
    "7 5 : " + " ".join(TEXT_IMAGES), "\n  2 2 :\t1   2  \n\n",
    "2 2 : 1 1\x0b", "\u30002 2 : 1\u00a02", "1 1 : \u0661", "2 2 : +1 2",
]

JSON_IMAGES = ["0", "1", "2", "3", "4", "0", "1"]

JSON_CORPUS = [
    *(
        '{"domain": 7, "codomain": 5, "images": ['
        + ", ".join(with_image(JSON_IMAGES, i, bad))
        + "]}"
        for bad in ("true", "false", "1.0", "null", '"1"', "-1", "5", "6")
        for i in POSITIONS
    ),
    '{"domain": 7, "codomain": 5, "images": [0, 1, 5, 3, -1, 0, 1]}',
    '{"domain": 7, "codomain": 5, "images": [0, 1, 9, 3, 5, 0, 1]}',
    '{"domain": 7, "codomain": 5, "images": [0, 1, 2, 3, 4, 0]}',
    '{"domain": 7, "codomain": 5, "images": [0, 1, 2, 3, 4, 0, 1]}',
    '{"domain": 2, "codomain": 2}',
    '{"domain": 2, "codomain": 2, "images": [0, 1], "x": 1}',
    "[1]",
    '{"domain": "2", "codomain": 2, "images": [0, 1]}',
    '{"domain": 0, "codomain": 2, "images": []}',
    '{"domain": 2, "codomain": 2, "images": {}}',
    '{"domain": 2, "codomain": 2, "images": []}',
    '{"domain": true, "codomain": 2, "images": [1]}',
    '{"domain": 2,\n "codomain": }',
]


class TestAgainstReference:
    @pytest.mark.parametrize("text", TEXT_CORPUS)
    def test_text(self, text):
        assert outcome(parse_function_text, text) == outcome(
            reference_parse_text, text
        )

    @pytest.mark.parametrize("text", JSON_CORPUS)
    def test_json(self, text):
        assert outcome(parse_function_json, text) == outcome(
            reference_parse_json, text
        )

    def test_corpus_covers_every_error(self):
        # every error both parsers can raise after reading the file is
        # reached (a content line always has a first token, so "missing
        # domain size" cannot be)
        messages = [
            outcome(reference_parse_text, t) for t in TEXT_CORPUS
        ] + [outcome(reference_parse_json, t) for t in JSON_CORPUS]
        text = " ".join(m[0] for m in messages if isinstance(m, tuple))
        for needle in (
            "image must be an integer", "0 is not a valid image",
            "one-based image", "expected 7 images", "missing codomain size", "domain size must be",
            "codomain size must be", "expected ':'", "single line",
            "empty function file", "images must be a list of integers",
            "equals the codomain size", "outside [0, 5)",
        ):
            assert needle in text, needle

    def test_split_and_regex_agree_on_whitespace(self):
        # the parsers take tokens from str.split() and columns from \S+,
        # and sniff JSON with \s*{: all three must see the same spaces
        every = "".join(map(chr, range(0x110000)))
        spaces = set(re.findall(r"\s", every))
        assert spaces == {c for c in every if c.isspace()}
        for w in sorted(spaces):
            line = f"a{w}b{w}{w}c{w}"
            assert line.split() == _TOKEN.findall(line) == ["a", "b", "c"]
            text = f"{w}{w}{{"
            assert bool(_JSON_START.match(text)) == text.lstrip().startswith(
                "{"
            )
