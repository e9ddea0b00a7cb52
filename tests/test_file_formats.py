"""Function file formats: one-based text line and zero-based JSON."""

import json
import random
import re
import sys
import tracemalloc
import unittest.mock

import pytest
from hypothesis import given, strategies as st

from noninv import (
    FiniteFunction,
    FunctionFileError,
    compose,
    format_function_text,
    function_to_json,
    load_function,
    make_function,
    parse_function_json,
    parse_function_text,
)
from noninv import functions
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

    @pytest.mark.parametrize("key", ["domain", "codomain"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_size_refused(self, key, value):
        data = {"domain": 1, "codomain": 1, "images": [0], key: value}
        with pytest.raises(FunctionFileError, match="must be integers"):
            parse_function_json(json.dumps(data))

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

    @pytest.mark.parametrize("data, line, column, byte", [
        (b"3 3 : 1 \xff 1\n", 1, 9, 0xFF),
        (b"\xff", 1, 1, 0xFF),
        (b"\n3 3 : 1 1 \xc3\n", 2, 11, 0xC3),
        (b"3 3 :\r\n1 \xe2\x82", 2, 3, 0xE2),
        (b'{"domain": 1,\r"codomain": 1, "images": [0\x80]}', 2, 28, 0x80),
    ])
    def test_non_utf8_names_first_bad_byte(
        self, tmp_path, data, line, column, byte
    ):
        path = tmp_path / "f.fn"
        path.write_bytes(data)
        with pytest.raises(FunctionFileError) as info:
            load_function(str(path))
        assert (info.value.line, info.value.column) == (line, column)
        assert f"byte 0x{byte:02x} is not UTF-8 text" in str(info.value)


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
    # sizes by exact type, as the parser now checks them
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, m)):
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


def separated(tokens, separators):
    """The tokens joined by the characters of ``separators`` in turn."""
    seps = separators * (len(tokens) // len(separators) + 1)
    return "".join(map(str.__add__, tokens, seps))[:-1]


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


# Lines whose tokens the chunked reader cuts at many places: other
# whitespace than " ", digits int() reads beyond 0-9, line ends and
# surrounding whitespace, valid and with one error.
CHUNK_CORPUS = [
    "3 3 :\t1\t2\t3", "3 3 :\t1\t4\t3", "3 3 :\t1\t2",
    "3 3 : 1\x1c2\x1c3", "3 3 : 1\x1c0\x1c3",
    "3 3 : 1\u30002\u30003", "3 3 :\u30001\u3000x\u30003",
    "3 10 : +3 \u0663 1_0", "3 9 : +3 \u0663 1_0", "3 9 : 1_ 2 3",
    "3 3 : 1 2 3\r\n", "\r\n3 3 : 1 2 3\r\n\r\n", "3 3 : 1 2 4\r\n",
    "  \t3 3 : 1 2 3 \t ", "  3 3 :   1  2   3   ", "3 3 : 1 2 3 \x1c",
    "4 4 : 1 \t2\x1c 3\u3000 4", "4 4 : 1 \t2\x1c 5\u3000 4",
    "12 6 : " + " ".join("123456123456"),
    "12 6 : " + " ".join("123456123406"),
    "12 6 : " + "  ".join("123456123456") + " 1",
    "12 6 :" + "\t".join(" 123456123456"),
    "3 3 :1 2 3", "3 3: 1 2 3", "3 3 : 1 2 3 :",
]


class TestChunkedTextParse:
    """The readers that skip the constructor's checks against checked
    ones: the chunked text reader, with chunks cut after 1, 2 and 7
    characters, and ``compose``; and the memory a text parse holds."""

    @pytest.fixture(params=[1, 2, 7])
    def rereads(self, request, monkeypatch):
        """Set the chunk size; collect the lines read again by the
        error reporter."""
        monkeypatch.setattr(functions, "_CHUNK", request.param)
        lines = []
        report = functions._raise_line_error

        def reread(line, lineno):
            lines.append(line)
            report(line, lineno)

        monkeypatch.setattr(functions, "_raise_line_error", reread)
        return lines

    @pytest.mark.parametrize("text", TEXT_CORPUS + CHUNK_CORPUS)
    def test_against_reference(self, rereads, text):
        got = outcome(parse_function_text, text)
        assert got == outcome(reference_parse_text, text)
        if isinstance(got, FiniteFunction):
            # read by the chunked reader alone
            assert rereads == []
            assert set(map(type, got.images)) == {int}

    def test_corpus_has_valid_and_invalid_lines(self):
        outcomes = [outcome(reference_parse_text, t) for t in CHUNK_CORPUS]
        valid = sum(isinstance(o, FiniteFunction) for o in outcomes)
        assert 8 <= valid <= len(CHUNK_CORPUS) - 8

    def test_compose_equals_checked_construction(self):
        rng = random.Random(7)
        for n, k, m in [(1, 1, 1), (5, 3, 4), (40, 7, 90), (300, 300, 2)]:
            g = FiniteFunction(n, k, rng.choices(range(k), k=n))
            f = FiniteFunction(k, m, rng.choices(range(m), k=k))
            h = compose(f, g)
            checked = FiniteFunction(n, m, [f(g(x)) for x in range(n)])
            assert h == checked and hash(h) == hash(checked)
            assert repr(h) == repr(checked)
            assert type(h.images) is tuple
            assert h.fiber_sizes() == checked.fiber_sizes()
            assert h.max_fiber() == checked.max_fiber()

    @pytest.mark.parametrize("separators", ["\t", "\t \t", " \t  ", "\t\t "])
    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_cuts_at_tabs(self, monkeypatch, separators, chunk):
        # tab-only and mixed bodies: chunks are cut at tabs as well as
        # spaces, and read the images str.split() sees
        rng = random.Random(chunk)
        n = 300
        body = separated(
            [str(rng.randrange(n) + 1) for _ in range(n)], separators
        )
        monkeypatch.setattr(functions, "_CHUNK", chunk)
        assert functions._zero_based_images(body) == [
            int(token) - 1 for token in body.split()
        ]
        text = f"{n} {n} :\t{body}"
        assert outcome(parse_function_text, text) == outcome(
            reference_parse_text, text
        )

    @pytest.mark.parametrize("separators", [" ", "\t", "\t \t"])
    def test_text_parse_holds_no_token_list(self, separators):
        # Parsing keeps the image tuple and its ints.  On top of those
        # the reader may hold, all at once at worst: the list the images
        # are gathered in (8 bytes an image, at most 1/8 over-allocated),
        # the image list split off the header (one byte a character
        # here) and one chunk with its tokens, cut at a space or a tab.
        # A list of every token of the line would need far more.
        n = 10**5
        rng = random.Random(5)
        line = f"{n} {n} : " + separated(
            [str(rng.randrange(n) + 1) for _ in range(n)], separators
        )
        tracemalloc.start()
        try:
            f = parse_function_text(line)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.domain_size == n
        body = line.split(None, 3)[3]
        chunk = body[:min(
            cut for cut in (body.find(sep, functions._CHUNK) for sep in " \t")
            if cut >= 0
        )]
        chunk_tokens = chunk.split()
        slack = (
            sys.getsizeof(list(f.images)) * 9 // 8
            + sys.getsizeof(body)
            + sys.getsizeof(chunk)
            + sys.getsizeof(chunk_tokens)
            + sum(map(sys.getsizeof, chunk_tokens))
        )
        tokens = line.split()
        token_list = sys.getsizeof(tokens) + sum(map(sys.getsizeof, tokens))
        assert slack < token_list / 2
        assert peak < kept + slack


# Tokens and separators that one of the two routes of the chunked reader
# (the JSON scanner and int()) reads differently from the other, or
# refuses: each must give the reference's function or error.
ODD_PIECES = [
    "1\t2", "1  2", "007", "+5", "1_0", "٣", "1\xa02", "-0", "0",
    "1.0", "1e3", "true", "[1]", "9" * 5000, "1,2",
]


def _odd_line(piece: str, prefix: str = "", suffix: str = "") -> str:
    """A line whose header counts the tokens str.split() sees, so that
    only the images themselves can be refused; codomain 10."""
    body = prefix + piece + suffix
    return f"{len(body.split())} 10 : {body}"


class TestParseRoutes:
    """The JSON-scanner route and the int() route of ``_zero_based_images``
    read the same files with the same images and refusals."""

    @pytest.mark.parametrize("piece", ODD_PIECES + ["1 2 "])
    def test_short_line(self, piece):
        text = _odd_line(piece, "3 ", " 4")
        assert outcome(parse_function_text, text) == outcome(
            reference_parse_text, text
        )

    @pytest.mark.parametrize("piece", ODD_PIECES + [""])
    def test_on_both_sides_of_a_chunk_cut(self, piece):
        # the first copy of the piece starts at _CHUNK, so the first cut
        # falls just after it (or inside it, at its space) and the
        # second copy starts the next chunk; "" leaves a trailing space
        prefix = "1 " * (functions._CHUNK // 2)
        text = _odd_line(piece, prefix, f" {piece} 2 3" if piece else "2 3 ")
        body = text.split(None, 3)[3]
        cut = body.find(" ", functions._CHUNK)
        assert len(body) > functions._CHUNK and 0 < cut < len(body)
        assert outcome(parse_function_text, text) == outcome(
            reference_parse_text, text
        )

    def test_comma_list_refused_under_its_comma_count(self):
        # "1,2 3" is three images to a comma-splitting reader, two tokens
        # to str.split(): refused with the reference's message
        text = "3 3 : 1,2 3"
        got = outcome(parse_function_text, text)
        assert got == outcome(reference_parse_text, text)
        assert got == ("line 1, column 11: expected 3 images, got 2", 1, 11)

    @given(
        st.lists(
            st.one_of(
                st.integers(1, 10).map(str),
                st.sampled_from(ODD_PIECES + ["11", " ", "\t"]),
            ),
            min_size=1, max_size=30,
        ),
        st.integers(1, 12),
    )
    def test_random_tokens_against_reference(self, pieces, chunk):
        text = _odd_line(" ".join(pieces))
        with unittest.mock.patch.object(functions, "_CHUNK", chunk):
            got = outcome(parse_function_text, text)
        assert got == outcome(reference_parse_text, text)

    def test_benchmark_shaped_file_is_read_by_the_scanner(self, monkeypatch):
        # ASCII digits and single spaces, longer than two chunks: every
        # image must come through json.loads, none through int()
        n = functions._CHUNK // 2  # about six characters an image
        rng = random.Random(11)
        text = f"{n} {n} : " + " ".join(
            str(rng.randrange(n) + 1) for _ in range(n)
        )
        assert len(text) > 2 * functions._CHUNK
        loads = json.loads
        scanned = []

        def counted(s, *args, **kwargs):
            value = loads(s, *args, **kwargs)
            scanned.append(len(value))
            return value

        monkeypatch.setattr(functions.json, "loads", counted)
        f = parse_function_text(text)
        assert f.domain_size == n and len(scanned) >= 3
        assert sum(scanned) == n
