"""Plain-text parsing of matrix, coefficient and Bloch documents, and
rendering of matrices and Kraus families.

Headers are one of ``matrix R C``, ``coeffs D a0 a1 ... a_{D^2-1}``,
``bloch D b1 ... b_{D^2-1}``.  Complex entries are written
``re,im`` with plain decimal notation, whitespace separated; ``#`` starts a
comment.  Rendered matrices and Kraus files parse back to the same values.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import BlochVector, ObservableCoeffs
from .channels import KrausChannel
from .errors import ParseError


class _Token:
    __slots__ = ("text", "line", "column")

    def __init__(self, text: str, line: int, column: int):
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        col = 0
        for raw in body.split():
            col = body.index(raw, col)
            tokens.append(_Token(raw, lineno, col + 1))
            col += len(raw)
    return tokens


def _parse_int(tok: _Token, what: str) -> int:
    try:
        value = int(tok.text)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {tok.text!r}", tok.line, tok.column)
    if value <= 0:
        raise ParseError(f"{what} must be positive, got {value}", tok.line, tok.column)
    return value


def _finite(value: float, tok: _Token, what: str) -> float:
    """``value`` if finite; nan, inf and overflowing literals such as 1e400
    are refused at their token."""
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} {tok.text!r}", tok.line, tok.column)
    return value


def _parse_real(tok: _Token, what: str) -> float:
    try:
        value = float(tok.text)
    except ValueError:
        raise ParseError(f"expected number {what}, got {tok.text!r}", tok.line, tok.column)
    return _finite(value, tok, what)


def _parse_complex(tok: _Token) -> complex:
    parts = tok.text.split(",")
    if len(parts) != 2:
        raise ParseError(
            f"expected complex entry 're,im', got {tok.text!r}", tok.line, tok.column
        )
    try:
        real, imag = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(
            f"malformed complex entry {tok.text!r}", tok.line, tok.column
        )
    return complex(_finite(real, tok, "entry"), _finite(imag, tok, "entry"))


def _take(tokens: list[_Token], idx: int, what: str) -> _Token:
    if idx >= len(tokens):
        last = tokens[-1] if tokens else _Token("", 1, 1)
        raise ParseError(f"unexpected end of input, expected {what}", last.line, last.column)
    return tokens[idx]


def _body(tokens: list[_Token], start: int, need: int, what: str, unit: str):
    """The tokens from ``start`` on, which must number ``need``."""
    body = tokens[start:]
    if len(body) != need:
        tok = body[-1] if body else tokens[0]
        raise ParseError(
            f"{what} needs {need} {unit}, found {len(body)}", tok.line, tok.column
        )
    return body


def parse_document(text: str):
    """Parse one document; returns (kind, value) with kind one of
    'matrix', 'coeffs', 'bloch'."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    head = tokens[0]
    if head.text == "matrix":
        rows = _parse_int(_take(tokens, 1, "row count"), "row count")
        cols = _parse_int(_take(tokens, 2, "column count"), "column count")
        body = _body(tokens, 3, rows * cols, "matrix", "entries")
        entries = [_parse_complex(t) for t in body]
        return "matrix", np.array(entries, dtype=complex).reshape(rows, cols)
    if head.text == "coeffs":
        d = _parse_int(_take(tokens, 1, "dimension"), "dimension")
        body = _body(tokens, 2, d * d, f"coeffs for d={d}", "values")
        values = [_parse_real(t, "coefficient") for t in body]
        return "coeffs", ObservableCoeffs(
            dimension=d, a0=values[0], a=np.array(values[1:])
        )
    if head.text == "bloch":
        d = _parse_int(_take(tokens, 1, "dimension"), "dimension")
        body = _body(tokens, 2, d * d - 1, f"bloch for d={d}", "values")
        values = [_parse_real(t, "component") for t in body]
        return "bloch", BlochVector(dimension=d, b=np.array(values))
    raise ParseError(
        f"unknown header {head.text!r} (expected matrix/coeffs/bloch)",
        head.line,
        head.column,
    )


def parse_as(text: str, *kinds: str):
    """The value of the one document in ``text``, whose kind must be one of
    ``kinds``; a document of another kind raises ``ParseError``."""
    kind, value = parse_document(text)
    if kind not in kinds:
        raise ParseError(f"expected a {' or '.join(kinds)} document, got {kind!r}", 1, 1)
    return value


def parse_bloch_lines(text: str, d: int) -> list[np.ndarray]:
    """Parse one Bloch vector (d^2 - 1 reals) per nonempty line."""
    need = d * d - 1
    by_line: dict[int, list[_Token]] = {}
    for token in _tokenize(text):
        by_line.setdefault(token.line, []).append(token)
    vectors = []
    for lineno in sorted(by_line):
        tokens = by_line[lineno]
        if len(tokens) != need:
            raise ParseError(
                f"expected {need} components for d={d}, found {len(tokens)}",
                lineno,
                tokens[0].column,
            )
        vectors.append(np.array([_parse_real(t, "component") for t in tokens]))
    if not vectors:
        raise ParseError("no Bloch vectors found", 1, 1)
    return vectors


def _entry(z: complex) -> str:
    """``re,im`` of a Python complex, as from ``tolist()``: its parts are
    Python floats, so they need no conversion."""
    return f"{z.real!r},{z.imag!r}"


def render_matrix(matrix) -> str:
    arr = np.asarray(matrix, dtype=complex)
    rows, cols = arr.shape
    lines = [f"matrix {rows} {cols}"]
    lines.extend(" ".join(map(_entry, row)) for row in arr.tolist())
    return "\n".join(lines) + "\n"


def render_kraus(channel: KrausChannel) -> str:
    """Kraus family as consecutive matrix documents separated by blank lines."""
    return "\n".join(render_matrix(k) for k in channel.kraus)
