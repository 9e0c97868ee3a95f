"""Plain-text parsing of matrix, coefficient and Bloch documents, and
rendering of matrices and Kraus families.

Headers are one of ``matrix R C``, ``coeffs D a0 a1 ... a_{D^2-1}``,
``bloch D b1 ... b_{D^2-1}``.  Complex entries are written
``re,im`` with plain decimal notation, whitespace separated; ``#`` starts a
comment.  Rendered matrices and Kraus files parse back to the same values.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .bloch import BlochVector, ObservableCoeffs
from .errors import ParseError

if TYPE_CHECKING:
    from .channels import KrausChannel


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


# the size token after each header, and what it counts
_SIZES = {"matrix": "row count", "coeffs": "dimension", "bloch": "dimension"}


def _read(text: str, kinds=tuple(_SIZES), dim: int | None = None):
    """(kind, value) of the one document in ``text``.  A kind not in
    ``kinds`` is refused at the header token and, with ``dim`` given, any
    other size at the size token: D of ``coeffs`` and ``bloch``, R of
    ``matrix``."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    head = tokens[0]
    kind = head.text
    if kind not in _SIZES:
        raise ParseError(
            f"unknown header {kind!r} (expected matrix/coeffs/bloch)", head.line, head.column
        )
    if kind not in kinds:
        raise ParseError(
            f"expected a {' or '.join(kinds)} document, got {kind!r}", head.line, head.column
        )
    what = _SIZES[kind]
    size_tok = _take(tokens, 1, what)
    n = _parse_int(size_tok, what)
    if dim is not None and n != dim:
        raise ParseError(f"expected {what} {dim}, got {n}", size_tok.line, size_tok.column)
    if kind == "matrix":
        cols = _parse_int(_take(tokens, 2, "column count"), "column count")
        body = _body(tokens, 3, n * cols, "matrix", "entries")
        entries = [_parse_complex(t) for t in body]
        return kind, np.array(entries, dtype=complex).reshape(n, cols)
    if kind == "coeffs":
        body = _body(tokens, 2, n * n, f"coeffs for d={n}", "values")
        values = [_parse_real(t, "coefficient") for t in body]
        return kind, ObservableCoeffs(dimension=n, a0=values[0], a=np.array(values[1:]))
    body = _body(tokens, 2, n * n - 1, f"bloch for d={n}", "values")
    values = [_parse_real(t, "component") for t in body]
    return kind, BlochVector(dimension=n, b=np.array(values))


def parse_document(text: str):
    """Parse one document; returns (kind, value) with kind one of
    'matrix', 'coeffs', 'bloch'."""
    return _read(text)


def parse_as(text: str, *kinds: str, dim: int | None = None):
    """The value of the one document in ``text``, whose kind must be one of
    ``kinds`` and, with ``dim`` given, whose dimension (a matrix's row
    count) must be ``dim``; a refusal is a ``ParseError`` at the header or
    the size token."""
    return _read(text, kinds, dim)[1]


def parse_bloch_lines(text: str) -> list[np.ndarray]:
    """The raw rows of reals, one per nonempty line; their lengths are
    checked by their reader (``bloch``)."""
    by_line: dict[int, list[_Token]] = {}
    for token in _tokenize(text):
        by_line.setdefault(token.line, []).append(token)
    return [np.array([_parse_real(t, "component") for t in row]) for row in by_line.values()]


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
