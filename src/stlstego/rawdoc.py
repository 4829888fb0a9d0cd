"""Byte-faithful view of a raw ASCII STL document.

Keeps the text exactly as given and indexes, by (start, end) spans, the two
places where an ASCII file can vary without changing its parsed value. The
text is read by `parse_ascii`'s facet scanner, whose model the document
keeps, so a text parse_ascii rejects raises the same StlParseError.

- Number slots: the 12 numbers the scanner captures per facet, the three
  after `facet normal` and after each `vertex`, in file order.
- Indent slots: the leading spaces and tabs of each indented non-blank line.

Rewriting either kind of slot splices new strings into those spans and
yields a new document, read again by the scanner.
"""
from __future__ import annotations

import re

from .model import StlModel
from .stl_io import parse_ascii

# Where the indent slots are. It accepts nothing; parse_ascii does that.
_INDENT = re.compile(r"^(?=[^\S\n]*\S)[ \t]+", re.M)


class RawAsciiDocument:
    """ASCII STL text with addressable numbers and indents."""

    __slots__ = ("_text", "_model", "_number_spans", "_indent_spans")

    def __init__(self, text: str):
        numbers: list[tuple[int, int]] = []
        self._model = parse_ascii(text, numbers)
        self._text = text
        self._number_spans = tuple(numbers)
        self._indent_spans = tuple(m.span() for m in _INDENT.finditer(text))

    @property
    def text(self) -> str:
        return self._text

    @property
    def model(self) -> StlModel:
        """The text's value, as parse_ascii reads it."""
        return self._model

    @property
    def number_spans(self) -> tuple[tuple[int, int], ...]:
        """(start, end) of each number slot in text, in file order."""
        return self._number_spans

    @property
    def indent_spans(self) -> tuple[tuple[int, int], ...]:
        """(start, end) of each indent slot in text, in file order."""
        return self._indent_spans

    @property
    def number_tokens(self) -> list[str]:
        """Numeric tokens of `facet normal` and `vertex` statements, in file order."""
        return [self._text[b:e] for b, e in self._number_spans]

    @property
    def indent_runs(self) -> list[str]:
        """Leading whitespace of each indented line, in file order."""
        return [self._text[b:e] for b, e in self._indent_spans]

    def with_number_tokens(self, tokens) -> "RawAsciiDocument":
        return self._rewrite(self._number_spans, tokens)

    def with_indent_runs(self, runs) -> "RawAsciiDocument":
        return self._rewrite(self._indent_spans, runs)

    def _rewrite(self, spans, replacements) -> "RawAsciiDocument":
        replacements = list(replacements)
        if len(replacements) != len(spans):
            raise ValueError(
                f"expected {len(spans)} replacement pieces, got {len(replacements)}"
            )
        parts = []
        last = 0
        for (begin, end), new in zip(spans, replacements):
            parts += (self._text[last:begin], new)
            last = end
        parts.append(self._text[last:])
        text = "".join(parts)
        del parts  # free the pieces before the new text is read
        return RawAsciiDocument(text)
