"""Byte-faithful view of a raw ASCII STL document.

Keeps the text exactly as given and indexes, by (start, end) spans, the two
places where an ASCII file can vary without changing its parsed value. The
statements come from `stl_io.ascii_statements`, the statement lexer of the
grammar `parse_ascii` reads, so lines end at LF (a CR before it is
whitespace) and any whitespace separates tokens.

- Number slots: the up to three number tokens after a statement that starts
  with `vertex` or `facet normal`, 12 per facet.
- Indent slots: the leading spaces and tabs of each indented non-blank line.

Rewriting either kind of slot splices new strings into those spans and
yields a new document; everything else is untouched.
"""
from __future__ import annotations

from .floatfmt import is_number_token
from .stl_io import ascii_statements


class RawAsciiDocument:
    """ASCII STL text with addressable numbers and indents."""

    __slots__ = ("_text", "_number_spans", "_indent_spans")

    def __init__(self, text: str):
        numbers: list[tuple[int, int]] = []
        indents: list[tuple[int, int]] = []
        for _, start, line, tokens in ascii_statements(text):
            indent = len(line) - len(line.lstrip(" \t"))
            if indent:
                indents.append((start, start + indent))
            if tokens[0] == "vertex":
                first = 1
            elif tokens[:2] == ["facet", "normal"]:
                first = 2
            else:
                continue
            end = start
            for i, token in enumerate(tokens[: first + 3]):
                begin = text.find(token, end)
                end = begin + len(token)
                if i >= first:
                    if not is_number_token(token):
                        break
                    numbers.append((begin, end))
        self._text = text
        self._number_spans = tuple(numbers)
        self._indent_spans = tuple(indents)

    @property
    def text(self) -> str:
        return self._text

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
        return RawAsciiDocument("".join(parts))
