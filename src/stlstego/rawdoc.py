"""Byte-faithful view of a raw ASCII STL document.

Keeps the text exactly as given and indexes the two places where an ASCII
file can vary without changing its parsed value, each as a read-only
(m, 2) int64 array of (start, end) offsets into the text, in file order:

- Number slots: the 12 numbers of each facet, the three after `facet
  normal` and after each `vertex`.
- Indent slots: the leading spaces and tabs of each indented non-blank line.

The text is read by `parse_ascii`'s facet scanner, whose model the document
keeps, so a text parse_ascii rejects, one that is not ASCII among them,
raises the same StlParseError. The spans are then read off the characters
of the accepted text: between the `solid` line and the `endsolid` line it
holds exactly 21 whitespace-separated tokens per facet, so the numbers are
tokens 2-4, 8-10, 12-14 and 16-18 of each facet, and each statement's first
token ends its line's indent, or the first whitespace in it other than a
space or tab does. The scan runs over chunks of whole facets, one byte per
character, as the accepted text is ASCII. The `solid` and `endsolid`
lines' indents are matched by a regex.

A rewrite names the slots it changes, in ascending order, and the new
string of each; a rewrite of no slots returns the document itself. The
strings are spliced into the text and both span arrays shift by the
running change in length; changed numbers also update the model, bit for
bit as a re-read would. A replacement that could change what the scanner
reads falls back to reading the whole new text, so its error names the
line: a number token parse_float32s rejects, or an indent that is not a
non-empty run of spaces and tabs. Both take in every replacement that is
not ASCII, which the read then rejects. The new number tokens are
converted in one parse_float32s call.
"""
from __future__ import annotations

import re

import numpy as np

from .errors import StlParseError
from .floatfmt import parse_float32s
from .model import StlModel, coords
from .stl_io import _FACET_GRAMMAR, _HEAD, parse_ascii

# Where the indent slots are. It accepts nothing; parse_ascii does that.
_INDENT = re.compile(r"^(?=[^\S\n]*\S)[ \t]+", re.M)


def _facet_columns():
    """Token count of a facet, the columns of its number tokens and those of
    the tokens that open a statement, read off _FACET_GRAMMAR."""
    numbers, statements, width = [], [], 0
    for keywords, count, _ in _FACET_GRAMMAR:
        statements.append(width)
        width += len(keywords.split())
        numbers += range(width, width + count)
        width += count
    return width, numbers, statements


_COLUMNS, _NUMBER_COLUMNS, _STATEMENT_COLUMNS = _facet_columns()
_CHUNK = 1 << 18  # characters scanned at once, extended to the next facet end


def _units(text: str, lo: int, hi: int) -> np.ndarray:
    """text[lo:hi], which is ASCII, as one uint8 per character."""
    return np.frombuffer(text[lo:hi].encode("ascii"), dtype=np.uint8)


def _regex_indents(text: str, lo: int, hi: int) -> np.ndarray:
    spans = [m.span() for m in _INDENT.finditer(text, lo, hi)]
    return np.array(spans, dtype=np.int64).reshape(-1, 2)


def _scan_slots(text: str, facets: int) -> tuple[np.ndarray, np.ndarray]:
    """Number and indent spans of a text the facet scanner accepts, which
    holds `facets` facets."""
    lo = _HEAD.match(text).end()  # the LF that ends the `solid` line
    # the LF before the `endsolid` line, which holds the text's last
    # `endsolid`: number tokens are numbers, and only whitespace follows it
    hi = text.rfind("\n", 0, text.rfind("endsolid"))
    numbers = np.empty((12 * facets, 2), dtype=np.int64)
    indents = [_regex_indents(text, 0, lo)]
    filled = 0
    while lo < hi:
        # chunks end at the LF after an `endfacet`, so they hold whole facets
        end = text.find("endfacet", lo + _CHUNK, hi)
        end = hi if end < 0 else text.find("\n", end)
        units = _units(text, lo, end + 1)
        # the facets hold nothing at or below 32 but whitespace, and
        # text[lo] and text[end] are LFs, so the edges pair up
        space = units <= 32
        bounds = np.flatnonzero(space[1:] != space[:-1]) + (lo + 1)
        bounds = bounds.reshape(-1, _COLUMNS, 2)
        picked = bounds[:, _NUMBER_COLUMNS].reshape(-1, 2)
        numbers[filled : filled + len(picked)] = picked
        filled += len(picked)

        first = bounds[:, _STATEMENT_COLUMNS, 0].ravel()
        newlines = np.flatnonzero(units == 10) + lo
        line = newlines[np.searchsorted(newlines, first) - 1] + 1
        # an indent also ends at codes 11-31, which in the facets are
        # whitespace other than tab and LF; the sentinel lies past every token
        odd = np.append(np.flatnonzero(units - np.uint8(11) < 21) + lo, hi + 1)
        first = np.minimum(first, odd[np.searchsorted(odd, line)])
        indented = first > line
        indents.append(np.stack([line[indented], first[indented]], axis=1))
        lo = end
    indents.append(_regex_indents(text, hi + 1, len(text)))
    indents = np.concatenate(indents)
    for spans in (numbers, indents):
        spans.flags.writeable = False
    return numbers, indents


def _shifted(spans: np.ndarray, ends: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """spans with each offset moved by shift[k], where k counts the changed
    slots that end at or before it."""
    out = shift[np.searchsorted(ends, spans, side="right")]
    out += spans
    out.flags.writeable = False
    return out


def _is_indent(run: str) -> bool:
    return run != "" and not run.strip(" \t")


class RawAsciiDocument:
    """ASCII STL text with addressable numbers and indents."""

    __slots__ = ("_text", "_model", "_number_spans", "_indent_spans")

    def __init__(self, text: str):
        self._model = parse_ascii(text)
        self._text = text
        self._number_spans, self._indent_spans = _scan_slots(text, len(self._model))

    @property
    def text(self) -> str:
        return self._text

    @property
    def model(self) -> StlModel:
        """The text's value, as parse_ascii reads it."""
        return self._model

    @property
    def number_spans(self) -> np.ndarray:
        """(m, 2) array: start and end of each number slot in text."""
        return self._number_spans

    @property
    def indent_spans(self) -> np.ndarray:
        """(m, 2) array: start and end of each indent slot in text."""
        return self._indent_spans

    def spans_holding(self, spans: np.ndarray, chars: str) -> np.ndarray:
        """1 for each span of an (m, 2) array in file order whose text holds
        any of the ASCII characters chars, 0 for the others."""
        if not len(spans):
            return np.zeros(0, dtype=np.uint8)
        lo, hi = int(spans[0, 0]), int(spans[-1, 1])
        wanted = np.zeros(256, dtype=bool)
        wanted[list(chars.encode("ascii"))] = True
        at = np.append(np.flatnonzero(wanted[_units(self._text, lo, hi)]) + lo, hi)
        return (at[np.searchsorted(at, spans[:, 0])] < spans[:, 1]).astype(np.uint8)

    def with_number_tokens(self, slots, tokens) -> "RawAsciiDocument":
        """The document with number slot slots[i] spelled tokens[i]; slots
        ascend."""
        return self._splice(self._number_spans, slots, tokens, numbers=True)

    def with_indent_runs(self, slots, runs) -> "RawAsciiDocument":
        """The document with indent slot slots[i] holding runs[i]; slots
        ascend."""
        return self._splice(self._indent_spans, slots, runs, numbers=False)

    def _splice(self, spans, slots, new, numbers: bool) -> "RawAsciiDocument":
        slots, new = np.asarray(slots, dtype=np.int64), list(new)
        if len(slots) != len(new):
            raise ValueError(f"got {len(slots)} slots and {len(new)} replacements")
        if not len(new):
            return self
        if slots[0] < 0 or slots[-1] >= len(spans) or (slots[1:] <= slots[:-1]).any():
            raise ValueError(f"slots must ascend, without repeats, below {len(spans)}")
        text = self._text
        where = spans[slots]
        parts, last = [], 0
        for (begin, end), piece in zip(where.tolist(), new):
            parts += (text[last:begin], piece)
            last = end
        parts.append(text[last:])
        text = "".join(parts)
        del parts  # free the pieces before a new text is read
        model = self._model
        if numbers:
            try:
                values = parse_float32s(new)
            except StlParseError:
                return RawAsciiDocument(text)
            records = model.records.copy()
            facet, slot = np.divmod(slots, 12)
            coords(records)[facet, slot // 3, slot % 3] = values
            model = model.with_records(records)
        elif not all(map(_is_indent, new)):
            return RawAsciiDocument(text)
        number_spans, indent_spans = self._number_spans, self._indent_spans
        delta = np.fromiter(map(len, new), dtype=np.int64, count=len(new))
        delta -= where[:, 1] - where[:, 0]
        if delta.any():
            shift = np.concatenate(([0], np.cumsum(delta)))
            number_spans = _shifted(number_spans, where[:, 1], shift)
            indent_spans = _shifted(indent_spans, where[:, 1], shift)
        doc = RawAsciiDocument.__new__(RawAsciiDocument)  # the text is not read again
        doc._text, doc._model = text, model
        doc._number_spans, doc._indent_spans = number_spans, indent_spans
        return doc
