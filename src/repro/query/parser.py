"""Parser for the relaxed path-query language.

Grammar (whitespace-insensitive around predicates)::

    query      := step+
    step       := axis nametest predicate*
    axis       := "/" | "//"
    nametest   := "*" | ["~"] NAME
    predicate  := "[" NAME op STRING "]"
    op         := "=" | "~=" | "contains"
    STRING     := '"' chars '"' | "'" chars "'"

Examples accepted: ``/movie/actor``, ``//~movie[title ~= "Matrix 3"]//actor``,
``//article[year = "1999"]//*``.
"""

from __future__ import annotations

from typing import List

from repro.query.ast import LocationStep, PathQuery, Predicate


class QueryParseError(ValueError):
    """Raised on malformed query text, with position information."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        super().__init__(f"{message} at position {pos}: {text[pos:pos + 20]!r}")
        self.position = pos


class _Cursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> QueryParseError:
        return QueryParseError(message, self.text, self.pos)

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos : self.pos + n]

    def skip_spaces(self) -> None:
        while not self.exhausted and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def read_name(self) -> str:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (
            text[self.pos].isalnum() or text[self.pos] in "_-."
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return text[start : self.pos]

    def read_string(self) -> str:
        quote = self.peek()
        if quote not in ('"', "'"):
            raise self.error("expected a quoted string")
        self.pos += 1
        end = self.text.find(quote, self.pos)
        if end < 0:
            raise self.error("unterminated string")
        value = self.text[self.pos : end]
        self.pos = end + 1
        return value


def parse_query(text: str) -> PathQuery:
    """Parse ``text`` into a :class:`PathQuery`."""
    cursor = _Cursor(text.strip())
    steps: List[LocationStep] = []
    while not cursor.exhausted:
        steps.append(_parse_step(cursor))
    if not steps:
        raise QueryParseError("empty query", text, 0)
    return PathQuery(tuple(steps))


def _parse_step(cursor: _Cursor) -> LocationStep:
    if cursor.take("//"):
        axis = "descendant"
    elif cursor.take("/"):
        axis = "child"
    else:
        raise cursor.error("expected '/' or '//'")
    if cursor.take("*"):
        tag, similar = None, False
    else:
        similar = cursor.take("~")
        tag = cursor.read_name()
    predicates: List[Predicate] = []
    while cursor.peek() == "[":
        predicates.append(_parse_predicate(cursor))
    return LocationStep(axis, tag, similar, tuple(predicates))


def _parse_predicate(cursor: _Cursor) -> Predicate:
    assert cursor.take("[")
    cursor.skip_spaces()
    child = cursor.read_name()
    cursor.skip_spaces()
    if cursor.take("~="):
        op = "~="
    elif cursor.take("="):
        op = "="
    elif cursor.take("contains"):
        op = "contains"
        cursor.skip_spaces()
    else:
        raise cursor.error("expected '=', '~=' or 'contains'")
    cursor.skip_spaces()
    value = cursor.read_string()
    cursor.skip_spaces()
    if not cursor.take("]"):
        raise cursor.error("expected ']'")
    return Predicate(child, op, value)
