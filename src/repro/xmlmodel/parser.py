"""A hand-written, dependency-free XML parser.

Covers the XML subset that real document collections like DBLP and INEX use:

* elements with attributes (single- or double-quoted),
* character data with the five predefined entities and numeric character
  references (decimal and hex),
* comments, CDATA sections, processing instructions, the XML declaration,
  and a DOCTYPE declaration (skipped, internal subsets included),
* well-formedness enforcement: matching end tags, a single root element,
  no duplicate attributes, no stray content outside the root.

The parser is a straightforward single-pass scanner over the input string;
error messages carry line/column positions.
"""

from __future__ import annotations

from typing import List

from repro.xmlmodel.dom import XmlElement

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-")


class XmlParseError(ValueError):
    """Raised on any well-formedness violation, with position info."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        line = text.count("\n", 0, pos) + 1
        column = pos - text.rfind("\n", 0, pos)
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class _Scanner:
    """Cursor over the document text with primitive token readers."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> XmlParseError:
        return XmlParseError(message, self.text, self.pos)

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos : self.pos + n]

    def advance(self, n: int = 1) -> None:
        self.pos += n

    def skip_whitespace(self) -> None:
        text = self.text
        while self.pos < len(text) and text[self.pos] in " \t\r\n":
            self.pos += 1

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def read_name(self) -> str:
        start = self.pos
        text = self.text
        if start >= len(text) or not _is_name_start(text[start]):
            raise self.error("expected an XML name")
        end = start + 1
        while end < len(text) and _is_name_char(text[end]):
            end += 1
        self.pos = end
        return text[start:end]

    def read_until(self, token: str, what: str) -> str:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        chunk = self.text[self.pos : end]
        self.pos = end + len(token)
        return chunk


def _decode_entities(raw: str, scanner: _Scanner) -> str:
    """Expand predefined and numeric entity references in ``raw``."""
    if "&" not in raw:
        return raw
    out: List[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end < 0:
            raise scanner.error("unterminated entity reference")
        body = raw[i + 1 : end]
        if body.startswith("#x") or body.startswith("#X"):
            try:
                out.append(chr(int(body[2:], 16)))
            except ValueError:
                raise scanner.error(f"bad character reference &{body};") from None
        elif body.startswith("#"):
            try:
                out.append(chr(int(body[1:], 10)))
            except ValueError:
                raise scanner.error(f"bad character reference &{body};") from None
        elif body in _PREDEFINED_ENTITIES:
            out.append(_PREDEFINED_ENTITIES[body])
        else:
            raise scanner.error(f"unknown entity &{body};")
        i = end + 1
    return "".join(out)


def _parse_attributes(scanner: _Scanner) -> dict:
    attributes: dict = {}
    while True:
        scanner.skip_whitespace()
        nxt = scanner.peek()
        if nxt in (">", "/", "?", ""):
            return attributes
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        raw = scanner.read_until(quote, "attribute value")
        if "<" in raw:
            raise scanner.error("'<' not allowed in attribute value")
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}")
        attributes[name] = _decode_entities(raw, scanner)


def _skip_misc(scanner: _Scanner, allow_doctype: bool) -> None:
    """Skip whitespace, comments, PIs, and (optionally) one DOCTYPE."""
    while True:
        scanner.skip_whitespace()
        if scanner.peek(4) == "<!--":
            scanner.advance(4)
            comment = scanner.read_until("-->", "comment")
            if "--" in comment:
                raise scanner.error("'--' not allowed inside a comment")
        elif scanner.peek(2) == "<?":
            scanner.advance(2)
            scanner.read_until("?>", "processing instruction")
        elif allow_doctype and scanner.peek(9).upper() == "<!DOCTYPE":
            scanner.advance(9)
            depth = 1
            while depth:
                ch = scanner.peek()
                if ch == "":
                    raise scanner.error("unterminated DOCTYPE")
                if ch == "<":
                    depth += 1
                elif ch == ">":
                    depth -= 1
                scanner.advance()
        else:
            return


def _parse_element(scanner: _Scanner) -> XmlElement:
    """Parse one element; the scanner must sit on its ``<``."""
    scanner.expect("<")
    name = scanner.read_name()
    attributes = _parse_attributes(scanner)
    element = XmlElement(name, attributes)
    if scanner.peek(2) == "/>":
        scanner.advance(2)
        return element
    scanner.expect(">")

    # Explicit stack instead of recursion: DBLP-like documents are shallow
    # but synthetic stress tests are not.
    stack: List[XmlElement] = [element]
    while stack:
        current = stack[-1]
        if scanner.exhausted:
            raise scanner.error(f"unexpected end of input inside <{current.name}>")
        if scanner.peek() == "<":
            two = scanner.peek(2)
            if two == "</":
                scanner.advance(2)
                end_name = scanner.read_name()
                scanner.skip_whitespace()
                scanner.expect(">")
                if end_name != current.name:
                    raise scanner.error(
                        f"mismatched end tag </{end_name}>, expected </{current.name}>"
                    )
                stack.pop()
            elif scanner.peek(4) == "<!--":
                scanner.advance(4)
                comment = scanner.read_until("-->", "comment")
                if "--" in comment:
                    raise scanner.error("'--' not allowed inside a comment")
            elif scanner.peek(9) == "<![CDATA[":
                scanner.advance(9)
                current.append_text(scanner.read_until("]]>", "CDATA section"))
            elif two == "<?":
                scanner.advance(2)
                scanner.read_until("?>", "processing instruction")
            else:
                scanner.advance(1)
                child_name = scanner.read_name()
                child_attrs = _parse_attributes(scanner)
                child = XmlElement(child_name, child_attrs)
                current.append_child(child)
                if scanner.peek(2) == "/>":
                    scanner.advance(2)
                else:
                    scanner.expect(">")
                    stack.append(child)
        else:
            start = scanner.pos
            text = scanner.text
            end = text.find("<", start)
            if end < 0:
                end = len(text)
            raw = text[start:end]
            if "]]>" in raw:
                raise scanner.error("']]>' not allowed in character data")
            scanner.pos = end
            current.append_text(_decode_entities(raw, scanner))
    return element


def parse_document(text: str) -> XmlElement:
    """Parse a complete XML document and return its root element."""
    scanner = _Scanner(text)
    _skip_misc(scanner, allow_doctype=True)
    if scanner.peek() != "<":
        raise scanner.error("expected the root element")
    root = _parse_element(scanner)
    _skip_misc(scanner, allow_doctype=False)
    if not scanner.exhausted:
        raise scanner.error("content after the root element")
    return root


def parse_fragment(text: str) -> List[XmlElement]:
    """Parse a sequence of sibling elements (no prolog, no DOCTYPE).

    Useful for tests and for DBLP-style record streams.  Whitespace,
    comments, and PIs between the fragments are skipped.
    """
    scanner = _Scanner(text)
    roots: List[XmlElement] = []
    while True:
        _skip_misc(scanner, allow_doctype=False)
        if scanner.exhausted:
            return roots
        if scanner.peek() != "<":
            raise scanner.error("expected an element")
        roots.append(_parse_element(scanner))
