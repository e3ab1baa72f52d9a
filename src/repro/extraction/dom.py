"""A small DOM built on the standard library's HTML parser.

Web data extraction (Section 2.2) needs a document model: wrappers select
repeating record nodes and field nodes inside them.  :class:`DomNode` keeps
parents, children, tag/class signatures, and absolute paths, which is all
the wrapper-induction algorithm requires.

Induction, extraction and repair read the same few pages over and over
(a repair pass extracts with several candidate wrappers), so the module
does each piece of tree work once:

* :func:`parse_html` is an ``lru_cache`` of ``_PARSE_CACHE_LIMIT`` (16)
  documents keyed on the HTML string, so each distinct page is parsed
  once while it stays among the 16 most recently parsed;
* :meth:`DomNode.text` and :meth:`DomNode.path` are computed once per
  node and kept on it.

Parsed trees are therefore **shared and read-only**: every caller of
:func:`parse_html` with the same HTML gets the same tree, and nothing
outside the parser may add, remove or edit a node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import Iterator

from repro.errors import ExtractionError

__all__ = ["DomNode", "parse_html"]

#: Distinct documents whose parsed trees :func:`parse_html` keeps.
_PARSE_CACHE_LIMIT = 16

_VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}


@dataclass
class DomNode:
    """One element (or text run) in the parsed document tree."""

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["DomNode"] = field(default_factory=list)
    parent: "DomNode | None" = None
    text_content: str = ""
    # Filled in by the first text() and path() call; kept out of
    # equality and repr, so reading a node never changes how it compares.
    _text: str | None = field(default=None, init=False, compare=False, repr=False)
    _path: tuple[str, ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def is_text(self) -> bool:
        """Whether this node is a text run rather than an element."""
        return self.tag == "#text"

    @property
    def classes(self) -> tuple[str, ...]:
        """The element's CSS classes."""
        return tuple(self.attrs.get("class", "").split())

    @property
    def signature(self) -> str:
        """``tag.first-class`` — the shape used to align nodes across pages."""
        classes = self.classes
        return f"{self.tag}.{classes[0]}" if classes else self.tag

    def text(self) -> str:
        """All text beneath this node, whitespace-normalised."""
        if self._text is None:
            if self.is_text:
                self._text = " ".join(self.text_content.split())
            else:
                parts = [child.text() for child in self.children]
                self._text = " ".join(part for part in parts if part)
        return self._text

    def walk(self) -> Iterator["DomNode"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def elements(self) -> Iterator["DomNode"]:
        """All element (non-text) nodes beneath and including this one."""
        for node in self.walk():
            if not node.is_text:
                yield node

    def find_all(
        self, tag: str | None = None, class_: str | None = None
    ) -> list["DomNode"]:
        """All descendant elements matching ``tag`` and/or ``class_``."""
        matches = []
        for node in self.elements():
            if node is self:
                continue
            if tag is not None and node.tag != tag:
                continue
            if class_ is not None and class_ not in node.classes:
                continue
            matches.append(node)
        return matches

    def find(self, tag: str | None = None, class_: str | None = None) -> "DomNode | None":
        """The first matching descendant element, or ``None``."""
        found = self.find_all(tag, class_)
        return found[0] if found else None

    def child_index(self) -> int:
        """This node's position among same-signature siblings."""
        if self.parent is None:
            return 0
        same = [
            child
            for child in self.parent.children
            if not child.is_text and child.signature == self.signature
        ]
        for index, node in enumerate(same):
            if node is self:
                return index
        return 0

    def path(self) -> tuple[str, ...]:
        """Absolute signature path from the root to this node."""
        if self._path is None:
            if self.tag == "#document":
                self._path = ()
            else:
                above = self.parent.path() if self.parent is not None else ()
                self._path = above if self.is_text else above + (self.signature,)
        return self._path

    def ancestors(self) -> Iterator["DomNode"]:
        """All ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        """Distance from the document root."""
        return sum(1 for __ in self.ancestors())


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = DomNode("#document")
        self._stack = [self.root]

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        node = DomNode(tag, {k: (v or "") for k, v in attrs})
        node.parent = self._stack[-1]
        self._stack[-1].children.append(node)
        if tag not in _VOID_TAGS:
            self._stack.append(node)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        node = DomNode(tag, {k: (v or "") for k, v in attrs})
        node.parent = self._stack[-1]
        self._stack[-1].children.append(node)

    def handle_endtag(self, tag: str) -> None:
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return
        # Unmatched close tag: tolerate, real web pages are messy.

    def handle_data(self, data: str) -> None:
        if not data.strip():
            return
        node = DomNode("#text", text_content=data)
        node.parent = self._stack[-1]
        self._stack[-1].children.append(node)


@functools.lru_cache(maxsize=_PARSE_CACHE_LIMIT)
def parse_html(html: str) -> DomNode:
    """Parse an HTML string into a :class:`DomNode` tree.

    Tolerant of unclosed tags (like browsers are); raises
    :class:`ExtractionError` only for empty input.  Memoised: the same
    HTML returns the same shared, read-only tree.
    """
    if not html or not html.strip():
        raise ExtractionError("cannot parse empty document")
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root
