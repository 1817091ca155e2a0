"""Abstract syntax of the relaxed path-query language.

A query is a sequence of location steps.  Each step has an axis (``child``
or ``descendant-or-self``), a name test (a tag, a similarity tag, or the
wildcard), and optional value predicates on child elements.  The example
query of section 1.1 parses to::

    //~movie[title ~= "Matrix: Revolutions"]//~actor//~movie

    PathQuery(steps=[
        LocationStep(axis="descendant", tag="movie", similar=True,
                     predicates=[Predicate("title", "~=", "Matrix: Revolutions")]),
        LocationStep(axis="descendant", tag="actor", similar=True),
        LocationStep(axis="descendant", tag="movie", similar=True),
    ])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

AXES = ("child", "descendant")
PREDICATE_OPS = ("=", "~=", "contains")


@dataclass(frozen=True)
class Predicate:
    """A value test on a child element: ``[child_tag op "value"]``.

    ``=`` is exact text equality, ``contains`` substring containment, and
    ``~=`` vague matching (token overlap + ontology synonyms, scored).
    """

    child_tag: str
    op: str
    value: str

    def __post_init__(self) -> None:
        if self.op not in PREDICATE_OPS:
            raise ValueError(f"unknown predicate operator {self.op!r}")

    def __str__(self) -> str:
        return f'[{self.child_tag} {self.op} "{self.value}"]'


@dataclass(frozen=True)
class LocationStep:
    """One step of the path expression."""

    axis: str
    tag: Optional[str]  # None is the wildcard *
    similar: bool = False  # the ~ operator of XXL
    predicates: Tuple[Predicate, ...] = ()

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.tag is None and self.similar:
            raise ValueError("the wildcard cannot carry the similarity operator")

    def __str__(self) -> str:
        axis = "/" if self.axis == "child" else "//"
        name = "*" if self.tag is None else ("~" + self.tag if self.similar else self.tag)
        return axis + name + "".join(str(p) for p in self.predicates)


@dataclass(frozen=True)
class PathQuery:
    """A full path expression."""

    steps: Tuple[LocationStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a query needs at least one step")

    def __str__(self) -> str:
        return "".join(str(step) for step in self.steps)

    @property
    def is_fully_relaxed(self) -> bool:
        return all(step.axis == "descendant" for step in self.steps)
