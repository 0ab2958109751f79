"""Vocabulary shared by the dataset tooling, the detection readers and the
evaluation report: the class registry, the record-line reader and the
names of the paper's three test scenarios.

It imports no other yolokit module and no numpy, so `postprocess` reads
class names and detection lines without loading `data`.
"""

from __future__ import annotations

from collections.abc import Sequence

# the paper's scenarios, numbered from 1 on the command line
SCENARIOS = ("single-class", "multi-class-group", "all-classes")


class ClassRegistry:
    """Ordered class names; a name's position is its class_id."""

    __slots__ = ("names",)

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not names:
            raise ValueError("registry needs at least one class name")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        if any(not n or n.split() != [n] for n in names):
            raise ValueError("class names must be non-empty, without whitespace")
        self.names = names

    @classmethod
    def from_text(cls, text: str) -> "ClassRegistry":
        return cls([line.strip() for line in text.splitlines() if line.strip()])

    def to_text(self) -> str:
        return "".join(name + "\n" for name in self.names)

    def index(self, name: str) -> int:
        if name not in self.names:
            raise ValueError(f"unknown class {name!r}")
        return self.names.index(name)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, class_id: int) -> str:
        return self.names[class_id]

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassRegistry):
            return NotImplemented
        return self.names == other.names


def read_records(text: str, fields: int, parse_record) -> list:
    """`parse_record(parts)` for each non-blank line split on whitespace.
    A line without `fields` parts, or a ValueError from `parse_record`,
    raises ValueError with `line N: ` (counted from 1) in front."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        try:
            if len(parts) == fields:
                out.append(parse_record(parts))
            elif parts:
                raise ValueError(f"expected {fields} fields, got {len(parts)}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out
