"""First-quadrant spectral-sequence pages concentrated on a few lines."""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbGroup2, ZERO


@dataclass(frozen=True)
class ChartLine:
    """One horizontal line of a page: a coefficient tag and its entries."""

    coefficient: str  # "Z", "Z_alpha", or "F2"
    entries: dict[int, AbGroup2]  # p -> nontrivial group, ascending p

    @classmethod
    def from_dict(cls, coefficient: str, entries: dict[int, AbGroup2]) -> "ChartLine":
        cleaned = {p: g for p, g in sorted(entries.items()) if not g.is_trivial}
        if any(p < 0 for p in cleaned):
            raise ValueError("negative filtration degree")
        return cls(coefficient, cleaned)

    def group(self, p: int) -> AbGroup2:
        return self.entries.get(p, ZERO)


@dataclass(frozen=True)
class Chart:
    """One page of a first-quadrant spectral sequence, entries by (p, q)."""

    page: int
    lines: dict[int, ChartLine]  # q -> line, ascending q

    @classmethod
    def from_dict(cls, page: int, lines: dict[int, ChartLine]) -> "Chart":
        return cls(page, dict(sorted(lines.items())))

    def line(self, q: int) -> ChartLine | None:
        return self.lines.get(q)

    def entry(self, p: int, q: int) -> AbGroup2:
        line = self.lines.get(q)
        return line.group(p) if line is not None else ZERO

    def line_degrees(self) -> list[int]:
        return list(self.lines)

    def to_json_obj(self) -> dict:
        return {
            "page": self.page,
            "lines": [
                {
                    "q": q,
                    "coefficient": line.coefficient,
                    "entries": [
                        {"p": p, "group": g.to_json_dict()}
                        for p, g in line.entries.items()
                    ],
                }
                for q, line in self.lines.items()
            ],
        }
