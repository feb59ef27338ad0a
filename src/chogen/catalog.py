"""Catalog of minimum-N certified designs over the reference grid.

The reference table lists, for each model block and each (m, n) cell with
2 <= n <= 12, the number of choice sets N of the smallest known
universally optimal design.  candidate_recipes lists every construction
that applies to a cell, first_certified builds and certifies them
cheapest first, and catalog_lookup compares the winner's N against the
reference value.  The command line uses the same two functions, and
t1_generator_recipe, the recipe rule the catalog lists for Theorem 1, when
it is given generators.

candidate_recipes builds nothing to decide what it lists: it offers the
Theorem 1 recipe when its default unit generators fit in n factors.
build still validates every generator set, so a recipe listed by
mistake is refused, not built wrong.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass
from typing import Optional

from .constructions import (ConstructionRecipe, build, coset_columns,
                            direct_add_alpha, seed_alpha)
from .errors import BelowRankBound, ChogenError, Unsupported
from .hadamard import hadamard_plan, least_hadamard_order
from .models import ModelKind, ModelSpec
from .optimality import below_rank_bound, verify

TABLE_NS = tuple(range(2, 13))

# Reference N per block; one row per m, columns n = 2..12, None = blank.
TABLE1 = {
    ModelKind.MAIN_EFFECTS: {
        2: (2, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12),
        3: (2, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12),
        4: (1, 1, 2, 2, 2, 4, 4, 4, 4, 4, 4),
        5: (None, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12),
        6: (None, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12),
        7: (None, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12),
        8: (None, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2),
    },
    ModelKind.BROADER_MAIN_EFFECTS: {
        2: (2, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12),
        3: (2, 8, 8, 16, 16, 16, 16, 24, 24, 24, 24),
        4: (1, 2, 4, 4, 4, 8, 8, 8, 8, 8, 8),
        5: (None, 8, 8, 16, 16, 16, 16, 24, 24, 24, 24),
        6: (None, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12),
        7: (None, 8, 8, 16, 16, 16, 16, 24, 24, 24, 24),
        8: (None, 1, 1, 2, 2, 2, 4, 4, 4, 4, 4),
    },
    ModelKind.SPECIFIED_TWO_FACTOR: {
        3: (4, 8, 8, 16, 16, 16, 16, 24, 24, 24, 24),
        4: (None, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12),
    },
    ModelKind.SPECIFIED_ONE_FACTOR: {
        3: (4, 8, 8, 16, 16, 16, 16, 32, 32, 32, 32),
        4: (None, 4, 4, 8, 8, 8, 8, 16, 16, 16, 16),
    },
}

# Cells where the constructions provably certify at a different N than the
# reference lists; reproduction treats exactly these deviations as expected.
# Broader m=3 n=2 certifies at N=4.  For spec-all, the coset bound
# (constructions.coset_columns at r=1) puts the least generator-shift seed
# at width 2^(n-1) at m=3 and 2^(n-2) at m=4, so N = 2^n and 2^(n-2); at
# n >= 6 the listed N also fall below the rank bound N(m-1) >= Q, which no
# design of any construction passes.
EXPECTED_DEVIATIONS = {
    (ModelKind.BROADER_MAIN_EFFECTS, 3, 2): 4,
    **{(ModelKind.SPECIFIED_ONE_FACTOR, 3, n): 1 << n for n in range(4, 13)},
    **{(ModelKind.SPECIFIED_ONE_FACTOR, 4, n): 1 << (n - 2)
       for n in range(6, 13)},
}


class CellStatus(str, enum.Enum):
    MATCH = "Match"
    MISMATCH = "Mismatch"
    NO_CONSTRUCTION = "NoConstruction"
    BLANK_CELL = "BlankCell"


@dataclass(frozen=True)
class CatalogEntry:
    kind: ModelKind
    m: int
    n: int
    table_N: Optional[int]
    achieved_N: Optional[int]
    status: CellStatus
    recipe: Optional[ConstructionRecipe]
    certified: bool
    note: str = ""


def _require_specified_m(m: int, family: str):
    if m not in (3, 4):
        raise Unsupported(
            f"{family} constructions cover m in {{3,4}}, got {m}")


# The model kinds that take the Theorem 1 generator recipe.
T1_KINDS = (ModelKind.MAIN_EFFECTS, ModelKind.BROADER_MAIN_EFFECTS)


def t1_generator_recipe(model: ModelSpec, m: int, generators=None,
                        columns=None) -> ConstructionRecipe:
    """The Theorem 1 generator-shift recipe for a model of a T1_KINDS kind.

    Main effects take the half design, N = nu, the least Hadamard order
    >= n; the broader model takes the full one, N = nu for even m and
    2 nu for odd m.  generators=None shifts by the default unit vectors.
    """
    nu = least_hadamard_order(model.n)
    half = model.kind is ModelKind.MAIN_EFFECTS
    return ConstructionRecipe("T1-generator", m, model,
                              nu if half or m % 2 == 0 else 2 * nu,
                              variant="half" if half else "full",
                              generators=generators, columns=columns)


COSET_NOTE = ("no seed of the listed width balances every effect pair here; "
              "certified on a wider seed with XOR-independent columns")


def _seed_recipes(model: ModelSpec, m: int) -> list:
    """Generator-shift recipes on Sylvester seeds of width 2^alpha: the
    least 2^alpha >= n (alpha >= 2) on columns 1..n, order 2 for n <= 2,
    and the coset_columns seed when it is another design at least as wide.
    m=3 doubles N.
    """
    rid, n = f"{model.kind.value}-m{m}", model.n
    doubling = 2 if m == 3 else 1
    alpha = seed_alpha(n)
    recipes = [ConstructionRecipe(rid, m, model, doubling << alpha,
                                  alpha=alpha)]
    if n <= 2:
        recipes.append(ConstructionRecipe(
            rid, m, model, doubling << 1, alpha=1,
            note="seed order 2 sits below the usual seed range"))
    k, columns = coset_columns(n, model.r or 1, m)
    if k >= alpha and columns != tuple(range(1, n + 1)):
        recipes.append(ConstructionRecipe(
            rid, m, model, doubling << k, alpha=k, columns=columns,
            note=COSET_NOTE))
    return recipes


def candidate_recipes(kind: ModelKind, m: int, n: int, r=None) -> tuple:
    """Every construction recipe whose claim covers the (kind, m, n) cell.

    r is the group size of the SPECIFIED_GROUP model, unused otherwise.
    """
    if kind in (ModelKind.SPECIFIED_ONE_FACTOR, ModelKind.SPECIFIED_GROUP):
        # the models refuse n < 2, so m in {3,4} always fits in 2^n options;
        # spec-all is the group model at r = 1
        _require_specified_m(m, "group-interaction")
        return tuple(_seed_recipes(ModelSpec.family(kind, n, r), m))
    if n < 1 or m < 2 or m > (1 << n):
        return ()
    if kind is ModelKind.SPECIFIED_TWO_FACTOR:
        _require_specified_m(m, "two-factor interaction")
        nu = least_hadamard_order(n)
        return (ConstructionRecipe(f"spec-2f-m{m}", m,
                                   ModelSpec.family(kind, n),
                                   2 * nu if m == 3 else nu),)
    if all(kind is not k for k in T1_KINDS):
        raise Unsupported(f"no catalog block for model kind {kind!r}")
    model = ModelSpec.family(kind, n)
    # main effects take the half designs, the broader model the full ones
    half = kind is ModelKind.MAIN_EFFECTS
    variant = "half" if half else "full"
    recipes = []
    if hadamard_plan(m) is not None and n <= m - 1:
        recipes.append(ConstructionRecipe(
            "foldover-pair", m, model, 1 if half else 2, variant=variant,
            order=m))
    if m % 2 == 0 and hadamard_plan(m // 2) is not None and n <= m // 2:
        recipes.append(ConstructionRecipe(
            "single-set", m, model, 1, order=m // 2))
    if hadamard_plan(m) is not None and n > m - 1:
        alpha = direct_add_alpha(n, m)
        recipes.append(ConstructionRecipe(
            "T2-direct-add", m, model, 1 << (alpha if half else alpha + 1),
            variant=variant))
    # with m <= 2^n the (m-1)//2 unit generators are valid iff they fit in
    # n factors: an all-ones (n=1) or complement pair (n=2) needs m > 2^n
    if (m - 1) // 2 <= n:
        recipes.append(t1_generator_recipe(model, m))
    return tuple(recipes)


def first_certified(recipes) -> tuple:
    """Build and verify recipes cheapest first; stop at the first certified.

    Recipes are tried in a stable sort by claimed_N, so ties keep their
    given order.  Returns (winner, rejected): winner is (recipe, design,
    report) or None, and rejected lists (recipe, reason) for every recipe
    tried before it, the reason being a BelowRankBound refusal, the
    build's ChogenError or the uncertified report.  Errors raised by
    verify propagate.  verify reads C* only for a balanced design at the
    trace bound; an uncertified report reads it, and may raise its
    InvariantError, on the first read of its C* fields
    (OptimalityReport.diagonal and the rest).

    A recipe whose claimed_N(m-1) is below the model's Q is refused
    without being built: build raises unless the design has the claimed
    N, and such a design has rank C* < Q, so it could only be
    NotConnected.
    """
    rejected = []
    for recipe in sorted(recipes, key=lambda rec: rec.claimed_N):
        N, m, Q = recipe.claimed_N, recipe.m, recipe.model.Q
        if below_rank_bound(N, m, Q):
            rejected.append((recipe, BelowRankBound(
                f"NotConnected: N(m-1) = {N * (m - 1)} < Q = {Q}")))
            continue
        try:
            design = build(recipe)
        except ChogenError as exc:
            rejected.append((recipe, exc))
            continue
        report = verify(design, recipe.model)
        if report.certified:
            return (recipe, design, report), rejected
        rejected.append((recipe, report))
    return None, rejected


def catalog_lookup(kind: ModelKind, m: int, n: int) -> CatalogEntry:
    """Certified minimum-N entry for one cell of the reference table."""
    kind = ModelKind(kind)
    if kind not in TABLE1:
        raise Unsupported(f"no catalog block for model kind {kind!r}")
    block = TABLE1[kind]
    if m not in block:
        raise Unsupported(f"the {kind.value} block has no row m={m}")
    if n not in TABLE_NS:
        raise Unsupported(f"the catalog covers n in 2..12, got n={n}")
    table_N = block[m][n - 2]
    if table_N is None:
        return CatalogEntry(kind, m, n, None, None, CellStatus.BLANK_CELL,
                            None, False, "reference table leaves this cell blank")
    winner, _ = first_certified(candidate_recipes(kind, m, n))
    if winner is None:
        return CatalogEntry(kind, m, n, table_N, None,
                            CellStatus.NO_CONSTRUCTION, None, False,
                            "no candidate construction certified")
    recipe, design, _ = winner
    achieved = design.N
    status = CellStatus.MATCH if achieved == table_N else CellStatus.MISMATCH
    note = recipe.note
    if status is CellStatus.MISMATCH:
        extra = f"constructions certify N={achieved}, reference lists {table_N}"
        note = f"{note}; {extra}" if note else extra
    return CatalogEntry(kind, m, n, table_N, achieved, status, recipe, True, note)


@dataclass(frozen=True)
class Table1Report:
    entries: tuple

    def _by_status(self, status: CellStatus) -> list:
        return [e for e in self.entries if e.status is status]

    @property
    def match_count(self) -> int:
        return len(self._by_status(CellStatus.MATCH))

    @property
    def mismatch_count(self) -> int:
        return len(self._by_status(CellStatus.MISMATCH))

    @property
    def checked_count(self) -> int:
        return sum(1 for e in self.entries
                   if e.status is not CellStatus.BLANK_CELL)

    def deviations(self) -> list:
        """Entries that differ from the reference value."""
        return [e for e in self.entries
                if e.status in (CellStatus.MISMATCH, CellStatus.NO_CONSTRUCTION)]

    def notes(self) -> list:
        return [e for e in self.entries if e.note
                and e.status is not CellStatus.BLANK_CELL]

    @property
    def deviations_expected(self) -> bool:
        """True when the diff against the reference is exactly the known one."""
        got = {(e.kind, e.m, e.n): e.achieved_N for e in self.deviations()}
        return got == EXPECTED_DEVIATIONS

    def summary(self) -> str:
        lines = [
            f"checked {self.checked_count} non-blank cells: "
            f"{self.match_count} match, {self.mismatch_count} differ"
        ]
        for e in self.deviations():
            key = (e.kind, e.m, e.n)
            known = (key in EXPECTED_DEVIATIONS
                     and EXPECTED_DEVIATIONS[key] == e.achieved_N)
            tag = "known deviation" if known else "UNEXPECTED"
            lines.append(
                f"  {tag}: {e.kind.value} m={e.m} n={e.n}: {e.note}")
        for e in self.notes():
            if e.status is CellStatus.MATCH:
                lines.append(
                    f"  note: {e.kind.value} m={e.m} n={e.n}: {e.note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("model,m,n,table_N,achieved_N,status,certified,recipe,note\n")
        for e in self.entries:
            recipe = e.recipe.describe() if e.recipe else ""
            note = e.note.replace(",", ";")
            table_n = "" if e.table_N is None else e.table_N
            achieved = "" if e.achieved_N is None else e.achieved_N
            out.write(f"{e.kind.value},{e.m},{e.n},{table_n},{achieved},"
                      f"{e.status.value},{e.certified},{recipe},{note}\n")
        return out.getvalue()

    def to_text(self) -> str:
        lines = []
        present = {e.kind for e in self.entries}
        for kind in TABLE1:
            if kind not in present:
                continue
            lines.append(f"{kind.value}")
            header = "  m\\n " + " ".join(f"{n:>3}" for n in TABLE_NS)
            lines.append(header)
            for m in TABLE1[kind]:
                cells = []
                for n in TABLE_NS:
                    e = next(x for x in self.entries
                             if x.kind is kind and x.m == m and x.n == n)
                    if e.status is CellStatus.BLANK_CELL:
                        cells.append("  .")
                    elif e.status is CellStatus.MATCH:
                        cells.append(f"{e.achieved_N:>3}")
                    else:
                        shown = "!" if e.achieved_N is None else f"{e.achieved_N}!"
                        cells.append(f"{shown:>3}")
                lines.append(f"  {m:>3} " + " ".join(cells))
        lines.append("(. blank cell, ! differs from the reference value)")
        return "\n".join(lines)


def reproduce_table1(kinds=None) -> Table1Report:
    """Rebuild and certify every non-blank cell of the reference table."""
    if kinds is None:
        kinds = tuple(TABLE1)
    entries = []
    for kind in kinds:
        kind = ModelKind(kind)
        if kind not in TABLE1:
            raise Unsupported(f"no catalog block for model kind {kind!r}")
        for m in TABLE1[kind]:
            for n in TABLE_NS:
                entries.append(catalog_lookup(kind, m, n))
    return Table1Report(tuple(entries))
