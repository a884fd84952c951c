"""Combinatorial representations of piecewise-linear quotient maps.

A CellMap records where every simplex of a source complex goes in a target
graph, stratified by the value levels it crosses.  Levels are the sorted
union of the vertex values (pulled back through the map) and the target
node values; a simplex is assigned one graph cell per level it meets and
one per open gap between consecutive levels it spans.  All verification
(surjectivity, connected fibers, face compatibility) happens on this
finite data.

A slot is an int: 2i is level i and 2i+1 the open gap (level i, level i+1).
Only this module knows that encoding, but for one fact: consecutive levels
are two slots apart (`category.induced_map`); everything else asks
`CellMap.slot_range` for a slot's value interval.  Assignments are built on
slots: an edge cell is snapped to its end node by comparing slots
(`CellMap.snap`), and a map is re-read on a complex whose simplices have
hosts covering their images (a containing simplex for a subdivision, one
over the same cell for an induced map) through the run of its slots each
new slot meets (`restrict_cellmap`, `CellMap.slots_over`).  Values are
compared only to find the slot holding a value (`slot_in`).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .graphs import ReebGraph
from .plcore import Scalar, Simplex, SimplicialComplex, support_components

# a cell of a graph: ("n", node_id) or ("e", edge_id)
Cell = tuple[str, int]
# a slot: 2i = level i, 2i+1 = open gap (level i, level i+1)
Slot = int


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: str

    def __str__(self) -> str:
        return f"[{self.axiom}] {self.witness}"


@dataclass(frozen=True)
class Certificate:
    ok: bool
    checked: tuple[str, ...]
    violations: tuple[Violation, ...] = ()

    def summary(self) -> str:
        if self.ok:
            return "certified: " + ", ".join(self.checked)
        return "FAILED:\n" + "\n".join(str(v) for v in self.violations)


class CertificationError(ValueError):
    """A map that had to be a certified Reeb quotient failed the axioms."""


def level_ranks(
    h: dict[int, Scalar], levels: list[Scalar]
) -> tuple[dict[Scalar, int], dict[int, int]]:
    """Index of each of the sorted `levels`, and of each vertex's level
    under h."""
    rank = {t: i for i, t in enumerate(levels)}
    return rank, {v: rank[t] for v, t in h.items()}


def level_slot(i: int) -> Slot:
    return 2 * i


def gap_slot(i: int) -> Slot:
    return 2 * i + 1


def _slot_name(slot: Slot) -> str:
    return f"{'gap' if slot % 2 else 'level'} {slot // 2}"


def slot_in(levels: Sequence[Scalar], t: Scalar) -> Slot:
    """The slot of value t among sorted levels."""
    i = bisect_left(levels, t)
    if i < len(levels) and levels[i] == t:
        return 2 * i
    return 2 * i - 1


def rank_slots(vertex_rank: dict[int, int], s: Simplex) -> range:
    """Slots met by simplex s, given its vertices' level indices: every
    level from the lowest to the highest, and every gap between them."""
    ranks = [vertex_rank[v] for v in s]
    return range(2 * min(ranks), 2 * max(ranks) + 1)


class CellMap:
    """A PL map from a simplicial complex onto a Reeb graph.

    h maps source vertices to their values under the composite
    value-function of the target (i.e. the pullback of the graph's value
    function), extended linearly over simplices.  assignment[simplex][slot]
    names the graph cell containing the image of the part of the simplex
    lying at that level / gap.
    """

    def __init__(
        self,
        source: SimplicialComplex,
        h: dict[int, Scalar],
        target: ReebGraph,
        assignment: dict[Simplex, dict[Slot, Cell]],
    ):
        self.source = source
        self.h = dict(h)
        self.target = target
        self.assignment = assignment
        lv = set(h.values()) | {target.value(n) for n in target.nodes}
        self.levels: list[Scalar] = sorted(lv)
        rank, self._vertex_rank = level_ranks(self.h, self.levels)
        # each target node's level slot
        self.node_slot: dict[int, Slot] = {
            n: level_slot(rank[x]) for n, x in target.node_values.items()
        }

    # -- level / slot bookkeeping -------------------------------------

    def slot_range(self, slot: Slot) -> tuple[Scalar, Scalar]:
        """Value interval of a slot: lo == hi exactly for a level, and the
        open gap (lo, hi) otherwise."""
        i, gap = divmod(slot, 2)
        return self.levels[i], self.levels[i + gap]

    def slots_of(self, s: Simplex) -> range:
        return rank_slots(self._vertex_rank, s)

    def slots_over(self, levels: Sequence[Scalar]) -> list[range]:
        """The run of this map's slots met by each slot of other sorted
        levels within its value range, as a list indexed by their slot.
        A level meets the one slot holding it; an open gap meets every slot
        from the gap above its low end to the gap below its high end."""
        at = [slot_in(self.levels, t) for t in levels]
        out: list[range] = []
        for a, b in zip(at, at[1:]):
            out += (range(a, a + 1), range(a | 1, b + b % 2))
        return out + [range(a, a + 1) for a in at[-1:]]

    def snap(self, cell: Cell, slot: Slot) -> Cell:
        """An edge cell becomes its end node n when slot is n's level
        slot; any other cell is returned as it is."""
        if cell[0] == "e":
            for n in self.target.edges[cell[1]]:
                if self.node_slot[n] == slot:
                    return ("n", n)
        return cell


def cellmap_from_hosting(
    source: SimplicialComplex,
    h: dict[int, Scalar],
    target: ReebGraph,
    host: dict[Simplex, Cell],
) -> CellMap:
    """Build a CellMap when every simplex lands inside a single cell."""
    m = CellMap(source, h, target, {})
    assignment: dict[Simplex, dict[Slot, Cell]] = {}
    for s in source.simplices:
        cell = host[s]
        per: dict[Slot, Cell] = {}
        for slot in m.slots_of(s):
            if slot % 2 and cell[0] != "e":
                raise ValueError(f"simplex {s} spans a gap inside node {cell}")
            per[slot] = m.snap(cell, slot)
        assignment[s] = per
    m.assignment = assignment
    return m


# -- verification -------------------------------------------------------


def verify_reeb_quotient(m: CellMap) -> Certificate:
    """Check that a CellMap is a well-formed surjection with connected
    fibers over every node, every edge-over-a-gap, and every edge interior
    point at a level.  Returns a certificate with explicit witnesses on
    failure.

    Each node sits at one level slot and each edge spans the slots between
    its endpoints' level slots; an edge cell is well-formed at a slot
    exactly when the slot lies strictly inside that span.  Each fiber is
    read from a (slot, cell) -> simplices index built in one pass, so no
    check rescans the source.

    The source's connectivity needs no check: these checks imply it.
    Every simplex lies in the fiber of each of its (slot, cell) pairs, and
    every well-formed pair's fiber is checked nonempty and connected.  A simplex over a gap
    of edge e spans it, so by the incidence axiom it also lies in the
    fibers over the neighboring levels, with cells snap(e, level): fibers
    of adjacent strata share a simplex.  Along each edge the strata run
    from its lower node's level to its upper node's, so a connected target
    links every stratum, and hence every simplex.
    """
    bad: list[Violation] = []
    g = m.target
    node_slot = m.node_slot
    span = [(node_slot[lo], node_slot[hi]) for lo, hi in g.edges]

    # structural well-formedness
    if not g.is_connected():
        bad.append(Violation("connected-target", "target graph is disconnected"))
    for s in m.source.simplices:
        slots = m.slots_of(s)
        per = m.assignment.get(s, {})
        if set(per) != set(slots):
            have = ", ".join(map(_slot_name, sorted(per)))
            need = ", ".join(map(_slot_name, slots))
            bad.append(Violation("slots", f"simplex {s}: have [{have}], need [{need}]"))
            continue
        for slot in slots:
            cell = per[slot]
            if cell[0] == "e":
                lo, hi = span[cell[1]]
                if not lo < slot < hi:
                    bad.append(_cell_violation(m, s, slot, cell))
            elif node_slot.get(cell[1]) != slot:
                bad.append(_cell_violation(m, s, slot, cell))
        # gap <-> neighboring level incidence
        for slot in slots[1::2]:
            cell = per[slot]
            if cell[0] != "e":
                continue
            for near in (slot - 1, slot + 1):
                if per[near] != m.snap(cell, near):
                    bad.append(
                        Violation(
                            "incidence",
                            f"{s}: {_slot_name(slot)} cell {cell} vs "
                            f"{_slot_name(near)} cell {per[near]}",
                        )
                    )
        # face compatibility
        for f in m.source.facets[s]:
            for slot in m.slots_of(f):
                if m.assignment[f].get(slot) != per.get(slot):
                    bad.append(
                        Violation(
                            "face",
                            f"face {f} of {s} disagrees at {_slot_name(slot)}: "
                            f"{m.assignment[f].get(slot)} vs {per.get(slot)}",
                        )
                    )
    if bad:
        return Certificate(False, (), tuple(bad))

    # surjectivity and connected fibers, stratum by stratum
    checked = ("well-formed", "surjective", "connected-fibers")
    fibers: dict[tuple[Slot, Cell], list[Simplex]] = {}
    for s in m.source.simplices:
        for key in m.assignment[s].items():
            fibers.setdefault(key, []).append(s)

    def check(slot: Slot, cell: Cell, missed, split) -> None:
        # missed() and split() format the witness only on failure
        sup = fibers.get((slot, cell))
        if not sup:
            bad.append(Violation("surjective", missed()))
        elif len(support_components(m.source, sup)) != 1:
            bad.append(Violation("fiber", split()))

    for n in g.nodes:
        check(
            node_slot[n],
            ("n", n),
            lambda: f"node {n} (value {g.value(n)}) not hit",
            lambda: f"fiber over node {n} disconnected",
        )

    for e, (sa, sb) in enumerate(span):
        for slot in range(sa + 1, sb, 2):
            # gap (a, b) inside the edge span
            a, b = m.slot_range(slot)
            check(
                slot,
                ("e", e),
                lambda: f"edge {e} not hit over ({a},{b})",
                lambda: f"fiber over edge {e}, gap ({a},{b}) disconnected",
            )
            if slot - 1 > sa:
                # interior level of the edge, just below the gap
                check(
                    slot - 1,
                    ("e", e),
                    lambda: f"edge {e} not hit at level {a}",
                    lambda: f"fiber over edge {e} at level {a} disconnected",
                )
    if bad:
        return Certificate(False, (), tuple(bad))
    return Certificate(True, checked)


def _cell_violation(m: CellMap, s: Simplex, slot: Slot, cell: Cell) -> Violation:
    """The witness for a cell that cannot hold the image of s at slot."""
    lo, hi = m.slot_range(slot)
    if lo < hi:
        what = f"node {cell}" if cell[0] == "n" else f"edge {cell[1]} too short"
        return Violation("gap-cell", f"{s} {_slot_name(slot)}: {what}")
    if cell[0] == "n":
        what = f"node {cell[1]} off-level"
    else:
        what = f"edge {cell[1]} does not cross (unnormalized?)"
    return Violation("level-cell", f"{s}@{lo}: {what}")


# -- restriction to a subdivision ----------------------------------------


def restrict_cellmap(
    m: CellMap,
    sliced: SimplicialComplex,
    new_h: dict[int, Scalar],
    host: dict[Simplex, Simplex],
) -> CellMap:
    """Re-express a CellMap on another complex through host simplices.

    host[piece] must be an old simplex whose image covers the piece's: one
    containing it in a subdivision, or one over the same cell for induced
    maps; new_h gives the values there.  Each new slot meets a run of old
    slots (`CellMap.slots_over`); the host must carry one cell over it.
    """
    out = CellMap(sliced, new_h, m.target, {})
    over = m.slots_over(out.levels)
    assignment: dict[Simplex, dict[Slot, Cell]] = {}
    for piece in sliced.simplices:
        hs = host[piece]
        cells = m.assignment.get(hs, {})
        per: dict[Slot, Cell] = {}
        for slot in out.slots_of(piece):
            run = over[slot]
            found = {cells.get(k) for k in run}
            if len(found) != 1 or None in found:
                a, b = out.slot_range(slot)
                what = "does not meet" if None in found else "has several cells over"
                raise ValueError(f"simplex {hs} {what} [{a},{b}]: {found}")
            (cell,) = found
            if slot % 2 and cell[0] != "e":
                a, b = out.slot_range(slot)
                raise ValueError(f"simplex {hs} maps the gap ({a},{b}) to node {cell}")
            per[slot] = m.snap(cell, run[0])
        assignment[piece] = per
    out.assignment = assignment
    return out


def _same_graph(a: ReebGraph, b: ReebGraph) -> bool:
    return a.node_values == b.node_values and a.edges == b.edges
