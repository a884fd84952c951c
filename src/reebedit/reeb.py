"""Reeb graph extraction for PL functions on simplicial complexes.

The quotient identifying points within connected components of level sets
is computed by one sweep over the distinct vertex values: components of
each vertex-value level become nodes, components over each open gap
(where the component structure is constant) become edges.  Every simplex
crossing a gap reaches both bounding levels, which pins down the edge
endpoints.
"""
from __future__ import annotations

from .graphs import ReebGraph, complexify
from .maps import (
    Cell,
    CellMap,
    Slot,
    cellmap_from_hosting,
    gap_slot,
    level_ranks,
    level_slot,
    rank_slots,
)
from .plcore import PLFunction, Simplex, SimplicialComplex, support_components


def compute_reeb(
    complex: SimplicialComplex, f: PLFunction
) -> tuple[ReebGraph, CellMap]:
    """Reeb graph of (complex, f) plus the certified quotient map onto it.

    One pass over the simplices files each simplex, in source order, under
    every slot it meets (`rank_slots`), so each level's and gap's
    connectivity is found from the simplices meeting it alone; the total
    work is the size of the returned map's assignment.
    """
    if not complex.is_connected():
        raise ValueError("Reeb graphs are computed for connected complexes")
    h = {v: f(v) for v in complex.vertices}
    crit = sorted(set(h.values()))
    _, vrank = level_ranks(h, crit)
    slots = {s: rank_slots(vrank, s) for s in complex.simplices}
    support: dict[Slot, list[Simplex]] = {}
    for s, ss in slots.items():
        for slot in ss:
            support.setdefault(slot, []).append(s)

    node_values: dict[int, object] = {}
    cell_of: dict[Slot, dict[Simplex, Cell]] = {}  # per slot: simplex -> cell
    for k, t in enumerate(crit):
        table = cell_of[level_slot(k)] = {}
        for comp in support_components(complex, support[level_slot(k)]):
            node = ("n", len(node_values))
            for s in comp:
                table[s] = node
            node_values[node[1]] = t

    edges: list[tuple[int, int]] = []
    for k in range(len(crit) - 1):
        below, above = cell_of[level_slot(k)], cell_of[level_slot(k + 1)]
        table = cell_of[gap_slot(k)] = {}
        for comp in support_components(complex, support.get(gap_slot(k), [])):
            # every simplex over the gap spans it, so it appears in both
            # bounding level tables
            lo_nodes = {below[s][1] for s in comp}
            hi_nodes = {above[s][1] for s in comp}
            if len(lo_nodes) != 1 or len(hi_nodes) != 1:
                raise AssertionError(
                    f"gap component attaches ambiguously: {lo_nodes} / {hi_nodes}"
                )
            edge = ("e", len(edges))
            edges.append((lo_nodes.pop(), hi_nodes.pop()))
            for s in comp:
                table[s] = edge

    graph = ReebGraph(node_values, edges)
    # the map's levels are crit: vertex values are the node values and
    # vice versa, so its slots are the ones the simplices were filed under
    assignment: dict[Simplex, dict[Slot, Cell]] = {
        s: {slot: cell_of[slot][s] for slot in ss} for s, ss in slots.items()
    }
    return graph, CellMap(complex, dict(f.values), graph, assignment)


def reeb_of_graph(graph: ReebGraph) -> tuple[ReebGraph, CellMap]:
    """Reeb graph of a graph under its own value function.

    The source is the complexified graph, so the returned map composes
    with maps onto `graph` (`category.compose`).
    """
    gc = complexify(graph)
    return compute_reeb(gc.complex, PLFunction(gc.complex, gc.values))


def graph_identity_map(graph: ReebGraph) -> CellMap:
    """The identity quotient of a graph, as a map from its complexification."""
    gc = complexify(graph)
    return cellmap_from_hosting(gc.complex, dict(gc.values), graph, gc.host)
