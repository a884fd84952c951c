"""JSON interchange (exact rationals as "p/q" strings) plus DOT export.
JSON is the only parseable format; serialize -> parse is the identity on
instances and graphs."""
from __future__ import annotations

import json
from typing import Optional

from .graphs import ReebGraph
from .plcore import PLFunction, SimplicialComplex, format_scalar, parse_scalar

# Input instances are complexes of dimension at most 3.  The library's own
# constructions may go higher: a fiber product of two triangles over one
# value is 4-dimensional.
MAX_INPUT_DIM = 3


def instance_to_dict(cx: SimplicialComplex, f: PLFunction) -> dict:
    return {
        "vertices": [
            {"id": v, "value": format_scalar(f.values[v])}
            for v in cx.vertices
        ],
        "simplices": [list(s) for s in cx.simplices if len(s) > 1],
    }


def _int_id(x, where: str, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"malformed {where}: {what} {x!r} is not an integer")
    return x


def _vertex_id(v) -> int:
    return _int_id(v, "instance", "vertex id")


def _values_by_id(entries, where: str, what: str) -> dict:
    values = {}
    for entry in entries:
        i = _int_id(entry["id"], where, what)
        if i in values:
            raise ValueError(f"malformed {where}: duplicate {what} {i}")
        values[i] = parse_scalar(entry["value"])
    return values


def instance_from_dict(data: dict) -> tuple[SimplicialComplex, PLFunction]:
    try:
        values = _values_by_id(data["vertices"], "instance", "vertex id")
        simplices = [tuple(map(_vertex_id, s)) for s in data["simplices"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance: {exc}") from exc
    for s in simplices:
        if not s:
            raise ValueError("malformed instance: empty simplex")
        if len(s) - 1 > MAX_INPUT_DIM:
            raise ValueError(
                f"malformed instance: simplex dimension above {MAX_INPUT_DIM}: "
                f"{list(s)}"
            )
    simplices += [(v,) for v in values]
    cx = SimplicialComplex.from_simplices(simplices)
    if set(cx.vertices) - set(values):
        raise ValueError("simplices reference vertices without values")
    return cx, PLFunction(cx, values)


def graph_to_dict(g: ReebGraph) -> dict:
    return {
        "nodes": [
            {"id": n, "value": format_scalar(g.node_values[n])}
            for n in sorted(g.node_values)
        ],
        "edges": [[lo, hi] for lo, hi in g.edges],
    }


def graph_from_dict(data: dict) -> ReebGraph:
    try:
        values = _values_by_id(data["nodes"], "graph", "node id")
        edges = []
        for e in data["edges"]:
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"malformed graph: edge {e!r} is not a node pair")
            edges.append(tuple(_int_id(n, "graph", "edge endpoint") for n in e))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph: {exc}") from exc
    if not values:
        raise ValueError("malformed graph: no nodes")
    return ReebGraph(node_values=values, edges=edges)


def load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: parse error at line {exc.lineno} column {exc.colno}"
            ) from exc


def dump_json(data: dict, path: Optional[str]) -> str:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def graph_to_dot(g: ReebGraph, name: str = "reeb") -> str:
    lines = [f"graph {name} {{"]
    for n in sorted(g.node_values):
        lines.append(
            f'  n{n} [label="{n}: {format_scalar(g.node_values[n])}"];'
        )
    for lo, hi in g.edges:
        lines.append(f"  n{lo} -- n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
