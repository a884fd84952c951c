"""Command-line interface.

Exit codes: 0 success, 1 axiom/certification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import generators, serialize
from .editdist import (
    build_homotopy_zigzag,
    coupling,
    coupling_bound,
    point_distance,
)
from .graphs import GraphPoint, ReebGraph, point_on_edge
from .maps import CertificationError, verify_reeb_quotient
from .metrics import _cylinder_candidates, d_f, distortion
from .plcore import format_scalar, parse_scalar
from .reeb import compute_reeb

USAGE_ERROR = 2
AXIOM_ERROR = 1


def _load_instance(path: str):
    return serialize.instance_from_dict(serialize.load_json(path))


def _load_pair(path_f: str, path_g: str, command: str):
    """(complex, f, g) from two instances on one complex, or None after
    printing why not."""
    cx_f, f = _load_instance(path_f)
    cx_g, g = _load_instance(path_g)
    if cx_f.simplices != cx_g.simplices:
        print(f"{command} needs two functions on one complex", file=sys.stderr)
        return None
    return cx_f, f, g


def _parse_point(g: ReebGraph, text: str) -> GraphPoint:
    if text.startswith("n"):
        node = int(text[1:])
        if node not in g.node_values:
            raise ValueError(f"no node {node}")
        return GraphPoint(node=node)
    if text.startswith("e") and "@" in text:
        e_str, val = text[1:].split("@", 1)
        edge = int(e_str)
        if not 0 <= edge < len(g.edges):
            raise ValueError(f"no edge {edge}")
        return point_on_edge(g, edge, parse_scalar(val))
    raise ValueError(f"point syntax: n<id> or e<edge>@<value>, got {text!r}")


def cmd_generate(args) -> int:
    if args.kind == "cylinder":
        cx, f, g = generators.cylinder(args.n)
    elif args.kind == "circle":
        cx, f = generators.circle(args.n)
        g = None
    elif args.kind == "path":
        cx, f = generators.path(args.n)
        g = None
    elif args.kind == "point":
        cx, f = generators.point(parse_scalar(args.value))
        g = None
    else:  # random
        cx, f, g = generators.random_instance(
            args.seed, args.nverts, second_function=args.second_output is not None
        )
    if args.second_output and g is None:
        print(f"generator {args.kind} has a single function", file=sys.stderr)
        return USAGE_ERROR
    out = serialize.dump_json(serialize.instance_to_dict(cx, f), args.output)
    if args.second_output:
        try:
            serialize.dump_json(serialize.instance_to_dict(cx, g), args.second_output)
        except OSError:
            # both files or neither
            if args.output:
                os.remove(args.output)
            raise
    if not args.output:
        sys.stdout.write(out)
    return 0


def cmd_reeb(args) -> int:
    cx, f = _load_instance(args.instance)
    graph, p = compute_reeb(cx, f)
    report = ""
    if args.certify:
        cert = verify_reeb_quotient(p)
        report = cert.summary() + "\n"
        if not cert.ok:
            sys.stdout.write(report)
            return AXIOM_ERROR
    text = (
        serialize.graph_to_dot(graph)
        if args.dot
        else serialize.dump_json(serialize.graph_to_dict(graph), None)
    )
    if args.output:
        # the file is written before the report is printed
        with open(args.output, "w") as fh:
            fh.write(text)
        sys.stdout.write(report)
    else:
        sys.stdout.write(report + text)
    return 0


def cmd_verify(args) -> int:
    cx, f = _load_instance(args.instance)
    _, p = compute_reeb(cx, f)
    cert = verify_reeb_quotient(p)
    print(cert.summary())
    return 0 if cert.ok else AXIOM_ERROR


def cmd_metric(args) -> int:
    g = serialize.graph_from_dict(serialize.load_json(args.graph))
    x = _parse_point(g, args.x)
    y = _parse_point(g, args.y)
    print(format_scalar(d_f(g, x, y)))
    return 0


def cmd_distortion(args) -> int:
    cx, f, g = generators.cylinder(args.n)
    phi, psi = _cylinder_candidates(cx, f, g)
    report = distortion(phi, psi, density=args.density)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("p1,q1,p2,q2,d_f,d_g,defect\n")
            for p1, q1, p2, q2, df_v, dg_v in report.rows:
                fh.write(
                    f"{_fmt_point(p1)},{_fmt_point(q1)},{_fmt_point(p2)},"
                    f"{_fmt_point(q2)},{format_scalar(df_v)},"
                    f"{format_scalar(dg_v)},{format_scalar(abs(df_v - dg_v))}\n"
                )
    print(f"distortion D = {format_scalar(report.distortion)}")
    print(f"defect f->g = {format_scalar(report.defect_fg)}")
    print(f"defect g->f = {format_scalar(report.defect_gf)}")
    print(f"bound = {format_scalar(report.bound)}")
    print(f"tight = {report.tight}")
    return 0


def _fmt_point(p: GraphPoint) -> str:
    if p.is_node:
        return f"n{p.node}"
    return f"e{p.edge}@{format_scalar(p.t)}"


def cmd_bound(args) -> int:
    if args.point is not None and args.second is not None:
        print("bound takes a second instance or --point, not both", file=sys.stderr)
        return USAGE_ERROR
    if args.point is not None:
        g = serialize.graph_from_dict(serialize.load_json(args.graph))
        print(format_scalar(point_distance(g, parse_scalar(args.point))))
        return 0
    if args.second is None:
        print("bound needs a second instance or --point", file=sys.stderr)
        return USAGE_ERROR
    pair = _load_pair(args.graph, args.second, "coupling bound")
    if pair is None:
        return USAGE_ERROR
    cx, f, g = pair
    c = coupling(compute_reeb(cx, f)[1], compute_reeb(cx, g)[1])
    print(format_scalar(coupling_bound(c)))
    return 0


def cmd_homotopy(args) -> int:
    pair = _load_pair(args.instance_f, args.instance_g, "homotopy")
    if pair is None:
        return USAGE_ERROR
    z, cert = build_homotopy_zigzag(*pair)
    if args.certify:
        z.validate()
    if args.output:
        witness = {
            "lambdas": [format_scalar(t) for t in cert.lambdas],
            "graphs": [serialize.graph_to_dict(r) for r in z.graphs],
            "cost": format_scalar(cert.cost),
            "witness_vertex": cert.witness_vertex,
            "stage_gaps": [format_scalar(t) for t in cert.stage_gaps],
        }
        serialize.dump_json(witness, args.output)
    print(f"cost = {format_scalar(cert.cost)}")
    print("cost <= ||f-g||: OK")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="reebedit",
        description="Exact Reeb graphs, certified edit-distance bounds, and "
        "functional-distortion evaluation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit an example instance as JSON")
    p.add_argument("kind", choices=["cylinder", "circle", "path", "point", "random"])
    p.add_argument("-n", type=int, default=8, help="resolution parameter")
    p.add_argument("--value", default="0", help="value for the point generator")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nverts", type=int, default=8)
    p.add_argument("-o", "--output")
    p.add_argument("--second-output", help="write the second function (cylinder/random)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reeb", help="compute the Reeb graph of an instance")
    p.add_argument("instance")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--certify", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reeb)

    p = sub.add_parser("verify", help="verify the Reeb quotient axioms")
    p.add_argument("instance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("metric", help="intrinsic d_f distance between points")
    p.add_argument("graph")
    p.add_argument("x", help="n<id> or e<edge>@<value>")
    p.add_argument("y")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser(
        "distortion", help="functional-distortion report for the cylinder pair"
    )
    p.add_argument("-n", type=int, default=8)
    p.add_argument("--density", type=int, default=1)
    p.add_argument("--csv", help="write the correspondence table as CSV")
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser("bound", help="certified coupling bound")
    p.add_argument("graph", help="instance JSON (or graph JSON with --point)")
    p.add_argument("second", nargs="?", help="second instance on the same complex")
    p.add_argument("--point", help="distance to the one-point graph at this value")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("homotopy", help="straight-line homotopy zigzag bound")
    p.add_argument("instance_f")
    p.add_argument("instance_g")
    p.add_argument("--certify", action="store_true")
    p.add_argument("-o", "--output", help="write the zigzag witness JSON")
    p.set_defaults(func=cmd_homotopy)

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return AXIOM_ERROR if isinstance(exc, CertificationError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
