"""End-to-end acceptance checks.

Every rational comparison below is exact (fractions.Fraction); there are no
tolerances anywhere.  Each test prints one PASS/FAIL line on the live
terminal so the suite doubles as a checklist.
"""

import random as _random
import time
from fractions import Fraction

import pytest

from reebedit.category import compose, pullback, triangulate_limit, limit_projection
from reebedit.metrics import _cylinder_candidates
from reebedit.editdist import (
    build_homotopy_zigzag,
    compose_couplings,
    coupling,
    coupling_bound,
    point_distance,
    point_graph,
    product_coupling,
    zigzag_cost,
)
from reebedit.generators import circle, cylinder, random_instance
from reebedit.graphs import GraphPoint, graph_isomorphic, minimalize
from reebedit.maps import verify_reeb_quotient
from reebedit.metrics import d_matrix, distortion
from reebedit.plcore import PLFunction
from reebedit.reeb import compute_reeb, graph_identity_map, reeb_of_graph

from oracles import barycentric_subdivision, interval_preimage_components

F = Fraction


@pytest.fixture
def report(capsys):
    def _report(label, fn):
        try:
            fn()
        except BaseException:
            with capsys.disabled():
                print(f"FAIL  {label}")
            raise
        with capsys.disabled():
            print(f"PASS  {label}")

    return _report


def test_criterion_1_cylinder_reeb_graphs(report):
    def check():
        start = time.perf_counter()
        cx, f, g = cylinder(8)
        rf, pf = compute_reeb(cx, f)
        rg, pg = compute_reeb(cx, g)
        elapsed = time.perf_counter() - start
        assert rf.betti1() == 1
        assert rf.value_range() == (F(-1), F(1))
        assert rg.betti1() == 0
        assert all(rg.degree(n) <= 2 for n in rg.nodes)  # a path
        endpoints = [n for n in rg.nodes if rg.degree(n) == 1]
        assert sorted(rg.value(n) for n in endpoints) == [F(-1), F(1)]
        assert elapsed < 1.0

    report("criterion 1: cylinder Reeb graphs (loop for f, path for g)", check)


def test_criterion_2_cylinder_coupling_bound(report):
    def check():
        cx, f, g = cylinder(8)
        _, pf = compute_reeb(cx, f)
        _, pg = compute_reeb(cx, g)
        assert coupling_bound(coupling(pf, pg)) == F(1)

    report("criterion 2: cylinder coupling bound = 1 exactly", check)


def test_criterion_3_functional_distortion_gap(report):
    # The candidate maps live on the minimalized Reeb graphs; minimalization
    # is a value-preserving homeomorphism of the underlying space, so every
    # d_f distance and hence the functional-distortion value is unchanged.
    def check():
        for n in (8, 16, 32):
            cx, f, g = cylinder(n)
            phi, psi = _cylinder_candidates(cx, f, g)
            rep = distortion(phi, psi)
            assert rep.tight
            assert rep.bound <= F(1, 2)
            assert rep.defect_fg == F(0)
            assert rep.defect_gf == F(0)

            # exhaustive node-pair distortion stays within 1
            gf, gg = phi.source, phi.target
            corners = [(GraphPoint(node=m), phi(GraphPoint(node=m)))
                       for m in gf.nodes]
            corners += [(psi(GraphPoint(node=m)), GraphPoint(node=m))
                        for m in gg.nodes]
            pf = [p for p, _ in corners]
            pg = [q for _, q in corners]
            mf = d_matrix(gf, pf)
            mg = d_matrix(gg, pg)
            for i in range(len(corners)):
                for j in range(i + 1, len(corners)):
                    df = mf.get((i, j), mf.get((j, i), F(0)))
                    dg = mg.get((i, j), mg.get((j, i), F(0)))
                    assert abs(df - dg) <= F(1)

        # the computable ingredient of the PL lower bound: the preimage of
        # [-d, d] on the circle has two components for each sampled d < 1
        ccx, cf = circle(8)
        for d in (F(1, 4), F(1, 2), F(3, 4)):
            assert len(interval_preimage_components(ccx, cf, -d, d)) == 2

    report("criterion 3: functional-distortion bound <= 1/2 on cylinders", check)


def test_criterion_4_point_graph_distance(report):
    def check():
        for seed in range(50):
            cx, f, _ = random_instance(seed, nverts=6)
            r, _ = compute_reeb(cx, f)
            c = F(seed - 25, 3)
            want = max(abs(r.value(n) - c) for n in r.nodes)
            assert point_distance(r, c) == want
            pc = product_coupling(r, point_graph(c))
            assert coupling_bound(pc) == want

    report("criterion 4: point-graph distance = node max = product bound "
           "(50 random graphs)", check)


def test_criterion_5_homotopy_stability_suite(report):
    def check():
        start = time.perf_counter()
        for seed in range(100):
            cx, f, g = random_instance(
                seed, nverts=3 + seed % 4, value_range=(-4, 4),
                second_function=True,
            )
            z, cert = build_homotopy_zigzag(cx, f, g)
            z.validate()  # re-certifies every map in the diagram
            norm = max(abs(f(v) - g(v)) for v in cx.vertices)
            assert cert.cost == norm == sum(cert.stage_gaps)
            w = cert.witness_vertex
            assert abs(f(w) - g(w)) == norm
        assert time.perf_counter() - start < 60.0

    report("criterion 5: homotopy zigzags certified, cost = ||f-g|| "
           "(100 pairs, < 60 s)", check)


def test_criterion_6_single_coupling_cost_identity(report):
    def check():
        for seed in range(50):
            cx, f, g = random_instance(seed, nverts=5, second_function=True)
            _, pf = compute_reeb(cx, f)
            _, pg = compute_reeb(cx, g)
            c = coupling(pf, pg)
            want = max(abs(f(v) - g(v)) for v in cx.vertices)
            assert zigzag_cost(c) == coupling_bound(c) == want

    report("criterion 6: one-space zigzag cost = coupling bound = ||f-g|| "
           "(50 couplings)", check)


def test_criterion_7a_composition_certified(report):
    def check():
        for seed in range(50):
            cx, f, _ = random_instance(seed, nverts=5)
            r, q = compute_reeb(cx, f)
            _, p = reeb_of_graph(r)
            comp = compose(p, q)
            cert = verify_reeb_quotient(comp)
            assert cert.ok, (seed, cert.summary())

    report("criterion 7a: composites of certified quotient maps are "
           "certified (50 instances)", check)


def test_criterion_7b_pullback_certified_connected(report):
    def check():
        for seed in range(50):
            cx, f, _ = random_instance(seed, nverts=4)
            r, p = compute_reeb(cx, f)
            ident = graph_identity_map(r)
            T = triangulate_limit(pullback(p, ident))
            assert T.complex.is_connected(), seed
            for factor, m in ((0, p), (1, ident)):
                cert = verify_reeb_quotient(limit_projection(T, factor, m))
                assert cert.ok, (seed, factor, cert.summary())

    report("criterion 7b: pullback projections certified, total space "
           "connected (50 instances)", check)


def test_criterion_7c_idempotence_and_lifting(report):
    def check():
        for seed in range(50):
            cx, f, _ = random_instance(seed, nverts=5)
            r, _ = compute_reeb(cx, f)
            # idempotence: the Reeb graph of a Reeb graph is the same graph
            r2, _ = reeb_of_graph(r)
            assert graph_isomorphic(
                minimalize(r2), minimalize(r)
            ), seed
            # lifting invariance: a value-preserving homeomorphic retriangulation
            # (barycentric subdivision) does not change the Reeb graph
            sd, f2, _ = barycentric_subdivision(cx, f)
            r3, _ = compute_reeb(sd, f2)
            assert graph_isomorphic(
                minimalize(r3), minimalize(r)
            ), seed

    report("criterion 7c: Reeb idempotence and lifting invariance "
           "(50 instances)", check)


def test_criterion_8_triangle_inequality(report):
    def check():
        for seed in range(50):
            cx, f, g = random_instance(seed, nverts=4, second_function=True)
            rng = _random.Random(20_000 + seed)
            h = PLFunction(
                cx,
                {v: F(rng.randint(-8, 8), rng.randint(1, 3))
                 for v in cx.vertices},
            )
            _, pf = compute_reeb(cx, f)
            _, pg = compute_reeb(cx, g)
            _, ph = compute_reeb(cx, h)
            c1 = coupling(pf, pg)
            c2 = coupling(pg, ph)
            comp = compose_couplings(c1, c2)
            assert (
                coupling_bound(comp)
                <= coupling_bound(c1) + coupling_bound(c2)
            ), seed

    report("criterion 8: composed coupling bound obeys the triangle "
           "inequality (50 triples)", check)


def test_criterion_9_oracle_equivalence(report):
    # The oracle is the from-scratch union-find sweep of test_reeb, run on
    # the doubly subdivided complex (a homeomorphic retriangulation), so it
    # shares neither code nor triangulation with compute_reeb.
    from test_reeb import naive_reeb

    def check():
        for seed in range(50):
            cx, f, _ = random_instance(seed, nverts=6)
            r, _ = compute_reeb(cx, f)
            sd, f1, _ = barycentric_subdivision(cx, f)
            sd2, f2, _ = barycentric_subdivision(sd, f1)
            r2 = naive_reeb(sd2, f2)
            assert graph_isomorphic(
                minimalize(r), minimalize(r2)
            ), seed

    report("criterion 9: sweep agrees with the double-subdivision "
           "union-find oracle (50 complexes)", check)
