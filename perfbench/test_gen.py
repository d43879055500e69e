"""Invariants of the benchmark's input generators and reference oracle.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import oracle  # noqa: E402
from ontomodels.data import fragment_path  # noqa: E402
from ontomodels.epibound import analyze, load_fragment, parse_fragment  # noqa: E402
from ontomodels.ksval import build_graph, find_valuation, load_vector_set  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import PERES_FRAGMENTS, RAYS46_REMOVED, WORKLOADS  # noqa: E402

LUCAS = {5: 11, 7: 29, 9: 76, 11: 199, 13: 521}


def program_bound(spec):
    return analyze(parse_fragment(gen.fragment_text(spec)))


@pytest.mark.parametrize("n", sorted(LUCAS))
def test_ring_atoms_are_lucas_numbers(n):
    spec = gen.ring_fragment(n, random.Random(n))
    adj = oracle.orthogonality(spec.rays, exact=False)
    atoms = oracle.valuations(adj, oracle.complete_bases(adj, 3))
    assert len(atoms) == LUCAS[n]
    if n <= 9:
        assert program_bound(spec)["n_atoms"] == LUCAS[n]


def test_ring5_is_the_bundled_pentagon():
    bundled = analyze(load_fragment(fragment_path("kcbs.frag")))["f_star"]
    ring = program_bound(gen.ring_fragment(5, random.Random(7)))["f_star"]
    assert ring == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-12)
    assert ring == pytest.approx(bundled, abs=1e-12)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_ring_f_star_matches_highs_and_ignores_rotation(n):
    specs = [gen.ring_fragment(n, random.Random(seed)) for seed in (1, 2)]
    assert gen.fragment_text(specs[0]) != gen.fragment_text(specs[1])
    ref = oracle.bound_reference(specs[0])
    for spec in specs:
        got = program_bound(spec)
        assert got["n_atoms"] == ref["n_atoms"]
        assert got["feasible"] == ref["feasible"]
        assert got["f_star"] == pytest.approx(ref["f_star"], abs=1e-9)


def test_peres24_has_24_rays_24_bases_and_is_unsat(tmp_path):
    assert len(gen.PERES24) == 24 and len(gen.PERES24_BASES) == 24
    adj = oracle.orthogonality(gen.PERES24, exact=True)
    assert oracle.valuations(adj, gen.PERES24_BASES) == []
    path = tmp_path / "peres24.vec"
    gen.write_ray_set(gen.shuffled_rays(gen.PERES24, random.Random(3)), path)
    graph = build_graph(load_vector_set(path))
    assert len(graph.complete_bases) == 24
    assert not find_valuation(graph, 4).satisfiable


def test_rays40_has_40_rays_and_32_bases(tmp_path):
    assert len(gen.RAYS40) == 40
    adj = oracle.orthogonality(gen.RAYS40, exact=True)
    assert len(oracle.complete_bases(adj, 4)) == 32
    path = tmp_path / "rays40.vec"
    gen.write_ray_set(gen.shuffled_rays(gen.RAYS40, random.Random(4)), path)
    graph = build_graph(load_vector_set(path))
    assert len(graph.complete_bases) == 32
    assert not find_valuation(graph, 4).satisfiable


def test_rays49_are_the_primitive_rays_of_the_cube():
    assert len(gen.RAYS49) == 49
    assert len({frozenset((v, tuple(-x for x in v))) for v in gen.RAYS49}) == 49


def test_peres_catalogue_covers_every_bound_outcome_under_symmetry():
    rng = random.Random(11)
    seen = []
    for bases, states in PERES_FRAGMENTS:
        answers = set()
        for _ in range(3):
            spec = gen.peres_fragment(bases, states, rng)
            ref = oracle.bound_reference(spec)
            got = program_bound(spec)
            assert (got["n_atoms"], got["feasible"], got["f_star_status"]) == (
                ref["n_atoms"], ref["feasible"], ref["f_star_status"])
            answers.add((ref["n_atoms"], ref["feasible"], ref["f_star"]))
        assert len(answers) == 1
        n_atoms, feasible, _ = answers.pop()
        seen.append("empty" if n_atoms == 0 else feasible)
    assert seen == ["Feasible", "Infeasible", "Infeasible", "empty"]


def test_ray46_subsets_keep_their_valuation_count_under_symmetry():
    rng = random.Random(12)
    for removed, count in zip(RAYS46_REMOVED, (16, 47)):
        for _ in range(3):
            move = gen.signed_permutation(rng, 3)
            rays = gen.shuffled_rays(
                [move(v) for i, v in enumerate(gen.RAYS49) if i not in removed], rng)
            adj = oracle.orthogonality(rays, exact=True)
            assert len(oracle.valuations(adj, oracle.complete_bases(adj, 3))) == count


def test_generators_depend_only_on_the_seed(tmp_path):
    for w in WORKLOADS.values():
        texts = []
        for sub in ("a", "b"):
            directory = tmp_path / w.name / sub
            directory.mkdir(parents=True)
            ops = w.make_round(random.Random(f"5/{w.name}"), directory, "r0")
            assert len(ops) == w.ops_per_round
            texts.append([[a.replace(str(directory), "DIR") for a in op.argv] for op in ops]
                         + sorted(p.read_text() for p in directory.iterdir()))
        assert texts[0] == texts[1]



def test_benchmark_json_lists_what_the_benchmark_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == (
        list(layer_metrics([], 0)) + ["trace_overhead_frac"])
    assert [m["name"] for m in bench["end_to_end"]] == [
        "ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb"]
