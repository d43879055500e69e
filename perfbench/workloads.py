"""The four workloads: the CLI ops each round runs.

A run repeats whole rounds, so every run has the same mix of op sizes and
its latency quantiles are quantiles of one fixed mixture.  Each op gets a
fresh seed or a freshly generated file; nothing repeats inside a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen
from check import Op

DATA = Path(__file__).resolve().parents[1] / "src" / "ontomodels" / "data"
# Peres-24 base subsets (indices into gen.PERES24_BASES) with four state rays
# each.  Every op moves one by a random symmetry of the set, so each slot of
# a round keeps the same LP and the same work while its input bytes differ.
PERES_FRAGMENTS = (
    ((8, 17, 22), (10, 19, 14, 22)),                                  # Feasible
    ((1, 8, 12, 14, 17, 20), (9, 11, 18, 22)),                        # Farkas
    ((4, 8, 9, 10, 12, 17, 19), (12, 18, 7, 17)),                     # Farkas
    ((1, 3, 5, 6, 11, 12, 14, 15, 16, 18, 19, 21), (5, 1, 23, 12)),  # no atoms
)
# Rays left out of the 49 (indices into gen.RAYS49): 16 and 47 valuations.
RAYS46_REMOVED = ((5, 6, 18), (0, 35, 46))


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object   # (random.Random, directory, prefix) -> [Op]
    ops_per_round: int
    min_rounds: int      # enough ops for 10 samples beyond the tail percentile

    @property
    def tail_pct(self) -> float:
        """Highest percentile with >= 10 samples beyond it in a minimal run."""
        return 100.0 * (1.0 - 10.0 / (self.ops_per_round * self.min_rounds))


def _seed(rng) -> str:
    return str(rng.getrandbits(31))


def _verify(model, engine, pairs, dim, rng):
    argv = ["verify", "--model", model, "--engine", engine,
            "--pairs", str(pairs), "--seed", _seed(rng)]
    return Op("verify", argv, ref=pairs * dim)


def born_mc_round(rng, directory, prefix):
    # Three d = 5 and three d = 6 ops, so the median falls among d = 5 ops
    # and the tail percentile among d = 6 ops, each with three samples per
    # round.
    ops = [_verify("bell2", "mc:1000000", 2, 2, rng)]
    ops += [_verify(f"ws:{d}", "mc:131072", 1, d, rng) for d in (3, 4, 5, 5, 5, 6, 6, 6)]
    return ops


def sphere_quad_round(rng, directory, prefix):
    # The tail percentile (p88 at 7 rounds) falls among the three slowest
    # ops, `table` and verify/prepctx at level 33.
    ops = []
    for level in (17, 25, 33):
        ops.append(_verify("ks", f"quad:{level}", 3, 2, rng))
        ops.append(Op("prepctx", ["prepctx", "--model", "ks", "--engine",
                                  f"quad:{level}", "--seed", _seed(rng)]))
    for model in ("bb:3", "ks", "bell2", "ws:3"):
        ops.append(Op("classify", ["classify", "--model", model, "--seed", _seed(rng)]))
    ops.append(Op("table", ["table", "--seed", _seed(rng)]))
    # A render-heavy cheap op: 60 closed-form outcomes.
    ops.append(_verify("bb:3", "closed", 20, 3, rng))
    return ops


def lp_float_round(rng, directory, prefix):
    # Two n = 9 and two n = 11 rings: the median falls among n = 9 ops and
    # the tail percentile among n = 11 ops.  One n = 13 op alone takes
    # about 6 s, too long for enough samples per run.
    ops = []
    for k, n in enumerate((5, 7, 9, 9, 11, 11)):
        spec = gen.ring_fragment(n, rng)
        path = gen.write_text(directory / f"{prefix}-{k}-ring{n}.frag",
                              gen.fragment_text(spec))
        ops.append(Op("bound", ["bound", path], ref=spec))
    return ops


def exact_round(rng, directory, prefix):
    ops = []
    for k, (bases, states) in enumerate(PERES_FRAGMENTS):
        spec = gen.peres_fragment(bases, states, rng)
        path = gen.write_text(directory / f"{prefix}-{k}-peres.frag",
                              gen.fragment_text(spec))
        ops.append(Op("bound", ["bound", path], ref=spec))
    for name, rays in (("peres24", gen.PERES24), ("rays40", gen.RAYS40)):
        path = directory / f"{prefix}-{name}.vec"
        gen.write_ray_set(gen.shuffled_rays(rays, rng), path)
        ops.append(Op("ksval", ["ksval", str(path)], ref=len(rays)))
    text = gen.shuffled_vec_text((DATA / "vectors" / "peres33.vec").read_text(), rng)
    path = gen.write_text(directory / f"{prefix}-peres33.vec", text)
    ops.append(Op("ksval", ["ksval", path], ref=33))
    for k, removed in enumerate(RAYS46_REMOVED):
        move = gen.signed_permutation(rng, 3)
        kept = [move(v) for i, v in enumerate(gen.RAYS49) if i not in removed]
        rays = gen.shuffled_rays(kept, rng)
        path = directory / f"{prefix}-{k}-rays46.vec"
        gen.write_ray_set(rays, path)
        ops.append(Op("ksval-all", ["ksval", str(path), "--all"], ref=rays))
    return ops


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("born-mc", born_mc_round, 9, 5),
        Workload("sphere-quad", sphere_quad_round, 12, 7),
        Workload("lp-float", lp_float_round, 6, 7),
        Workload("exact", exact_round, 9, 8),
    )
}
