"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns the text of one input
file plus the structure the correctness oracle needs (integer or float ray
coordinates, which rays each basis uses, which ray each state sits on).
The program under test only ever sees the written file.

* KCBS-style n-cycles (odd n, d = 3): rays v_k on a cone with
  v_k . v_{k+1} = 0, basis k = {v_k, v_{k+1}, v_k x v_{k+1}}, states the n
  cycle rays plus the cone axis, all turned by one random rotation.  Their
  atoms are the independent sets of the n-cycle, counted by the Lucas
  numbers, and n = 5 is the bundled ``kcbs.frag`` pentagon.
* Exact d = 4 fragments made of subsets of the 24 Peres bases, moved by a
  random signed permutation of the coordinates.
* Integer ray sets: Peres-24, the 40 rays of {0,+-1}^4 and subsets of the
  49 primitive rays of {0,+-1,+-2}^3, each shuffled and sign-flipped (the
  subsets also moved by a random signed permutation), plus the bundled
  sqrt(2) Peres-33 set with its lines shuffled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from ontomodels.ksval import VectorSet, parse_scalar, write_vector_set


@dataclass(frozen=True)
class FragmentSpec:
    """What the oracle needs to solve a fragment independently.

    ``rays`` are the distinct measured rays, ``basis_rays[b]`` the ray
    indices of basis b, ``states`` the prepared vectors and
    ``state_rays[i]`` the ray state i sits on (None when never measured).
    Coordinates are ints in exact fragments and floats otherwise.
    """

    dim: int
    exact: bool
    rays: tuple
    basis_rays: tuple
    states: tuple
    state_rays: tuple


def primitive_rays(dim: int, values) -> list:
    """Integer rays with entries in ``values``, gcd 1, first nonzero > 0."""
    out = []
    for v in itertools.product(values, repeat=dim):
        if not any(v) or next(x for x in v if x) < 0:
            continue
        if math.gcd(*v) == 1:
            out.append(v)
    return out


def peres24_rays() -> list:
    """Peres' 24 rays: e_i, e_i +- e_j and (1, +-1, +-1, +-1)."""
    rays = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        for s in (1, -1):
            v = [0] * 4
            v[i], v[j] = 1, s
            rays.append(tuple(v))
    rays += [(1,) + s for s in itertools.product((1, -1), repeat=3)]
    return rays


PERES24 = peres24_rays()
PERES24_BASES = oracle.complete_bases(oracle.orthogonality(PERES24, exact=True), 4)
RAYS40 = primitive_rays(4, (0, 1, -1))
RAYS49 = primitive_rays(3, (0, 1, -1, 2, -2))


# ---------------------------------------------------------------------------
# Fragments


def _amp(x) -> str:
    return f"{x!r},0" if isinstance(x, float) else f"{x},0"


def fragment_text(spec: FragmentSpec) -> str:
    lines = [f"dim={spec.dim}"] + (["exact"] if spec.exact else [])
    lines += ["state: " + " ".join(map(_amp, s)) for s in spec.states]
    for ids in spec.basis_rays:
        lines.append("basis:")
        lines += [" ".join(map(_amp, spec.rays[r])) for r in ids]
    return "\n".join(lines) + "\n"


def _floats(v) -> tuple:
    return tuple(float(x) for x in v)


def random_rotation(rng) -> np.ndarray:
    """Haar-random 3x3 orthogonal matrix."""
    g = np.random.default_rng(rng.getrandbits(64))
    q, r = np.linalg.qr(g.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def ring_fragment(n: int, rng) -> FragmentSpec:
    """KCBS-style n-cycle (odd n >= 5) turned by a random rotation."""
    if n < 5 or n % 2 == 0:
        raise ValueError("ring fragments need odd n >= 5")
    c = math.cos(math.pi / n)
    cos_t = math.sqrt(c / (1.0 + c))
    sin_t = math.sqrt(1.0 - cos_t * cos_t)
    step = math.pi * (n - 1) / n
    rot = random_rotation(rng)
    cycle = [
        rot @ np.array([sin_t * math.cos(k * step), sin_t * math.sin(k * step), cos_t])
        for k in range(n)
    ]
    cross = [np.cross(cycle[k], cycle[(k + 1) % n]) for k in range(n)]
    cross = [x / np.linalg.norm(x) for x in cross]
    axis = rot @ np.array([0.0, 0.0, 1.0])
    rays = tuple(_floats(v) for v in cycle + cross)
    return FragmentSpec(
        dim=3,
        exact=False,
        rays=rays,
        basis_rays=tuple((k, (k + 1) % n, n + k) for k in range(n)),
        states=rays[:n] + (_floats(axis),),
        state_rays=tuple(range(n)) + (None,),
    )


def signed_permutation(rng, dim: int):
    """A random coordinate permutation with random signs, as a map on rays.

    It maps Peres-24 and the 49 rays of {0,+-1,+-2}^3 onto themselves (up
    to sign) and keeps orthogonality, so a fragment or ray set moved by it
    poses the same problem in different bytes.
    """
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return lambda v: tuple(s * v[p] for s, p in zip(signs, perm))


def _canonical(v) -> tuple:
    return v if next(x for x in v if x) > 0 else tuple(-x for x in v)


def peres_fragment(bases, states, rng) -> FragmentSpec:
    """Exact fragment of Peres-24 bases and state rays (indices), moved by a
    random symmetry of the set and written in random order."""
    move = signed_permutation(rng, 4)
    index24 = {v: i for i, v in enumerate(PERES24)}

    def image(r):
        return index24[_canonical(move(PERES24[r]))]

    chosen = [[image(r) for r in PERES24_BASES[b]] for b in bases]
    rng.shuffle(chosen)
    used = sorted({r for b in chosen for r in b})
    index = {r: i for i, r in enumerate(used)}
    basis_rays = []
    for b in chosen:
        ids = [index[r] for r in b]
        rng.shuffle(ids)
        basis_rays.append(tuple(ids))
    state_rays = tuple(index[image(r)] for r in states)
    rays = tuple(PERES24[r] for r in used)
    return FragmentSpec(
        dim=4,
        exact=True,
        rays=rays,
        basis_rays=tuple(basis_rays),
        states=tuple(rays[r] for r in state_rays),
        state_rays=state_rays,
    )


# ---------------------------------------------------------------------------
# Ray sets


def shuffled_rays(rays, rng, keep: int | None = None) -> list:
    """``keep`` of the rays (all by default) in random order and signs."""
    picked = rng.sample(list(rays), len(rays) if keep is None else keep)
    return [tuple(-x for x in v) if rng.random() < 0.5 else tuple(v) for v in picked]


def write_ray_set(rays, path) -> None:
    """Write integer rays with the program's own ``write_vector_set``."""
    vectors = tuple(tuple(parse_scalar(str(x)) for x in v) for v in rays)
    labels = tuple(f"v{k}" for k in range(len(rays)))
    write_vector_set(VectorSet(len(rays[0]), 0, vectors, labels), path)


def shuffled_vec_text(text: str, rng) -> str:
    """A .vec file's text with its ray lines in random order."""
    lines = [ln for ln in text.splitlines() if ln.split("#", 1)[0].strip()]
    header, body = lines[0], lines[1:]
    rng.shuffle(body)
    return "\n".join([header] + body) + "\n"


def write_text(path, text: str) -> str:
    Path(path).write_text(text, encoding="utf-8")
    return str(path)
