"""Linear-programming bounds on epistemic overlap for finite fragments.

A fragment is a finite family of prepared states and measured orthonormal
bases in one Hilbert-space dimension.  Over the fragment's measured rays,
the outcome-deterministic noncontextual response schemes are exactly the
admissible 0/1 valuations of the ray orthogonality graph; we call those
valuations atoms.  A model in that class is a probability distribution
over atoms per prepared state, which turns two questions into LPs:

* ``feasibility_max_epistemic``: can such a model reproduce every Born
  probability of the fragment while each preparation is supported on
  atoms answering its own ray with certainty?  Feasible answers return
  the explicit weights; infeasible answers return a Farkas certificate.

* ``max_overlap_fraction``: the largest uniform fraction t such that for
  every ordered non-orthogonal pair (phi measured, psi prepared) the
  mass psi assigns to atoms answering phi's ray 1 stays between
  t * |<phi|psi>|^2 and |<phi|psi>|^2.  The optimum f* only bounds the
  noncontextual-deterministic class, so every report carries that caveat.

Fragment files are plain text: a ``dim=<d>`` header, an optional
``exact`` flag (rational amplitudes, exact arithmetic end to end),
``state:`` lines with d amplitudes ``re,im``, and ``basis:`` blocks
followed by d such vector lines.  ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .framework import (
    DeclaredProperties,
    EpistemicState,
    OnticSpace,
    OntologicalModel,
    ResponseFunction,
)
from .hilbert import PureState
from .ksval import (
    OrthogonalityGraph,
    _integer_rays,
    enumerate_valuations,
    find_valuation,
    graph_from_edges,
)
from .simplex import FEAS_TOL, LinearProgram, simplex_solve

ORTH_TOL = 1e-9    # dot-product cut for ray orthogonality in float mode
BASIS_TOL = 1e-12  # orthogonality required of declared basis vectors
BORN_EPS = 1e-12   # overlaps at or below this count as orthogonal pairs
CAVEAT = "noncontextual-deterministic class"


class FragmentError(ValueError):
    """Malformed fragment text; messages cite the offending line."""


@dataclass(frozen=True)
class Fragment:
    """Finite prepare/measure family in one dimension.

    ``states`` and ``bases`` always hold unit-normalized PureStates.  In
    exact mode ``exact_states`` and ``exact_bases`` keep the declared
    rational amplitudes as (re, im) Fraction pairs, unnormalized; Born
    probabilities then divide by the squared norms and stay rational.
    """

    dim: int
    states: tuple
    bases: tuple
    exact: bool = False
    exact_states: tuple = ()
    exact_bases: tuple = ()
    name: str = "fragment"

    @property
    def state_labels(self) -> tuple:
        return tuple(f"psi{i}" for i in range(len(self.states)))


# ---------------------------------------------------------------------------
# Parsing


_DIM_RE = re.compile(r"dim\s*=\s*(\d+)$")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _parse_amp_float(token: str, lineno: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise FragmentError(f"line {lineno}: amplitude {token!r} is not 're,im'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise FragmentError(f"line {lineno}: bad amplitude {token!r}") from None


def _parse_amp_exact(token: str, lineno: int):
    parts = token.split(",")
    if len(parts) != 2:
        raise FragmentError(f"line {lineno}: amplitude {token!r} is not 're,im'")
    try:
        return (Fraction(parts[0]), Fraction(parts[1]))
    except (ValueError, ZeroDivisionError):
        raise FragmentError(
            f"line {lineno}: amplitude {token!r} is not rational"
        ) from None


def _float_vector(tokens, lineno: int, dim: int) -> PureState:
    if len(tokens) != dim:
        raise FragmentError(
            f"line {lineno}: expected {dim} amplitudes, got {len(tokens)}"
        )
    v = np.array([_parse_amp_float(t, lineno) for t in tokens])
    return _unit_state(v, lineno, zero_norm=1e-12)


def _exact_vector(tokens, lineno: int, dim: int):
    if len(tokens) != dim:
        raise FragmentError(
            f"line {lineno}: expected {dim} amplitudes, got {len(tokens)}"
        )
    pairs = tuple(_parse_amp_exact(t, lineno) for t in tokens)
    if all(p == 0 and q == 0 for p, q in pairs):
        raise FragmentError(f"line {lineno}: zero vector")
    return pairs


def _exact_to_state(pairs, lineno: int) -> PureState:
    try:
        v = np.array([complex(float(p), float(q)) for p, q in pairs])
    except OverflowError:  # beyond the float range: no unit vector below
        v = np.full(len(pairs), np.inf)
    return _unit_state(v, lineno, zero_norm=0.0)


def _unit_state(v, lineno: int, zero_norm: float) -> PureState:
    """v over its norm, the float form both modes keep of every vector.
    NaN, infinite or overflowing amplitudes, and in exact mode ones whose
    floats underflow, leave no unit vector: PureState rejects it."""
    with np.errstate(all="ignore"):
        norm = np.linalg.norm(v)
        u = v / norm
    if norm < zero_norm:
        raise FragmentError(f"line {lineno}: zero vector")
    try:
        return PureState(u)
    except ValueError:
        raise FragmentError(
            f"line {lineno}: amplitudes give no unit vector in floating point"
        ) from None


def parse_fragment(text: str, name: str = "fragment") -> Fragment:
    entries = [
        (k + 1, s)
        for k, line in enumerate(text.splitlines())
        if (s := _strip_comment(line))
    ]
    if not entries:
        raise FragmentError("empty fragment")
    n0, s0 = entries[0]
    m = _DIM_RE.fullmatch(s0)
    if not m:
        raise FragmentError(f"line {n0}: expected 'dim=<d>' header, got {s0!r}")
    dim = int(m.group(1))
    if dim < 2:
        raise FragmentError(f"line {n0}: dimension must be at least 2")
    pos = 1
    exact = False
    if pos < len(entries) and entries[pos][1] == "exact":
        exact = True
        pos += 1

    states, bases = [], []
    exact_states, exact_bases = [], []

    def read_vector(lineno, tokens):
        if exact:
            pairs = _exact_vector(tokens, lineno, dim)
            return _exact_to_state(pairs, lineno), pairs
        return _float_vector(tokens, lineno, dim), None

    while pos < len(entries):
        lineno, line = entries[pos]
        if line.startswith("state:"):
            state, pairs = read_vector(lineno, line[len("state:"):].split())
            states.append(state)
            exact_states.append(pairs)
            pos += 1
        elif line.startswith("basis:"):
            if line[len("basis:"):].strip():
                raise FragmentError(
                    f"line {lineno}: basis vectors go on the following lines"
                )
            block, block_pairs = [], []
            for k in range(dim):
                if pos + 1 + k >= len(entries):
                    raise FragmentError(
                        f"line {lineno}: basis block needs {dim} vector lines"
                    )
                vn, vline = entries[pos + 1 + k]
                if vline.startswith(("state:", "basis:", "dim")):
                    raise FragmentError(
                        f"line {lineno}: basis block needs {dim} vector lines"
                    )
                vec, pairs = read_vector(vn, vline.split())
                block.append(vec)
                block_pairs.append(pairs)
            _check_basis(block, block_pairs, exact, lineno)
            bases.append(tuple(block))
            exact_bases.append(tuple(block_pairs))
            pos += 1 + dim
        else:
            raise FragmentError(
                f"line {lineno}: expected 'state:' or 'basis:', got {line!r}"
            )

    if not states:
        raise FragmentError("fragment declares no states")
    if not bases:
        raise FragmentError("fragment declares no bases")
    return Fragment(
        dim=dim,
        states=tuple(states),
        bases=tuple(bases),
        exact=exact,
        exact_states=tuple(exact_states) if exact else (),
        exact_bases=tuple(exact_bases) if exact else (),
        name=name,
    )


def _check_basis(block, block_pairs, exact: bool, lineno: int):
    _, orth, _ = _relations(block, block_pairs, exact, BASIS_TOL)
    d = len(block)
    for i in range(d):
        for j in range(i + 1, d):
            if not orth[i, j]:
                raise FragmentError(
                    f"line {lineno}: basis vectors {i} and {j} are not orthogonal"
                )


def load_fragment(path) -> Fragment:
    path = Path(path)
    return parse_fragment(path.read_text(), name=path.stem)


# ---------------------------------------------------------------------------
# Pairwise relations of a fragment's vectors


def _relations(vectors, pairs, exact: bool, tol: float):
    """(same, orth, born): n x n matrices saying whether vectors k and l
    lie on one ray or are orthogonal, and giving |<k|l>|^2.

    Exact mode reads the (re, im) Fraction rows ``pairs`` and takes one
    Gram product G of their Gaussian-integer forms: orthogonal when
    G_kl = 0, one ray when |G_kl|^2 = G_kk G_ll (Cauchy-Schwarz equality),
    born = |G_kl|^2 / (G_kk G_ll).  Float mode reads the PureStates
    ``vectors``, cuts at ``tol``, and takes np.vdot per ordered pair, the
    kernel of ``PureState.inner`` and ``born_probability``.  Their moduli
    differ in the last bit on about a third of random complex pairs, so
    the scalar one (hypot) decides and the array one squares to born.
    """
    if exact:
        X, Y = _integer_rays(pairs)
        re_, im_ = X.dot(X.T), 0
        if Y.any():  # complex rows; real ones skip three products
            re_ = re_ + Y.dot(Y.T)
            im_ = X.dot(Y.T) - Y.dot(X.T)
        num = re_ * re_ + im_ * im_
        norms = np.diag(re_)
        den = norms[:, None] * norms
        return num == den, (re_ == 0) & (im_ == 0), _Ratios(num, den)
    amps = [v.amplitudes for v in vectors]
    z = np.array([[np.vdot(u, v) for v in amps] for u in amps])
    mod = np.hypot(z.real, z.imag)
    return np.abs(mod - 1.0) <= tol, mod <= tol, np.abs(z) ** 2


@dataclass(frozen=True)
class _Ratios:
    """num / den as Fractions, built one slice at a time: a fragment needs
    Born values against its states only (4 of 52 columns on the largest
    fragment of perfbench's ``exact`` workload), at ~1 us per Fraction."""

    num: np.ndarray
    den: np.ndarray

    def __getitem__(self, key) -> np.ndarray:
        return np.frompyfunc(Fraction, 2, 1)(self.num[key], self.den[key])


# ---------------------------------------------------------------------------
# Measured rays and their orthogonality graph


@dataclass(frozen=True)
class FragmentRays:
    """Deduplicated measured rays with the orthogonality graph.

    ``basis_rays[b][k]`` is the ray index of basis b's k-th vector;
    ``state_rays[i]`` is the prepared state's ray index, or None when the
    state is never measured (then no support constraint binds it).
    ``born[k, i]`` is |<k|psi_i>|^2 for k running over the basis vectors
    in declared order and then the states (Fractions in exact mode).  A
    state on a measured ray stands in as that ray's first vector, both as
    k and as psi_i.
    """

    vectors: tuple
    basis_rays: tuple
    state_rays: tuple
    graph: OrthogonalityGraph
    born: np.ndarray


def fragment_rays(frag: Fragment) -> FragmentRays:
    # Basis vectors in declared order, then the states; each is matched to
    # the first measured ray it lies on.
    flat = [vec for basis in frag.bases for vec in basis] + list(frag.states)
    rows = [p for basis in frag.exact_bases for p in basis] + list(frag.exact_states)
    same, orth, born = _relations(flat, rows, frag.exact, ORTH_TOL)
    firsts = []  # flat index of each distinct measured ray

    def match(k) -> Optional[int]:
        return next((r for r, f in enumerate(firsts) if same[f, k]), None)

    ids = []
    n_measured = len(frag.bases) * frag.dim
    for k in range(n_measured):
        r = match(k)
        if r is None:
            r = len(firsts)
            firsts.append(k)
        ids.append(r)
    basis_rays = [tuple(ids[k : k + frag.dim]) for k in range(0, n_measured, frag.dim)]
    state_rays = [match(k) for k in range(n_measured, len(flat))]
    edges = np.argwhere(np.triu(orth[np.ix_(firsts, firsts)], 1)).tolist()
    graph = graph_from_edges(len(firsts), frag.dim, edges)
    vectors = tuple(flat[f] for f in firsts)
    # Born values against the states; a state on a measured ray takes that
    # ray's, so the LPs see the same-ray match the atoms were built on.
    own = [n_measured + i if r is None else firsts[r] for i, r in enumerate(state_rays)]
    born = born[np.ix_(list(range(n_measured)) + own, own)]
    return FragmentRays(vectors, tuple(basis_rays), tuple(state_rays), graph, born)


# ---------------------------------------------------------------------------
# Atoms


def enumerate_atoms(fragment: Fragment, rays: Optional[FragmentRays] = None):
    """Every atom of the fragment, in deterministic search order: one 0/1
    valuation tuple over the measured rays each.  A ray shared between
    bases gets one answer, so atoms are noncontextual by construction."""
    if rays is None:
        rays = fragment_rays(fragment)
    return list(enumerate_valuations(rays.graph, fragment.dim)[0])


# ---------------------------------------------------------------------------
# The atom-by-ray table both LPs are cut from


@dataclass(frozen=True)
class _AtomTable:
    """A fragment's atoms as the rows of one 0/1 matrix over its rays.

    ``val[a, r]`` is atom a's answer to measured ray r.  ``admissible[i, a]``
    says whether state i may use atom a: a must answer the state's own ray
    with 1, unless the state is never measured.  The LPs' weight variables
    are the true entries of ``admissible`` in row-major order.
    """

    rays: FragmentRays
    atoms: list
    val: np.ndarray
    admissible: np.ndarray

    def rows(self, first: int, cells) -> np.ndarray:
        """0/1 LP rows, one per (state i, ray r) cell: 1 on i's weight
        variables whose atom answers r with 1 (all of them if r is None).
        Weight variables start at column ``first``."""
        state, atom = np.nonzero(self.admissible)
        ids = np.array([i for i, _ in cells], dtype=int)
        # ray -1 reads an appended all-ones column, the answer for r = None
        rays = np.array([-1 if r is None else r for _, r in cells], dtype=int)
        val = np.hstack([self.val[atom], np.ones((len(atom), 1), dtype=int)])
        out = np.zeros((len(cells), first + len(atom)), dtype=int)
        out[:, first:] = (state == ids[:, None]) & (val[:, rays].T == 1)
        return out

    def weights(self, x, exact: bool) -> np.ndarray:
        """Weight variables x as a states x atoms array."""
        w = np.full(self.admissible.shape, Fraction(0) if exact else 0.0)
        w[self.admissible] = x
        return w

    def mass(self, w_row, r):
        """Weight on atoms answering ray r, summed in atom order (bit-stable)."""
        return sum(w_row[self.val[:, r] == 1].tolist())


def _atom_table(fragment: Fragment) -> _AtomTable:
    rays = fragment_rays(fragment)
    atoms = enumerate_atoms(fragment, rays)
    val = np.array(atoms, dtype=int).reshape(-1, len(rays.vectors))
    admissible = np.ones((len(rays.state_rays), len(atoms)), dtype=bool)
    for i, r in enumerate(rays.state_rays):
        if r is not None:
            admissible[i] = val[:, r] == 1
    return _AtomTable(rays, atoms, val, admissible)


# ---------------------------------------------------------------------------
# Feasibility of exact Born reproduction by the deterministic class


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the Born-reproduction LP over atoms.

    ``weights[i][a]`` is the mass state i places on atom a when feasible
    (zero on atoms excluded by the certainty constraint).  Infeasible
    answers carry the Farkas vector over the equality rows, already
    verified by direct arithmetic.
    """

    status: str
    n_atoms: int
    empty_atoms: bool = False
    weights: Optional[tuple] = None
    max_residual: Optional[float] = None
    farkas: Optional[tuple] = None
    certificate_ok: Optional[bool] = None
    exact: bool = False

    @property
    def feasible(self) -> bool:
        return self.status == "Feasible"


def feasibility_max_epistemic(fragment: Fragment) -> FeasibilityResult:
    """Can a deterministic noncontextual atom model match every Born value?

    Variables are per-state atom weights; atoms not answering the state's
    own measured ray with 1 are dropped (states never measured keep all
    atoms).  One equality row per (state, basis, outcome) pins the mass
    answering that outcome to the Born probability.  Feasible solutions
    are re-checked row by row; infeasible ones get a Farkas certificate.
    """
    return _feasibility(fragment, _atom_table(fragment))


def _feasibility(fragment: Fragment, table: _AtomTable) -> FeasibilityResult:
    exact = fragment.exact
    if not table.atoms:
        search = find_valuation(table.rays.graph, fragment.dim)
        if search.satisfiable:
            raise RuntimeError("atom enumeration and valuation search disagree")
        return FeasibilityResult(
            status="Infeasible", n_atoms=0, empty_atoms=True, exact=exact
        )

    # one row per (state, basis, outcome), in that order
    outcome_rays = [r for ids in table.rays.basis_rays for r in ids]
    cells = [(i, r) for i in range(len(fragment.states)) for r in outcome_rays]
    borns = table.rays.born[: len(outcome_rays)].T.ravel().tolist()
    rows = table.rows(0, cells)
    lp = LinearProgram(rows.shape[1])
    for row, p in zip(rows, borns):
        lp.add_eq(row, p)

    res = simplex_solve(lp, exact=exact)
    if res.status == "infeasible":
        if not res.certificate_ok:
            raise RuntimeError("Farkas certificate failed verification")
        return FeasibilityResult(
            status="Infeasible",
            n_atoms=len(table.atoms),
            farkas=res.farkas,
            certificate_ok=res.certificate_ok,
            exact=exact,
        )
    if res.status != "optimal":
        raise RuntimeError(f"feasibility LP reported {res.status}")

    weights = table.weights(res.x, exact)
    max_residual = 0.0
    for (i, r), p in zip(cells, borns):
        max_residual = max(max_residual, abs(float(table.mass(weights[i], r) - p)))
    tol = 0.0 if exact else FEAS_TOL
    if max_residual > tol:
        raise RuntimeError(
            f"feasible LP answer violates a Born row by {max_residual:.3e}"
        )
    return FeasibilityResult(
        status="Feasible",
        n_atoms=len(table.atoms),
        weights=tuple(map(tuple, weights.tolist())),
        max_residual=max_residual,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Uniform overlap fraction


@dataclass(frozen=True)
class PairBound:
    """Core mass kept by one ordered (measured, prepared) pair at the optimal
    vertex the simplex reaches.  Only f*, the least ratio, is fixed by the
    LP: on rotated KCBS rings n = 9 and 11, the slack start basis moved one
    pair's ratio from 1 to 0.917 and 0.928 with f* unchanged."""

    measured: str
    prepared: str
    born: float
    core_mass: float
    ratio: float


@dataclass(frozen=True)
class OverlapResult:
    """Optimum of the uniform overlap-fraction LP.

    f_star stays a Fraction in exact mode.  The bound only constrains
    outcome-deterministic noncontextual models, hence the caveat field.
    The weights and pairs are those of the optimal vertex reached (PairBound).
    """

    status: str
    f_star: object
    caveat: str
    n_atoms: int
    pairs: tuple = ()
    weights: Optional[tuple] = None
    farkas: Optional[tuple] = None
    certificate_ok: Optional[bool] = None
    exact: bool = False


def max_overlap_fraction(fragment: Fragment) -> OverlapResult:
    """Largest uniform t with t*Born <= core mass <= Born on every pair.

    Pairs run over ordered (phi, psi) with phi prepared and measured,
    psi prepared, and |<phi|psi>|^2 above the orthogonality cut.  Each
    prepared state's weights are a distribution over its admissible
    atoms; full Born reproduction is deliberately not imposed, so the
    optimum isolates how much overlap the deterministic noncontextual
    class can retain.  Empty atom sets leave the fraction undefined.
    """
    return _overlap(fragment, _atom_table(fragment))


def _overlap(fragment: Fragment, table: _AtomTable) -> OverlapResult:
    exact = fragment.exact
    if not table.atoms:
        return OverlapResult(
            status="Undefined", f_star=None, caveat=CAVEAT, n_atoms=0, exact=exact
        )

    n_states = len(fragment.states)
    bmat = table.rays.born[-n_states:].tolist()
    state_rays = table.rays.state_rays
    pairs = [
        (i, j)
        for i in range(n_states)
        if state_rays[i] is not None
        for j in range(n_states)
        if j != i and bmat[i][j] > BORN_EPS
    ]

    # t is variable 0; rows: each state's total weight, then each pair's core
    cells = [(j, None) for j in range(n_states)] + [(j, state_rays[i]) for i, j in pairs]
    rows = table.rows(1, cells)
    t_only = [1] + [0] * (rows.shape[1] - 1)
    lp = LinearProgram(rows.shape[1], objective=t_only)
    for row in rows[:n_states]:
        lp.add_eq(row, 1)
    lp.add_ub(t_only, 1)
    for (i, j), core in zip(pairs, rows[n_states:]):
        lp.add_ub(np.concatenate(([bmat[i][j]], -core[1:])), 0)  # t*born - core <= 0
        lp.add_ub(core, bmat[i][j])  # core <= born

    res = simplex_solve(lp, exact=exact)
    if res.status == "infeasible":
        if not res.certificate_ok:
            raise RuntimeError("Farkas certificate failed verification")
        return OverlapResult(
            status="Infeasible",
            f_star=None,
            caveat=CAVEAT,
            n_atoms=len(table.atoms),
            farkas=res.farkas,
            certificate_ok=res.certificate_ok,
            exact=exact,
        )
    if res.status != "optimal":
        raise RuntimeError(f"overlap LP reported {res.status}")

    f_star = res.x[0]
    weights = table.weights(res.x[1:], exact)
    labels = fragment.state_labels
    pair_rows = []
    for i, j in pairs:
        mass = table.mass(weights[j], state_rays[i])
        pair_rows.append(
            PairBound(
                measured=labels[i],
                prepared=labels[j],
                born=float(bmat[i][j]),
                core_mass=float(mass),
                ratio=float(mass) / float(bmat[i][j]),
            )
        )

    tol = 0.0 if exact else FEAS_TOL
    if float(f_star) > 1.0 + tol:
        raise RuntimeError(f"overlap fraction {float(f_star)!r} exceeds 1")
    if pair_rows:
        worst = min(p.ratio for p in pair_rows)
        if worst < float(f_star) - max(tol, 1e-9):
            raise RuntimeError(
                f"optimal weights keep ratio {worst!r} below t = {float(f_star)!r}"
            )
    return OverlapResult(
        status="Optimal",
        f_star=f_star,
        caveat=CAVEAT,
        n_atoms=len(table.atoms),
        pairs=tuple(pair_rows),
        weights=tuple(map(tuple, weights.tolist())),
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Wrapping LP weights as a finite ontological model


def _state_index(fragment: Fragment, psi: PureState) -> int:
    for i, s in enumerate(fragment.states):
        if s.same_ray(psi, atol=ORTH_TOL):
            return i
    raise ValueError("state is not one of the fragment's preparations")


def fragment_model(
    fragment: Fragment, weights, name: str = "fragment-lp"
) -> OntologicalModel:
    """Finite model whose ontic states are the fragment's atoms.

    ``weights[i][a]`` gives preparation i's mass on atom a (as returned
    by the feasibility LP).  Responses look the measured ray up in the
    atom's valuation, so they are outcome-deterministic and read nothing
    but the ontic state.  Batches are integer arrays of atom indices.
    """
    table = _atom_table(fragment)
    n_atoms = len(table.atoms)
    if n_atoms == 0:
        raise ValueError("fragment has no atoms; no model exists")
    wmat = np.array([[float(w) for w in row] for row in weights], dtype=float)
    if wmat.shape != (len(fragment.states), n_atoms):
        raise ValueError(
            f"weights shape {wmat.shape} does not match "
            f"{len(fragment.states)} states x {n_atoms} atoms"
        )

    space = OnticSpace(
        kind="finite",
        dim=fragment.dim,
        reference_sampler=lambda rng, m: rng.integers(0, n_atoms, size=m),
        reference_mass=float(n_atoms),
    )

    def ray_of(phi: PureState) -> int:
        for r, u in enumerate(table.rays.vectors):
            if u.same_ray(phi, atol=ORTH_TOL):
                return r
        raise ValueError("outcome state is not a measured ray of the fragment")

    labels = fragment.state_labels

    def prepare_pure(psi: PureState) -> EpistemicState:
        i = _state_index(fragment, psi)
        idx = np.nonzero(wmat[i] > 0)[0]
        ws = wmat[i][idx]
        ws = ws / ws.sum()

        def support(batch, _i=i):
            return wmat[_i][np.asarray(batch, dtype=int)] > 0

        def sampler(rng, m, _idx=idx, _ws=ws):
            return rng.choice(_idx, size=m, p=_ws)

        return EpistemicState(
            label=labels[i],
            support=support,
            sampler=sampler,
            point_masses=(idx.copy(), ws.copy()),
        )

    def evaluate(phi, batch, sm):
        return table.val[np.asarray(batch, dtype=int), ray_of(phi)]

    def core(phi, batch, sm):
        return table.val[np.asarray(batch, dtype=int), ray_of(phi)] == 1

    respond = ResponseFunction(evaluate=evaluate, core=core, support=core)
    declared = DeclaredProperties(
        reciprocal=True,
        outcome_deterministic=True,
        measurement_contextual=False,
        preparation_contextual=False,
        psi_dependent_response=False,
    )
    return OntologicalModel(
        name=name,
        display_name="fragment LP witness",
        table_type="fragment",
        ontic_space=space,
        prepare_pure=prepare_pure,
        respond=respond,
        declared=declared,
        default_engine_spec="closed",
    )


# ---------------------------------------------------------------------------
# One-call analysis


def analyze(fragment: Fragment) -> dict:
    """Feasibility plus overlap optimum, as one JSON-ready report."""
    table = _atom_table(fragment)
    feas = _feasibility(fragment, table)
    over = _overlap(fragment, table)
    certificate = None
    if feas.status == "Infeasible":
        if feas.empty_atoms:
            certificate = {"empty_atoms": True, "valuation_search": "unsat"}
        else:
            certificate = {
                "farkas": [float(y) for y in feas.farkas],
                "verified": bool(feas.certificate_ok),
            }
    return {
        "fragment": fragment.name,
        "dim": fragment.dim,
        "n_states": len(fragment.states),
        "n_bases": len(fragment.bases),
        "n_atoms": feas.n_atoms,
        "feasible": feas.status,
        "max_residual": feas.max_residual,
        "f_star": None if over.f_star is None else float(over.f_star),
        "f_star_status": over.status,
        "caveat": over.caveat,
        "certificate": certificate,
        "pairs": [
            {
                "measured": p.measured,
                "prepared": p.prepared,
                "born": p.born,
                "core_mass": p.core_mass,
                "ratio": p.ratio,
            }
            for p in over.pairs
        ],
        "exact": fragment.exact,
    }
