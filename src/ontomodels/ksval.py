"""Exact search for {0,1} valuations on finite sets of real rays.

A valuation assigns 0 or 1 to every ray so that

  (i)   each ray receives a value,
  (ii)  every complete orthogonal basis contains exactly one 1,
  (iii) no two orthogonal rays are both valued 1.

Orthogonal sets too small to form a complete basis constrain the search
only through (iii).

Vector sets live in text files: a header line ``dim=<d> radical=<r>``,
then one ray per line as ``d`` whitespace-separated exact scalars.  Each
scalar is ``p``, ``q√r`` or ``p+q√r`` with rational ``p`` and ``q``; the
ASCII spelling ``sqrt`` may replace ``√``.  ``#`` starts a comment.  All
arithmetic is exact, so orthogonality needs no floating-point tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np


class VectorFileError(ValueError):
    """Malformed vector-set file; message carries path and line number."""

    def __init__(self, message: str, path=None, line: Optional[int] = None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(loc + message)
        self.path = path
        self.line = line


@dataclass(frozen=True)
class Surd:
    """Exact real number p + q*sqrt(r) with rational p, q and integer r >= 0.

    Normalized so that a perfect-square radical folds into the rational
    part and q == 0 forces r == 0, so equality is decided exactly.  Files
    are read and written as Surds, while the ray geometry runs on integer
    arrays (see ``_integer_rays``).
    """

    p: Fraction = Fraction(0)
    q: Fraction = Fraction(0)
    r: int = 0

    def __post_init__(self):
        p = Fraction(self.p)
        q = Fraction(self.q)
        r = int(self.r)
        if r < 0:
            raise ValueError("radical must be nonnegative")
        if q != 0:
            root = isqrt(r)
            if root * root == r:
                p += q * root
                q = Fraction(0)
        if q == 0:
            r = 0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    def _join(self, other: "Surd") -> int:
        if self.q and other.q and self.r != other.r:
            raise ValueError(
                f"mixed radicals sqrt({self.r}) and sqrt({other.r})"
            )
        return self.r if self.q else other.r

    @property
    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __bool__(self) -> bool:
        return not self.is_zero

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * sqrt(self.r)

    def __str__(self) -> str:
        return format_scalar(self)


def parse_scalar(token: str, radical: Optional[int] = None) -> Surd:
    """Parse ``p``, ``q√r`` or ``p+q√r`` into a Surd.

    When ``radical`` is given, any ``√r`` in the token must use exactly
    that r (one radical per file).  ``sqrt`` is accepted for ``√``.
    """
    text = token.strip().replace("sqrt", "√")
    if "√" not in text:
        try:
            return Surd(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"invalid scalar {token!r}") from None
    head, _, tail = text.partition("√")
    if not tail.isdigit():
        raise ValueError(f"invalid radical in scalar {token!r}")
    r = int(tail)
    if radical is not None and r != radical:
        raise ValueError(
            f"scalar {token!r} uses sqrt({r}) but the file declares radical={radical}"
        )
    cut = -1
    for i in range(len(head) - 1, 0, -1):
        if head[i] in "+-":
            cut = i
            break
    p_str, q_str = ("", head) if cut == -1 else (head[:cut], head[cut:])
    try:
        p = Fraction(p_str) if p_str else Fraction(0)
        if q_str in ("", "+"):
            q = Fraction(1)
        elif q_str == "-":
            q = Fraction(-1)
        else:
            q = Fraction(q_str)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid scalar {token!r}") from None
    return Surd(p, q, r)


def format_scalar(s: Surd) -> str:
    """Canonical token for a Surd, parseable by parse_scalar."""
    if s.q == 0:
        return str(s.p)
    qpart = "" if abs(s.q) == 1 else str(abs(s.q))
    root = f"{qpart}√{s.r}"
    if s.p == 0:
        return root if s.q > 0 else f"-{root}"
    return f"{s.p}{'+' if s.q > 0 else '-'}{root}"


@dataclass(frozen=True)
class VectorSet:
    """A finite list of distinct rays with exact coordinates."""

    dim: int
    radical: int
    vectors: tuple
    labels: tuple


# ---------------------------------------------------------------------------
# Integer ray algebra
#
# A ray whose coordinates are x_k + y_k*w (rational x, y; w*w = s) is scaled
# by the LCM of their denominators to integer rows X, Y.  The bilinear form
# of two rays is then  X_u.X_v + s*Y_u.Y_v  +  (X_u.Y_v + Y_u.X_v)*w,  which
# vanishes exactly when both integer parts do, since w is irrational.  Real
# rays over Q(sqrt r) take s = r; complex fragment vectors over Q(i) take
# w = i and the Hermitian product (``epibound._relations``).  Python-int
# object arrays keep every product exact, whatever the size of the
# coordinates.


def _integer_rays(rows):
    """Object arrays X, Y of rays given as rows of (x, y) Fraction pairs."""
    X, Y = [], []
    for row in rows:
        scale = lcm(*(f.denominator for pair in row for f in pair))
        X.append([x.numerator * (scale // x.denominator) for x, _ in row])
        Y.append([y.numerator * (scale // y.denominator) for _, y in row])
    return np.array(X, dtype=object), np.array(Y, dtype=object)


def _orthogonal(X, Y, s: int) -> np.ndarray:
    """n x n bool matrix of exactly orthogonal ray pairs (two Gram products)."""
    if not Y.any():
        return X.dot(X.T) == 0
    return (X.dot(X.T) + s * Y.dot(Y.T) == 0) & (X.dot(Y.T) + Y.dot(X.T) == 0)


def _orthogonal_pairs(X, Y, s: int) -> list:
    """Orthogonal pairs [i, j], i < j, in row order."""
    return np.argwhere(np.triu(_orthogonal(X, Y, s), 1)).tolist()


def _ray_keys(X, Y, s: int) -> list:
    """Canonical primitive form of each ray; equal keys iff parallel rays.

    Multiplying by the conjugate a - b*w of the first nonzero coordinate
    a + b*w makes that coordinate the nonzero integer a*a - s*b*b; dividing
    by the gcd and fixing its sign leaves one form per ray.
    """
    keys = []
    for x, y in zip(X.tolist(), Y.tolist()):
        f = next(k for k in range(len(x)) if x[k] or y[k])
        a, b = x[f], y[f]
        form = [xk * a - s * yk * b for xk, yk in zip(x, y)]
        form += [yk * a - xk * b for xk, yk in zip(x, y)]
        g = gcd(*form) if form[f] > 0 else -gcd(*form)
        keys.append(tuple(c // g for c in form))
    return keys


def _first_repeat(keys):
    """First (i, j), i < j, in row order with keys[i] == keys[j], or None."""
    first, best = {}, None
    for j, key in enumerate(keys):
        i = first.setdefault(key, j)
        if i != j and (best is None or i < best[0]):
            best = (i, j)
    return best


def _surd_rays(vectors):
    """(X, Y, r, first parallel pair or None) of nonzero rays of Surds."""
    lead = next((c for vec in vectors for c in vec if c.q), Surd())
    for vec in vectors:
        for c in vec:
            lead._join(c)  # one radical per set: a second one raises
    X, Y = _integer_rays([[(c.p, c.q) for c in vec] for vec in vectors])
    return X, Y, lead.r, _first_repeat(_ray_keys(X, Y, lead.r))


def _checked_rays(vset: VectorSet):
    """Validate a vector set; return the integer rows X, Y and radical r."""
    if vset.dim < 2:
        raise ValueError("dim must be at least 2")
    for k, vec in enumerate(vset.vectors):
        if len(vec) != vset.dim:
            raise ValueError(f"vector {k} has {len(vec)} components, expected {vset.dim}")
        if all(c.is_zero for c in vec):
            raise ValueError(f"vector {k} is zero")
    X, Y, r, pair = _surd_rays(vset.vectors)
    if pair is not None:
        i, j = pair
        raise ValueError(f"parallel rays: {vset.labels[i]} and {vset.labels[j]}")
    return X, Y, r


_HEADER = re.compile(r"dim\s*=\s*(\d+)\s+radical\s*=\s*(\d+)")


def load_vector_set(path) -> VectorSet:
    """Load and validate a vector-set file (format in the module docstring)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    dim = radical = None
    vectors = []
    line_of = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            m = _HEADER.fullmatch(line)
            if m is None:
                raise VectorFileError(
                    "expected header 'dim=<d> radical=<r>'", path, lineno
                )
            dim, radical = int(m.group(1)), int(m.group(2))
            if dim < 3:
                raise VectorFileError("dim must be >= 3", path, lineno)
            continue
        tokens = line.split()
        if len(tokens) != dim:
            raise VectorFileError(
                f"expected {dim} components, got {len(tokens)}", path, lineno
            )
        try:
            vec = tuple(parse_scalar(t, radical) for t in tokens)
        except ValueError as exc:
            raise VectorFileError(str(exc), path, lineno) from None
        if all(c.is_zero for c in vec):
            raise VectorFileError("zero vector", path, lineno)
        vectors.append(vec)
        line_of.append(lineno)
    if dim is None:
        raise VectorFileError("missing header line", path)
    if not vectors:
        raise VectorFileError("no vectors after header", path)
    *_, pair = _surd_rays(vectors)
    if pair is not None:
        i, j = pair
        raise VectorFileError(
            f"parallel rays at lines {line_of[i]} and {line_of[j]}", path, line_of[j]
        )
    labels = tuple(f"v{k}" for k in range(len(vectors)))
    return VectorSet(dim, radical, tuple(vectors), labels)


def write_vector_set(vset: VectorSet, path, comment: str = "") -> None:
    """Write a vector set in the canonical text format."""
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"dim={vset.dim} radical={vset.radical}")
    for vec in vset.vectors:
        lines.append(" ".join(format_scalar(c) for c in vec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class OrthogonalityGraph:
    """Rays as vertices, exact-orthogonality edges, orthogonal sets as cliques.

    ``bases`` holds every maximal set of mutually orthogonal rays.  Those of
    size exactly ``dim`` are complete bases (also exposed as
    ``complete_bases``); only they carry the exactly-one-1 constraint.
    Smaller maximal sets cannot be extended within the file and constrain a
    valuation only through the no-two-orthogonal-1s rule.
    """

    n: int
    dim: int
    edges: tuple  # sorted (i, j) pairs, i < j
    bases: tuple  # all maximal cliques, each sorted, lexicographic order
    complete_bases: tuple  # the size-dim members of bases
    neighbors: tuple  # adjacency lists, each a sorted tuple


def _maximal_cliques(n: int, adj: Sequence[set]) -> list:
    out = []

    def grow(taken, cands, excluded):
        if not cands and not excluded:
            out.append(tuple(sorted(taken)))
            return
        for v in sorted(cands):
            grow(taken | {v}, cands & adj[v], excluded & adj[v])
            cands = cands - {v}
            excluded = excluded | {v}

    grow(set(), set(range(n)), set())
    out.sort()
    return out


def graph_from_edges(n: int, dim: int, edges: Iterable) -> OrthogonalityGraph:
    """Build the graph (and its maximal orthogonal sets) from an edge list."""
    canon = set()
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bad edge ({i}, {j})")
        canon.add((min(i, j), max(i, j)))
    adj = [set() for _ in range(n)]
    for i, j in canon:
        adj[i].add(j)
        adj[j].add(i)
    bases = _maximal_cliques(n, adj)
    return OrthogonalityGraph(
        n=n,
        dim=dim,
        edges=tuple(sorted(canon)),
        bases=tuple(bases),
        complete_bases=tuple(b for b in bases if len(b) == dim),
        neighbors=tuple(tuple(sorted(a)) for a in adj),
    )


def build_graph(vset: VectorSet) -> OrthogonalityGraph:
    """Orthogonality graph of a vector set, using exact integer Gram products."""
    X, Y, r = _checked_rays(vset)
    return graph_from_edges(len(vset.vectors), vset.dim, _orthogonal_pairs(X, Y, r))


@dataclass(frozen=True)
class SearchStats:
    """Deterministic counters describing one solver run."""

    decisions: int
    assignments: int
    conflicts: int
    solutions: int
    completed: bool


@dataclass(frozen=True)
class SearchResult:
    satisfiable: bool
    valuation: Optional[tuple]
    stats: SearchStats


@dataclass(frozen=True)
class ValuationCheck:
    ok: bool
    violation: Optional[str] = None


def verify_valuation(graph: OrthogonalityGraph, assignment, d: int) -> ValuationCheck:
    """Independent re-check of conditions (i)-(iii); shares no solver code."""
    values = tuple(assignment)
    if len(values) != graph.n:
        return ValuationCheck(False, f"(i) expected {graph.n} values, got {len(values)}")
    for v, val in enumerate(values):
        if val not in (0, 1):
            return ValuationCheck(False, f"(i) vertex {v} valued {val!r}, not 0/1")
    for k, basis in enumerate(graph.bases):
        if len(basis) != d:
            continue  # incomplete orthogonal sets carry no exactly-one-1 rule
        total = sum(values[v] for v in basis)
        if total != 1:
            return ValuationCheck(False, f"(ii) basis {basis} has {total} ones")
    for i, j in graph.edges:
        if values[i] == 1 and values[j] == 1:
            return ValuationCheck(False, f"(iii) orthogonal pair ({i}, {j}) both 1")
    return ValuationCheck(True)


def _solve(graph: OrthogonalityGraph, d: int, want_all: bool, limit: Optional[int]):
    if d != graph.dim:
        raise ValueError(f"graph was built for dim={graph.dim}, not {d}")
    n = graph.n
    neighbors = graph.neighbors
    bases = graph.complete_bases
    vertex_bases = [[] for _ in range(n)]
    for b, basis in enumerate(bases):
        for v in basis:
            vertex_bases[v].append(b)
    order = sorted(range(n), key=lambda v: (-len(neighbors[v]), v))

    assign = [-1] * n
    ones = [0] * len(bases)
    zeros = [0] * len(bases)
    counters = {"decisions": 0, "assignments": 0, "conflicts": 0}
    solutions = []
    state = {"aborted": False}

    def push(v, val, trail, queue):
        # All counter updates happen before conflict exits so undo stays exact.
        assign[v] = val
        trail.append(v)
        counters["assignments"] += 1
        ok = True
        if val == 1:
            for b in vertex_bases[v]:
                ones[b] += 1
                if ones[b] > 1:
                    ok = False
            if ok:
                for u in neighbors[v]:
                    a = assign[u]
                    if a == 1:
                        ok = False
                        break
                    if a == -1:
                        queue.append((u, 0))
        else:
            forced = []
            for b in vertex_bases[v]:
                zeros[b] += 1
                if zeros[b] == d:
                    ok = False
                elif zeros[b] == d - 1 and ones[b] == 0:
                    forced.append(b)
            if ok:
                for b in forced:
                    for w in bases[b]:
                        if assign[w] == -1:
                            queue.append((w, 1))
                            break
        return ok

    def propagate(v0, val0, trail):
        queue = [(v0, val0)]
        while queue:
            v, val = queue.pop()
            a = assign[v]
            if a != -1:
                if a != val:
                    return False
                continue
            if not push(v, val, trail, queue):
                return False
        return True

    def undo(trail):
        for v in reversed(trail):
            val = assign[v]
            for b in vertex_bases[v]:
                if val == 1:
                    ones[b] -= 1
                else:
                    zeros[b] -= 1
            assign[v] = -1

    def dfs(start_idx):
        idx = start_idx
        while idx < n and assign[order[idx]] != -1:
            idx += 1
        if idx == n:
            solutions.append(tuple(assign))
            if limit is not None and len(solutions) >= limit:
                state["aborted"] = True
            return
        v = order[idx]
        for val in (1, 0):
            counters["decisions"] += 1
            trail = []
            if propagate(v, val, trail):
                dfs(idx + 1)
            else:
                counters["conflicts"] += 1
            undo(trail)
            if state["aborted"] or (not want_all and solutions):
                return

    dfs(0)
    completed = not state["aborted"] and (want_all or not solutions)
    stats = SearchStats(
        decisions=counters["decisions"],
        assignments=counters["assignments"],
        conflicts=counters["conflicts"],
        solutions=len(solutions),
        completed=completed,
    )
    return solutions, stats


def find_valuation(graph: OrthogonalityGraph, d: int) -> SearchResult:
    """Decide whether a valuation exists; SAT answers are re-checked."""
    solutions, stats = _solve(graph, d, want_all=False, limit=None)
    if not solutions:
        return SearchResult(False, None, stats)
    valuation = solutions[0]
    check = verify_valuation(graph, valuation, d)
    if not check.ok:
        raise RuntimeError(f"solver produced an invalid valuation: {check.violation}")
    return SearchResult(True, valuation, stats)


def enumerate_valuations(
    graph: OrthogonalityGraph, d: int, limit: Optional[int] = None
):
    """All valuations (up to limit) plus search statistics; each re-checked."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    solutions, stats = _solve(graph, d, want_all=True, limit=limit)
    for valuation in solutions:
        check = verify_valuation(graph, valuation, d)
        if not check.ok:
            raise RuntimeError(
                f"solver produced an invalid valuation: {check.violation}"
            )
    return tuple(solutions), stats
