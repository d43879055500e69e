"""Reference answers computed without the program's own solvers.

Valuations are enumerated by plain backtracking that checks constraints
but never propagates (unlike the program's search), from orthogonality
decided on the generator's own coordinates.  The two fragment LPs are rebuilt as
dense matrices and solved with scipy's HiGHS.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

ORTH_TOL = 1e-9
BORN_EPS = 1e-12


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def orthogonality(rays, exact: bool) -> list:
    """Adjacency sets: exact zero dot products, or |u.v| <= 1e-9 for floats."""
    adj = [set() for _ in rays]
    for i, j in itertools.combinations(range(len(rays)), 2):
        d = _dot(rays[i], rays[j])
        if (d == 0) if exact else (abs(d) <= ORTH_TOL):
            adj[i].add(j)
            adj[j].add(i)
    return adj


def complete_bases(adj, dim: int) -> list:
    """Every clique of ``dim`` rays (no larger clique exists in dimension dim)."""
    out = []

    def grow(clique, cands):
        if len(clique) == dim:
            out.append(tuple(clique))
            return
        for v in sorted(cands):
            if v > clique[-1]:
                grow(clique + [v], cands & adj[v])

    for v in range(len(adj)):
        grow([v], adj[v])
    return out


def valuations(adj, bases) -> list:
    """All 0/1 assignments with one 1 per basis and no orthogonal pair of 1s.

    Rays are tried most-connected first; the search only checks
    constraints and never propagates.
    """
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    of_ray = [[] for _ in range(n)]
    for b, basis in enumerate(bases):
        for v in basis:
            of_ray[v].append(b)
    ones = [0] * len(bases)
    open_ = [len(basis) for basis in bases]
    value = [-1] * n
    out = []

    def go(k):
        if k == n:
            out.append(tuple(value))
            return
        v = order[k]
        if all(ones[b] == 0 for b in of_ray[v]) and not any(value[u] == 1 for u in adj[v]):
            value[v] = 1
            for b in of_ray[v]:
                ones[b] += 1
                open_[b] -= 1
            go(k + 1)
            for b in of_ray[v]:
                ones[b] -= 1
                open_[b] += 1
        value[v] = 0
        for b in of_ray[v]:
            open_[b] -= 1
        if all(open_[b] > 0 or ones[b] == 1 for b in of_ray[v]):
            go(k + 1)
        for b in of_ray[v]:
            open_[b] += 1
        value[v] = -1

    go(0)
    return out


def is_valuation(values, adj, bases) -> bool:
    """Independent check of one valuation against integer orthogonality."""
    if any(x not in (0, 1) for x in values):
        return False
    if any(sum(values[v] for v in basis) != 1 for basis in bases):
        return False
    return not any(values[i] and values[j] for i in range(len(adj)) for j in adj[i])


def _born(u, v, exact: bool) -> float:
    num, den = _dot(u, v) ** 2, _dot(u, u) * _dot(v, v)
    return float(Fraction(num, den)) if exact else num / den


def bound_reference(spec) -> dict:
    """Atom count, feasibility status and f* of a fragment, via HiGHS."""
    from scipy.optimize import linprog

    adj = orthogonality(spec.rays, spec.exact)
    atoms = valuations(adj, complete_bases(adj, spec.dim))
    if not atoms:
        return {"n_atoms": 0, "feasible": "Infeasible",
                "f_star_status": "Undefined", "f_star": None}
    n_states = len(spec.states)
    allowed = [
        [a for a, val in enumerate(atoms) if r is None or val[r] == 1]
        for r in spec.state_rays
    ]
    cols = [(i, a) for i in range(n_states) for a in allowed[i]]
    col_of = {c: k for k, c in enumerate(cols)}

    # Born reproduction: mass on atoms answering each outcome equals Born.
    a_eq, b_eq = [], []
    for i in range(n_states):
        for ids in spec.basis_rays:
            for r in ids:
                row = np.zeros(len(cols))
                for a in allowed[i]:
                    if atoms[a][r] == 1:
                        row[col_of[(i, a)]] = 1.0
                a_eq.append(row)
                b_eq.append(_born(spec.rays[r], spec.states[i], spec.exact))
    res = linprog(np.zeros(len(cols)), A_eq=np.array(a_eq), b_eq=b_eq,
                  bounds=(0, None), method="highs")
    feasible = "Feasible" if res.status == 0 else "Infeasible"

    # Uniform overlap fraction: variable 0 is t, then one weight per column.
    n_vars = 1 + len(cols)
    a_eq = np.zeros((n_states, n_vars))
    for (j, a), k in col_of.items():
        a_eq[j, 1 + k] = 1.0
    a_ub, b_ub = [], []
    for i, r in enumerate(spec.state_rays):
        if r is None:
            continue
        for j in range(n_states):
            born = _born(spec.states[i], spec.states[j], spec.exact)
            if j == i or born <= BORN_EPS:
                continue
            core = np.zeros(n_vars)
            for a in allowed[j]:
                if atoms[a][r] == 1:
                    core[1 + col_of[(j, a)]] = 1.0
            floor = -core
            floor[0] = born
            a_ub += [floor, core]
            b_ub += [0.0, born]
    objective = np.zeros(n_vars)
    objective[0] = -1.0
    res = linprog(objective, A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=b_ub or None, A_eq=a_eq, b_eq=np.ones(n_states),
                  bounds=[(0, 1)] + [(0, None)] * len(cols), method="highs")
    if res.status == 0:
        return {"n_atoms": len(atoms), "feasible": feasible,
                "f_star_status": "Optimal", "f_star": -res.fun}
    return {"n_atoms": len(atoms), "feasible": feasible,
            "f_star_status": "Infeasible", "f_star": None}
