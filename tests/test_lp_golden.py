"""Golden pins for the fragment LPs: the simplex must take the same path.

``analyze`` runs on the bundled fragments and on KCBS n-cycles built here
from a fixed rotation.  Every float of the report is pinned bit for bit
(``float.hex``; the per-pair core masses and the Farkas multipliers as a
digest of their hex strings) together with the pivot counts of both LPs,
so a change in the tableau that only lands within tolerance of the old
answer, or reaches it by other pivots, fails here.
"""

import hashlib
import math

import pytest

from ontomodels import epibound
from ontomodels.data import fragment_path
from ontomodels.epibound import analyze, load_fragment, parse_fragment


def _rotate(v):
    """A fixed rotation Rz(0.3) Ry(0.7) Rx(1.1), in plain float arithmetic."""
    x, y, z = v
    c, s = math.cos(1.1), math.sin(1.1)
    y, z = c * y - s * z, s * y + c * z
    c, s = math.cos(0.7), math.sin(0.7)
    x, z = c * x + s * z, -s * x + c * z
    c, s = math.cos(0.3), math.sin(0.3)
    x, y = c * x - s * y, s * x + c * y
    return (x, y, z)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _unit(v):
    norm = math.sqrt(sum(x * x for x in v))
    return tuple(x / norm for x in v)


def kcbs_cycle_text(n):
    """Odd n-cycle of rays on a cone (v_k . v_{k+1} = 0) with its n triads.

    Basis k is {v_k, v_{k+1}, v_k x v_{k+1}}; the states are the n cycle
    rays plus the cone axis.  n = 5 is the KCBS pentagon.
    """
    c = math.cos(math.pi / n)
    cos_t = math.sqrt(c / (1.0 + c))
    sin_t = math.sqrt(1.0 - cos_t * cos_t)
    step = math.pi * (n - 1) / n
    cycle = [
        _rotate((sin_t * math.cos(k * step), sin_t * math.sin(k * step), cos_t))
        for k in range(n)
    ]
    cross = [_unit(_cross(cycle[k], cycle[(k + 1) % n])) for k in range(n)]

    def line(v):
        return " ".join(f"{x!r},0" for x in v)

    lines = ["dim=3"]
    lines += ["state: " + line(v) for v in cycle + [_rotate((0.0, 0.0, 1.0))]]
    for k in range(n):
        lines += ["basis:", line(cycle[k]), line(cycle[(k + 1) % n]), line(cross[k])]
    return "\n".join(lines) + "\n"


def _digest(values):
    text = "\n".join(float.hex(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _hex(v):
    return None if v is None else float.hex(v)


def _pins(fragment, monkeypatch):
    results = []
    solve = epibound.simplex_solve

    def recording_solve(lp, exact=False):
        results.append(solve(lp, exact=exact))
        return results[-1]

    monkeypatch.setattr(epibound, "simplex_solve", recording_solve)
    body = analyze(fragment)
    cert = body["certificate"] or {}
    farkas = cert.get("farkas", [])
    return {
        "n_atoms": body["n_atoms"],
        "feasible": body["feasible"],
        "max_residual": _hex(body["max_residual"]),
        "f_star": _hex(body["f_star"]),
        "n_pairs": len(body["pairs"]),
        "core_mass": _digest(p["core_mass"] for p in body["pairs"]),
        "n_farkas": len(farkas),
        "farkas": _digest(farkas),
        "pivots": [res.pivots for res in results],
    }


# pinned from the list-of-lists tableau before the array tableau replaced it
GOLDEN = {
    "d2_zx.frag": {
        "n_atoms": 4,
        "feasible": "Feasible",
        "max_residual": "0x0.0p+0",
        "f_star": "0x1.0000000000000p+0",
        "n_pairs": 2,
        "core_mass": "5f2ec7ed4a707c0e",
        "n_farkas": 0,
        "farkas": "e3b0c44298fc1c14",
        "pivots": [(4, 0), (7, 0)],
    },
    "kcbs.frag": {
        "n_atoms": 11,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": "0x1.c9f25c5bfedd8p-1",
        "n_pairs": 15,
        "core_mass": "2f757377b0cd2e2d",
        "n_farkas": 90,
        "farkas": "3ad6300796df6b92",
        "pivots": [(20, 0), (38, 1)],
    },
    "peres33.frag": {
        "n_atoms": 0,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": None,
        "n_pairs": 0,
        "core_mass": "e3b0c44298fc1c14",
        "n_farkas": 0,
        "farkas": "e3b0c44298fc1c14",
        "pivots": [],
    },
    "kcbs-7": {
        "n_atoms": 29,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": "0x1.cef9d55914feap-1",
        "n_pairs": 35,
        "core_mass": "60a6cb44847f6dd6",
        "n_farkas": 168,
        "farkas": "cb3f34c8b015335b",
        "pivots": [(49, 0), (95, 1)],
    },
    "kcbs-9": {
        "n_atoms": 76,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": "0x1.d5b7121708e9cp-1",
        "n_pairs": 63,
        "core_mass": "7b9d95a300ff217a",
        "n_farkas": 270,
        "farkas": "dec6c4a017c104ec",
        "pivots": [(100, 0), (201, 1)],
    },
    "kcbs-11": {
        "n_atoms": 199,
        "feasible": "Infeasible",
        "max_residual": None,
        "f_star": "0x1.db47952962a3bp-1",
        "n_pairs": 99,
        "core_mass": "b24f4f10a14fc197",
        "n_farkas": 396,
        "farkas": "ba902a90a203580d",
        "pivots": [(191, 0), (371, 1)],
    },
}


def _fragment(name):
    if name.endswith(".frag"):
        return load_fragment(fragment_path(name))
    n = int(name.split("-")[1])
    return parse_fragment(kcbs_cycle_text(n), name=name)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fragment_lp_golden(name, monkeypatch):
    assert _pins(_fragment(name), monkeypatch) == GOLDEN[name]
