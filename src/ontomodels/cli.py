"""Command-line front end.

Subcommands: ``verify`` (Born-rule check on random pairs), ``classify``
(falsification-test one model's declared properties), ``table`` (the
seven-model summary table), ``ksval`` (ray-set valuation search),
``bound`` (fragment feasibility and overlap fraction), and ``prepctx``
(preparation-context distance for one mixed state).

Exit codes are uniform: 0 for a pass or positive finding, 1 for a
substantive negative (verification failure, declared/measured mismatch,
UNSAT, infeasible), 2 for usage or input errors.

Each option is declared once, in ``_OPTIONS``.  Its long flag name is
also its key in a ``--config`` file of ``key = value`` lines (``model``,
``engine``, ``seed``, ``pairs``, ``trials``, ``input``, ``all``,
``limit``, ``rho``, ``ctx``, ``format``, ``output``).  A value comes from
the flag, else the config file, else (seed only) the ONTOMODELS_SEED
environment variable, else the ``RunConfig`` default, and every report
records the seed it actually used.  The counts ``pairs``, ``trials`` and
``limit`` must be at least 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reports
from .engines import EngineError, parse_engine
from .epibound import FragmentError, analyze, load_fragment
from .framework import (
    PREP_TV_CONTEXTUAL,
    PreparationMismatchError,
    UnsupportedDimensionError,
    born_suite_pairs,
    canonical_mix_contexts,
    classify,
    prep_context_distance,
    table_cells,
)
from .hilbert import DensityOperator, mix
from .ksval import (
    VectorFileError,
    build_graph,
    enumerate_valuations,
    find_valuation,
    load_vector_set,
)
from .rng import DEFAULT_SEED
from .zoo import UnknownModelError, get_model, table_models

ENV_SEED = "ONTOMODELS_SEED"

TABLE_COLUMNS = ("name", "type", "reciprocity", "determinism", "contextual")


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: the command plus every knob it reads."""

    command: str
    model: str | None = None
    engine: str | None = None
    seed: int = DEFAULT_SEED
    pairs: int = 100
    trials: int = 4096
    input: str | None = None
    enumerate_all: bool = False
    limit: int | None = None
    rho: str = "unpolarized"
    contexts: tuple = ("z", "x")
    fmt: str = "json"
    output: str | None = None


def _emit(cfg: RunConfig, envelope: dict, text: str = "", csv_data=None):
    if cfg.fmt == "json":
        out = reports.canonical_json(envelope)
    elif cfg.fmt == "csv":
        out = reports.csv_text(*csv_data)
    else:
        out = text if text.endswith("\n") else text + "\n"
    if cfg.output:
        Path(cfg.output).write_text(out)
    else:
        sys.stdout.write(out)


def _require_implemented(model):
    if not model.implemented:
        raise UsageError(
            f"model {model.name} is declared-only; this command needs an "
            "implemented model"
        )


# ---------------------------------------------------------------------------
# Commands


def cmd_verify(cfg: RunConfig) -> int:
    model = get_model(cfg.model)
    _require_implemented(model)
    engine = parse_engine(cfg.engine or model.default_engine_spec, seed=cfg.seed)
    report = born_suite_pairs(model, cfg.pairs, cfg.seed, engine)
    body = report.to_jsonable()
    envelope = reports.build_report("verify", body, cfg.seed, engine.spec)
    lines = [
        f"verify {model.name}  engine={engine.spec}  seed={cfg.seed}",
        f"pairs={cfg.pairs}  outcomes={report.n_pairs}  "
        f"max deviation={report.max_deviation:.6g}",
        "PASS" if report.passed else "FAIL",
    ]
    csv_cols = ("psi", "phi", "basis", "predicted", "born", "deviation", "tolerance")
    _emit(cfg, envelope, "\n".join(lines), (csv_cols, body["pairs"]))
    return 0 if report.passed else 1


def cmd_classify(cfg: RunConfig) -> int:
    model = get_model(cfg.model)
    _require_implemented(model)
    report = classify(model, n_trials=cfg.trials, seed=cfg.seed)
    ok = report.matches_declared(model.declared)
    body = report.to_jsonable()
    body["matches_declared"] = ok
    envelope = reports.build_report("classify", body, cfg.seed)
    lines = [f"classify {model.name}  trials={cfg.trials}  seed={cfg.seed}"]
    for name in sorted(report.predicates):
        st = report.predicates[name]
        note = f"  ({st.note})" if st.note else ""
        lines.append(f"  {name}: {st.value}{note}")
    lines.append(f"deficient: {'yes' if report.deficient else 'no'}")
    lines.append("MATCH" if ok else "MISMATCH")
    _emit(cfg, envelope, "\n".join(lines))
    return 0 if ok else 1


def cmd_table(cfg: RunConfig, models=None) -> int:
    models = table_models() if models is None else list(models)
    rows = []
    for model in models:
        # stubs cannot run: their cells are their claims
        rep = classify(model, cfg.trials, cfg.seed) if model.implemented else None
        rows.append({
            "name": model.name,
            "display_name": model.display_name,
            "type": model.table_type,
            "implemented": model.implemented,
            **table_cells(rep.holds if rep else model.declared.claims()),
            "source": "measured" if rep else "declared",
            "mismatch": (rep.mismatches(model.declared) or None) if rep else None,
        })
    any_mismatch = any(r["mismatch"] for r in rows)

    body = {"rows": rows, "all_match": not any_mismatch, "n_trials": cfg.trials}
    envelope = reports.build_report("table", body, cfg.seed)

    widths = {c: max(len(c), max(len(str(r[c])) for r in rows)) for c in TABLE_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in TABLE_COLUMNS)]
    for r in rows:
        line = "  ".join(str(r[c]).ljust(widths[c]) for c in TABLE_COLUMNS)
        flags = []
        if not r["implemented"]:
            flags.append("unimplemented")
        if r["mismatch"]:
            flags.append("MISMATCH: " + ", ".join(sorted(r["mismatch"])))
        lines.append(line + ("  [" + "; ".join(flags) + "]" if flags else ""))
    lines.append("OK" if not any_mismatch else "MISMATCH")

    _emit(cfg, envelope, "\n".join(lines), (TABLE_COLUMNS, rows))
    return 0 if not any_mismatch else 1


def cmd_ksval(cfg: RunConfig) -> int:
    if cfg.limit is not None and not cfg.enumerate_all:
        raise UsageError("ksval --limit needs --all")
    path = cfg.input
    vset = load_vector_set(path)
    graph = build_graph(vset)
    if cfg.enumerate_all:
        valuations, stats = enumerate_valuations(graph, vset.dim, limit=cfg.limit)
        satisfiable = bool(valuations)
        valuation = list(valuations[0]) if valuations else None
        extra = {
            "n_valuations": len(valuations),
            "valuations": [list(v) for v in valuations],
        }
    else:
        result = find_valuation(graph, vset.dim)
        satisfiable = result.satisfiable
        valuation = list(result.valuation) if result.valuation else None
        stats = result.stats
        extra = {}
    body = {
        "file": Path(path).name,
        "dim": vset.dim,
        "radical": vset.radical,
        "n_rays": len(vset.vectors),
        "n_edges": len(graph.edges),
        "n_bases": len(graph.bases),
        "n_complete_bases": len(graph.complete_bases),
        "satisfiable": satisfiable,
        "valuation": valuation,
        "verified": True,  # SAT answers re-pass the independent checker
        "stats": {
            "decisions": stats.decisions,
            "assignments": stats.assignments,
            "conflicts": stats.conflicts,
            "solutions": stats.solutions,
            "completed": stats.completed,
        },
        **extra,
    }
    envelope = reports.build_report("ksval", body, cfg.seed, inputs=[path])
    verdict = "SAT" if satisfiable else "UNSAT"
    lines = [
        f"ksval {Path(path).name}  rays={body['n_rays']}  "
        f"edges={body['n_edges']}  bases={body['n_bases']}",
        f"decisions={stats.decisions}  conflicts={stats.conflicts}",
    ]
    if cfg.enumerate_all:
        lines.append(f"valuations={extra['n_valuations']}")
    lines.append(verdict)
    _emit(cfg, envelope, "\n".join(lines))
    return 0 if satisfiable else 1


def cmd_bound(cfg: RunConfig) -> int:
    path = cfg.input
    fragment = load_fragment(path)
    body = analyze(fragment)
    envelope = reports.build_report("bound", body, cfg.seed, inputs=[path])
    f_star = body["f_star"]
    lines = [
        f"bound {fragment.name}  dim={body['dim']}  atoms={body['n_atoms']}",
        f"feasible={body['feasible']}",
        f"f_star={'undefined' if f_star is None else reports.format_float(f_star)}"
        f"  ({body['caveat']})",
    ]
    csv_cols = ("measured", "prepared", "born", "core_mass", "ratio")
    _emit(cfg, envelope, "\n".join(lines), (csv_cols, body["pairs"]))
    return 0 if body["feasible"] == "Feasible" else 1


_CTX_INDEX = {"z": 0, "standard": 0, "x": 1, "fourier": 1}
_RHO_NAMES = ("unpolarized", "mixed", "maximally-mixed")


def cmd_prepctx(cfg: RunConfig) -> int:
    model = get_model(cfg.model)
    _require_implemented(model)
    if cfg.rho not in _RHO_NAMES:
        raise UsageError(
            f"unknown rho {cfg.rho!r}; supported: {', '.join(_RHO_NAMES)}"
        )
    if len(cfg.contexts) != 2:
        raise UsageError("--ctx needs exactly two comma-separated names")
    for name in cfg.contexts:
        if name not in _CTX_INDEX:
            raise UsageError(
                f"unknown context {name!r}; supported: z, x, standard, fourier"
            )
    pair = canonical_mix_contexts(model.dim)
    ctx_a = pair[_CTX_INDEX[cfg.contexts[0]]]
    ctx_b = pair[_CTX_INDEX[cfg.contexts[1]]]
    rho = DensityOperator(np.eye(model.dim) / model.dim)
    engine = parse_engine(cfg.engine or model.default_engine_spec, seed=cfg.seed)
    mix_deviation = max(
        float(np.max(np.abs(mix(ctx.payload).matrix - rho.matrix)))
        for ctx in (ctx_a, ctx_b)
    )
    tv = prep_context_distance(model, rho, ctx_a, ctx_b, engine)
    body = {
        "model": model.name,
        "dim": model.dim,
        "rho": "unpolarized",
        "ctx_a": ctx_a.label,
        "ctx_b": ctx_b.label,
        "tv_distance": float(tv),
        "threshold": PREP_TV_CONTEXTUAL,
        "preparation_contextual": bool(tv > PREP_TV_CONTEXTUAL),
        "mix_deviation": mix_deviation,
    }
    envelope = reports.build_report("prepctx", body, cfg.seed, engine.spec)
    lines = [
        f"prepctx {model.name}  {ctx_a.label} vs {ctx_b.label}  "
        f"engine={engine.spec}",
        f"tv_distance={tv:.6g}  threshold={PREP_TV_CONTEXTUAL}",
        f"preparation contextual: {'yes' if body['preparation_contextual'] else 'no'}",
    ]
    _emit(cfg, envelope, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Commands and options, each declared once: the parser, the config-file
# keys and the checks all read these two tables; defaults are RunConfig's.


@dataclass(frozen=True)
class _Command:
    run: Callable[[RunConfig], int]
    help: str
    formats: tuple  # report formats it can emit


@dataclass(frozen=True)
class _Option:
    """One option; its name is both the long flag and the config-file key."""

    field: str  # the RunConfig field it sets
    commands: tuple  # the commands that take it
    help: str
    cast: Callable = str  # applied to the flag, config or environment string
    count: bool = False  # the value must be at least 1
    required: str = ""  # if set, a command that takes it fails "needs <required>"
    positional: bool = False


def _to_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _names(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


_COMMANDS = {
    "verify": _Command(
        cmd_verify, "check Born reproduction on random pairs", ("json", "text", "csv")
    ),
    "classify": _Command(
        cmd_classify, "falsification-test declared properties", ("json", "text")
    ),
    "table": _Command(
        cmd_table, "render the seven-model summary table", ("json", "csv", "text")
    ),
    "ksval": _Command(
        cmd_ksval, "search for a 0/1 valuation of a ray set", ("json", "text")
    ),
    "bound": _Command(
        cmd_bound, "fragment feasibility and overlap fraction", ("json", "text", "csv")
    ),
    "prepctx": _Command(
        cmd_prepctx, "preparation-context distance of a mixture", ("json", "text")
    ),
}

_EVERY = tuple(_COMMANDS)

_OPTIONS = {
    "input": _Option(
        "input", ("ksval", "bound"), "ray set (.vec) or fragment (.frag) file",
        required="an input file", positional=True,
    ),
    "model": _Option(
        "model", ("verify", "classify", "prepctx"),
        "registry name, e.g. ks, bb:3, ws:4", required="--model",
    ),
    "engine": _Option(
        "engine", ("verify", "prepctx"), "closed, quad:<level>, or mc:<samples>"
    ),
    "pairs": _Option(
        "pairs", ("verify",), "number of random pairs (default 100)", int, count=True
    ),
    "trials": _Option(
        "trials", ("classify", "table"), "samples per probe (default 4096)",
        int, count=True,
    ),
    "all": _Option("enumerate_all", ("ksval",), "enumerate every valuation", _to_bool),
    "limit": _Option(
        "limit", ("ksval",), "stop enumeration after this many", int, count=True
    ),
    "rho": _Option("rho", ("prepctx",), "mixed state to prepare (unpolarized)"),
    "ctx": _Option("contexts", ("prepctx",), "two context names, e.g. z,x", _names),
    "seed": _Option("seed", _EVERY, "RNG seed recorded in the report", int),
    "format": _Option("fmt", _EVERY, "report format: {formats} (default json)"),
    "output": _Option("output", _EVERY, "write the report here instead of stdout"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontomodels",
        description="Verify, classify, and bound ontological models "
        "of single quantum systems.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"{reports.TOOL_NAME} {reports.TOOL_VERSION}",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, spec in _COMMANDS.items():
        sp = sub.add_parser(command, help=spec.help)
        sp.add_argument("--config", help="key = value file with option defaults")
        for name, opt in _OPTIONS.items():
            if command not in opt.commands:
                continue
            text = opt.help.format(formats=", ".join(spec.formats))
            if opt.positional:
                sp.add_argument(name, nargs="?", help=text)
            elif opt.cast is _to_bool:
                # a switch stores a string too, so it is cast like the config key
                sp.add_argument(
                    f"--{name}", action="store_const", const="yes", help=text
                )
            else:
                sp.add_argument(f"--{name}", help=text)
    return parser


def _read_config(path) -> dict:
    table = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        table[key] = value.strip()
    return table


def _config_from_args(args) -> RunConfig:
    """Resolve each option the command takes from the flag, else the config
    file, else (seed only) the environment, else the RunConfig default."""
    command, flags = args.command, vars(args)
    config = _read_config(args.config) if args.config else {}
    values = {}
    for name, opt in _OPTIONS.items():
        if command not in opt.commands:
            continue
        sources = [(f"--{name}", flags[name]), (f"config {name}", config.get(name))]
        if name == "seed":
            sources.append((ENV_SEED, os.environ.get(ENV_SEED)))
        given = [(where, raw) for where, raw in sources if raw is not None]
        if not given:
            if opt.required:
                raise UsageError(f"{command} needs {opt.required}")
            continue
        where, raw = given[0]
        try:
            value = opt.cast(raw)
        except ValueError:
            raise UsageError(f"{where}={raw!r} is invalid") from None
        if opt.count and value < 1:
            raise UsageError(f"{where} must be at least 1, got {value}")
        values[opt.field] = value
    cfg = RunConfig(command, **values)
    if cfg.fmt not in _COMMANDS[command].formats:
        raise UsageError(f"{command} cannot emit format {cfg.fmt!r}")
    return cfg


_USAGE_ERRORS = (
    UsageError,
    UnknownModelError,
    UnsupportedDimensionError,
    EngineError,
    VectorFileError,
    FragmentError,
    PreparationMismatchError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command is None:
        _parser().print_usage(sys.stderr)
        return 2
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command].run(cfg)
    except _USAGE_ERRORS as exc:
        print(f"ontomodels: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
