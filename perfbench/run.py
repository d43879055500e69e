"""Closed-loop benchmark of the ontomodels command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client calls
``ontomodels.cli.main(argv)`` in this process, sends the next op only when
the previous one has returned, and repeats whole rounds of the workload's
ops (see ``workloads.py``) until the ops have taken ``--seconds`` and the
workload's minimum round count is reached.  Inputs come from ``--seed``
alone and are written under ``.perfbench/``; every op is checked after
the timed section (``check.py``).

``--trace 0`` reports the end-to-end metrics.  A shared host's speed can
drift by tens of percent over minutes, so before each round a fixed
calibration kernel is timed and the round's op latencies are multiplied by
``CAL_REF_S`` over that kernel time (set-up by ``CAL_REF_S`` over the run's
median kernel time): seconds as they would read at the reference speed.  The raw figures are printed beside them.  ``--trace 1`` runs the
minimum round count untraced, then the same count on fresh inputs with
spans around the program's public functions (``spans.py``), writes the
spans to ``.perfbench/spans-<workload>-<seed>.jsonl`` and reports the
per-layer metrics.  ``--workload all`` runs every workload in its own
process.  The last line of output is one JSON result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench")
SETUP_REPS = 9
CAL_REF_S = 0.020   # calibration kernel time on the reference machine, uncontended

# One client and no helper threads: keep BLAS single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def quantile(sorted_values, q: float) -> float:
    """Linear-interpolation quantile of already sorted values."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def calibration_s() -> float:
    """Best of three runs of a fixed interpreter-plus-numpy kernel."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        g = np.random.Generator(np.random.Philox(1))
        a = g.normal(size=(65536, 2)) + 1j * g.normal(size=(65536, 2))
        np.abs(a @ a[:2].conj().T).argmax(axis=1)
        best = min(best, time.perf_counter() - start)
    return best


def round_rng(seed: int, workload: str, label: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{label}/{index}")


def run_op(cli, op):
    """Run one op in-process; only the CLI call itself is timed."""
    from check import Outcome

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the op failed; the run goes on and reports it
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds)


def run_pass(cli, rounds, seconds: float, min_rounds: int, tracer=None,
             before=None):
    """Whole rounds until the ops took ``seconds`` and ``min_rounds`` ran.

    ``rounds`` yields each round's ops; generating them is not timed, nor
    is ``before(round index)``, called before each round.
    """
    results, spent = [], 0.0
    for index, ops in enumerate(rounds):
        if index >= min_rounds and spent >= seconds:
            break
        if before is not None:
            before(index)
        for op in ops:
            if tracer is not None:
                tracer.op = len(results)
            res = run_op(cli, op)
            spent += res.seconds
            results.append((op, res))
    return results


def check_pass(results):
    from check import Checker

    checker = Checker()
    for index, (op, res) in enumerate(results):
        checker.check(index, op, res)
    return checker, checker.finish()


def setup_probe(workload: str, seed: int) -> dict:
    """Time ``import ontomodels`` and writing the first round's inputs."""
    start = time.perf_counter()
    import ontomodels.cli  # noqa: F401
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    directory = WORK / f"setup-{workload}-{seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    try:
        start = time.perf_counter()
        w.make_round(round_rng(seed, workload, "u", 0), directory, "u0")
        inputs_s = time.perf_counter() - start
    finally:
        shutil.rmtree(directory)
    return {"import_s": import_s, "inputs_s": inputs_s}


def measure_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["import_s"] + probe["inputs_s"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(failures, results):
    attempted = len(results)
    print(f"  failed_frac    {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} ops)")
    for index, reason in sorted(failures.items())[:20]:
        print(f"  FAILED op {index} {' '.join(results[index][0].argv)}: {reason}")


def run_untraced(cli, w, seed, seconds, directory):
    rounds = (w.make_round(round_rng(seed, w.name, "u", r), directory, f"u{r}")
              for r in itertools.count())
    # Set-up probes are spread over the run so their median spans its
    # changes in machine speed.
    setup, calibration = [], []
    step = max(1, w.min_rounds // SETUP_REPS)

    def before(index):
        calibration.append(calibration_s())
        if index % step == 0 and len(setup) < SETUP_REPS:
            setup.append(measure_setup(w.name, seed))

    results = run_pass(cli, rounds, seconds, w.min_rounds, before=before)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_REPS:
        setup.append(measure_setup(w.name, seed))
    checker, failures = check_pass(results)

    raw = [res.seconds for _, res in results]
    run_scale = CAL_REF_S / statistics.median(calibration)
    n = len(raw)

    def timings(op_scale, setup_scale):
        lat = sorted(t * k for t, k in zip(raw, op_scale))
        return {
            "ops_per_s": metric(n / sum(lat), "ops/s"),
            "op_p50_s": metric(quantile(lat, 0.5), "s"),
            "op_tail_s": metric(quantile(lat, w.tail_pct / 100.0), "s"),
            "setup_s": metric(statistics.median(setup) * setup_scale, "s"),
        }

    # Each op is scaled by the kernel timed just before its round; set-up,
    # probed across the run, by the run's median kernel time.
    round_scale = [CAL_REF_S / c for c in calibration]
    metrics = timings([round_scale[i // w.ops_per_round] for i in range(n)], run_scale)
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    unscaled = timings([1.0] * n, 1.0)
    samples = {"ops_per_s": n, "op_p50_s": n, "op_tail_s": n,
               "setup_s": len(setup), "peak_rss_mb": 1}
    digest = hashlib.sha256()
    for _, res in results[: w.min_rounds * w.ops_per_round]:
        digest.update(res.out.encode("utf-8"))

    print(f"workload {w.name}  seed {seed}  rounds {n // w.ops_per_round}  ops {n}  "
          f"speed scale {run_scale:.4f} (calibration median "
          f"{statistics.median(calibration) * 1e3:.2f} ms, reference {CAL_REF_S * 1e3:g} ms)")
    for key, m in metrics.items():
        extra = f", p{w.tail_pct:.1f}" if key == "op_tail_s" else ""
        raw_value = f"  raw {unscaled[key]['value']:.6g}" if key in unscaled else ""
        print(f"  {key:<14} {m['value']:.6g} {m['unit']} "
              f"(n={samples[key]}{extra}){raw_value}")
    summarize(failures, results)
    print(f"  verify FAIL verdicts on correct models: {checker.verify_fail}")
    print(f"  output digest sha256:{digest.hexdigest()} "
          f"(first {w.min_rounds * w.ops_per_round} ops)")
    return results, failures, metrics


def run_traced(cli, w, seed, directory):
    from spans import Tracer, layer_metrics, unit_of

    def rounds(label):
        return [w.make_round(round_rng(seed, w.name, label, r), directory, f"{label}{r}")
                for r in range(w.min_rounds)]

    plain = run_pass(cli, rounds("u"), 0.0, w.min_rounds)
    traced_rounds = rounds("t")
    tracer = Tracer()
    tracer.install()
    traced = run_pass(cli, traced_rounds, 0.0, w.min_rounds, tracer)
    tracer.op = -1

    _, failures_plain = check_pass(plain)
    checker, failures = check_pass(traced)
    failures.update({len(traced) + i: r for i, r in failures_plain.items()})
    layers = layer_metrics(tracer.spans, checker.verify_fail)
    layers["trace_overhead_frac"] = (
        sum(r.seconds for _, r in traced) / sum(r.seconds for _, r in plain) - 1.0)
    span_file = WORK / f"spans-{w.name}-{seed}.jsonl"
    tracer.write(span_file)

    print(f"workload {w.name}  seed {seed}  traced ops {len(traced)}  "
          f"spans {len(tracer.spans)} -> {span_file}")
    metrics = {k: metric(v, unit_of(k)) for k, v in layers.items()}
    for key, m in metrics.items():
        print(f"  {key:<32} {m['value']:.6g} {m['unit']}")
    summarize(failures, traced + plain)
    return traced + plain, failures, metrics


def run_all(args) -> int:
    from workloads import WORKLOADS

    combined, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ontomodels" / "__init__.py").is_file():
        print(f"perfbench: no ontomodels sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args)

    from ontomodels import cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    directory = WORK / f"{w.name}-{args.seed}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        if args.trace:
            results, failures, metrics = run_traced(cli, w, args.seed, directory)
        else:
            results, failures, metrics = run_untraced(cli, w, args.seed, args.seconds,
                                                      directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
