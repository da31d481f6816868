"""Seeded end-to-end benchmark of prime_scope.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload phi-valuation --seed 1 --seconds 30 --trace 0

The benchmark is one process with one thread and a closed loop: it generates a
workload's inputs from ``--seed``, calls the public API of the package under
``src/`` once per operation, times each call, and checks every answer after
the timed phase.  Set-up is timed in fresh probe processes of this script
(``--setup-probe``), from process start to the point where the first
operation would run.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it installs the per-layer wrappers of ``layertrace.py`` and
reports per-layer metrics instead (see bench/README.md).

Standard output ends with two JSON lines: a ``record`` line (interpreter,
nproc, git SHA, seed, per-kind counts, the answer digest, the percentile
behind ``op_tail_ms``) and the result line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A readable table of the same
metrics goes to standard error.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# setup_s is the median of this many set-up probes, one before each of as
# many equal slices of the timed phase, so that the probes see the same
# phases of a drifting host as the operations do.
SETUP_PROBES = 5
# Per-operation deadline.  The slowest operation of the chosen sizes takes
# well under a second on a 2-core box, a few seconds when traced.
DEADLINE_S = 60.0
# op_tail_ms is the latency with exactly this many samples above it.
TAIL_SAMPLES_ABOVE = 10


class OpDeadline(BaseException):
    """Raised by SIGALRM when one operation overruns DEADLINE_S.  A
    BaseException, so that no ``except Exception`` in the package swallows it."""


def _alarm(signum, frame):
    raise OpDeadline(f"operation exceeded {DEADLINE_S} s")


def guarded(fn, *args):
    """(result, None) or (None, error text); the call runs under the deadline."""
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        return fn(*args), None
    except OpDeadline as exc:
        return None, f"deadline: {exc}"
    except Exception as exc:  # an unexpected error is a counted failure
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_ops(wl, state, ops, seconds=None, min_ops=0, tracer=None):
    """Run operations closed-loop.  ``ops`` is an iterator of (kind, params);
    with ``seconds`` the loop stops once that much op time has elapsed and at
    least ``min_ops`` ran, otherwise it runs ``ops`` to the end.

    Returns [kind, params, answer, latency_s, error] per operation."""
    out = []
    busy = 0.0
    clock = time.perf_counter
    for kind, params in ops:
        t0 = clock()
        if tracer is None:
            answer, err = guarded(wl.run, state, kind, params)
        else:
            answer, err = guarded(tracer.span, f"op.{kind}", wl.run, state, kind, params)
        dt = clock() - t0
        busy += dt
        out.append([kind, params, answer, dt, err])
        if seconds is not None and busy >= seconds and len(out) >= min_ops:
            break
    return out


def check_ops(wl, state, records):
    """Referee every answer; a raised or rejected answer becomes an error."""
    for rec in records:
        kind, params, answer, _, err = rec
        if err is not None:
            continue
        ok, cerr = guarded(wl.check, state, kind, params, answer)
        if cerr is not None:
            rec[4] = f"check raised {cerr}"
        elif not ok:
            rec[4] = "answer rejected by its referee"


def canonical(wl, state, records) -> list[str]:
    out = []
    for kind, params, answer, _, err in records:
        shown = ["error", kind, err] if err else wl.show(state, kind, params, answer)
        out.append(json.dumps(shown, sort_keys=True, default=str, separators=(",", ":")))
    return out


def digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def setup_probe(workload: str) -> float:
    """Seconds from starting a fresh interpreter on this script until it is
    ready for its first operation: interpreter start-up, the import of
    prime_scope and the workload's set-up.  The probe prints "ready" there
    and exits; its exit is not timed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line, err = guarded(proc.stdout.readline)
        elapsed = time.perf_counter() - t0
        if err is not None:
            proc.kill()
    if err is not None or line != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err or line!r}, exit {proc.returncode}")
    return elapsed


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies):
    """(value, percentile): the highest nearest-rank percentile with at least
    TAIL_SAMPLES_ABOVE samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(1, n - TAIL_SAMPLES_ABOVE)
    return xs[rank - 1], 100.0 * rank / n


def by_kind(records, failed_only=False) -> dict[str, int]:
    counts: dict[str, int] = {}
    for kind, _, _, _, err in records:
        if failed_only and err is None:
            continue
        counts[kind] = counts.get(kind, 0) + 1
    return dict(sorted(counts.items()))


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "deadline_s": DEADLINE_S,
    }


def end_to_end(wl, args):
    state = wl.setup()
    ops = wl.stream(state, args.seed)
    probes, records = [], []
    for i in range(SETUP_PROBES):
        probes.append(setup_probe(args.workload))
        last = i == SETUP_PROBES - 1
        records += run_ops(wl, state, ops, seconds=args.seconds / SETUP_PROBES,
                           min_ops=wl.digest_ops - len(records) if last else 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    check_ops(wl, state, records)
    check_s = time.perf_counter() - t0

    lat = [r[3] for r in records]
    attempted = len(records)
    failed = sum(1 for r in records if r[4] is not None)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "ops_per_s": ((attempted - failed) / sum(lat), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "digest": digest(canonical(wl, state, records[: wl.digest_ops])),
        "digest_ops": wl.digest_ops,
        "ops_by_kind": by_kind(records),
        "failed_by_kind": by_kind(records, failed_only=True),
        "failed_share": failed / attempted,
        "op_tail": {"percentile": round(tail_pct, 4), "samples": attempted,
                    "samples_above": attempted - max(1, attempted - TAIL_SAMPLES_ABOVE)},
        "setup_probes_s": probes,
        "timed_s": sum(lat),
        "check_s": check_s,
        "failures": sorted({r[4] for r in records if r[4]})[:5],
    }
    return failed == 0, attempted, failed, metrics, record


def traced(wl, args):
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        state = tracer.span("bench.setup", wl.setup)
        setup_s = time.perf_counter() - t0
        n = max(wl.digest_ops, round(wl.trace_ops_per_s * args.seconds))
        ops = list(itertools.islice(wl.stream(state, args.seed), n))
        records = run_ops(wl, state, ops, tracer=tracer)
    finally:
        tracer.uninstall()
    replay = run_ops(wl, state, ops)
    check_ops(wl, state, records)

    traced_s = sum(r[3] for r in records)
    untraced_s = sum(r[3] for r in replay)
    lines = canonical(wl, state, records)
    # the wrappers must not change a single answer
    same = lines == canonical(wl, state, replay)
    attempted = len(records)
    failed = sum(1 for r in records if r[4] is not None)

    metrics = dict(tracer.per_layer())
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "x")
    under = [e for e in tracer.edge_table() if not e[1].startswith(("op.", "bench."))]
    record = {
        "digest": digest(lines[: wl.digest_ops]),
        "digest_ops": wl.digest_ops,
        "replay_matches": same,
        "ops_by_kind": by_kind(records),
        "failed_by_kind": by_kind(records, failed_only=True),
        "failed_share": failed / attempted,
        "traced_setup_s": setup_s,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "inclusive_top": [
            {"layer": n_, "calls": c, "incl_s": round(t, 6)}
            for n_, c, t in tracer.inclusive()
            if not n_.startswith(("op.", "bench.")) and not n_.endswith(".next")
        ][:12],
        "edges_top": [
            {"parent": p, "layer": n_, "calls": c, "incl_s": round(t, 6)}
            for p, n_, c, t in under[:12]
        ],
        "failures": sorted({r[4] for r in records if r[4]})[:5],
    }
    return failed == 0 and same, attempted, failed, metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("phi-valuation", "closure-decide", "split-witness"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "prime_scope" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}/prime_scope; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS
    signal.signal(signal.SIGALRM, _alarm)

    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0
    run = traced if args.trace else end_to_end
    correct, attempted, failed, metrics, record = run(wl, args)

    record = {**environment(args), **record}
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
