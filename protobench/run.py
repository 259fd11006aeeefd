"""Protocol-path benchmark for tracecloak.

    python3 protobench/run.py --workload sim --seed 1 --seconds 10 --trace 0
    python3 protobench/run.py --workload all          # every workload, in turn

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` a run sets up the workload several times (set-up time is
the median), then repeats one fixed round of work in a closed loop until
`--seconds` have passed, and reports the end-to-end metrics.  With
`--trace 1` it runs one round twice, untraced and then traced, and reports
the per-layer metrics and the tracing overhead.  Either way, the
correctness gate runs before any number is printed; a run that fails it
prints `"correct": false`, no metrics, and exits with code 1.  The last
line of stdout is the JSON result; the full record, with provenance and
wall-clock figures, goes to `protobench/out/`.

End-to-end times are CPU time of the benchmark process, which holds both
client and server: thread CPU time where one thread does all the work
(`sim`, `row3_mixed`, set-up), process CPU time where server threads work
for the client (`tcp_row1`).  On a virtual machine shared with other
guests, wall time also counts the time the hypervisor runs someone else
(steal), and CPU time drifts with what the other guests do, so every time
is corrected for the host's speed by interleaving the work with a fixed
reference (see `meter.py`).  The record keeps the uncorrected CPU time, the
wall figures, the host's slowdown and the steal share of each run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_package():
    if not (SRC / "tracecloak" / "__init__.py").is_file():
        sys.exit(f"error: no tracecloak package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import tracecloak

    if Path(tracecloak.__file__).resolve().parent != SRC / "tracecloak":
        sys.exit(f"error: imported tracecloak from {tracecloak.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# metrics

# Printed and kept in the record, but not in the result: on a shared host
# their spread between runs of the same code reached 0.10-0.14 of their
# median where the p50s stayed near 0.03-0.05, too wide for a bound.
TAILS = ("query_cpu_p99_ms", "report_cpu_p99_us")


def end_to_end(setup_s: list[float], run) -> tuple[dict, dict]:
    """End-to-end metrics and the sample count behind each."""
    query = np.frombuffer(run.query_ns)
    report = np.frombuffer(run.report_ns)
    values = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "reports_per_cpu_s": (run.attempted / run.scaled_s, "1/s", run.attempted),
        "query_cpu_p50_ms": (np.percentile(query, 50) / 1e6, "ms", len(query)),
        "query_cpu_p99_ms": (np.percentile(query, 99) / 1e6, "ms", len(query)),
        "report_cpu_p50_us": (np.percentile(report, 50) / 1e3, "us", len(report)),
        "report_cpu_p99_us": (np.percentile(report, 99) / 1e3, "us", len(report)),
        "peak_rss_mb": (run.peak_rss_mb, "MB", 1),
    }
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u, _) in values.items()}
    samples = {k: n for k, (_, _, n) in values.items()}
    return metrics, samples


def per_layer(tracer, untraced_s: float, traced_s: float) -> dict:
    t, c = tracer, tracer.counts
    queries = c["queries"]
    sent = t.calls["tracing.transport.send"] + t.calls["tracing.tcp.round_trip"]
    values = {
        "encoder.encode.s": (t.seconds("encoder.encode"), "s"),
        "encoder.encode.calls": (t.calls["encoder.encode"], "count"),
        "encoder.inflate.s": (t.seconds("encoder.inflate"), "s"),
        "encoder.basic_encode.s": (t.seconds("encoder.basic_encode"), "s"),
        "encoder.sort_code.s": (t.seconds("encoder.sort_code"), "s"),
        "encoder.corrupt.s": (t.seconds("encoder.corrupt"), "s"),
        "numtheory.eval_poly.s": (t.seconds("numtheory.eval_poly"), "s"),
        "numtheory.to_digits.s": (t.seconds("numtheory.to_digits"), "s"),
        "matcher.add.s": (t.seconds("matcher.add"), "s"),
        "matcher.add.calls": (t.calls["matcher.add"], "count"),
        "matcher.query.s": (t.seconds("matcher.query"), "s"),
        "matcher.verify.s": (t.seconds("matcher.hamming"), "s"),
        "matcher.candidates_per_query": (c["candidates"] / max(queries, 1), "count"),
        "matcher.selectivity": (t.selectivity_sum / max(queries, 1), "ratio"),
        "matcher.precision": (c["hits"] / max(c["candidates"], 1), "ratio"),
        "matcher.store_size": (c["store_size"], "count"),
        "tracing.format_message.s": (t.seconds("tracing.format_message"), "s"),
        "tracing.parse_message.s": (t.seconds("tracing.parse_message"), "s"),
        "tracing.wire_bytes_per_report": (c["wire_bytes"] / max(sent, 1), "bytes"),
        "tracing.handle.uninfected.s": (t.seconds("tracing.handle.uninfected"), "s"),
        "tracing.handle.infected.s": (t.seconds("tracing.handle.infected"), "s"),
        "tracing.alerts": (c["alerts"], "count"),
        "tracing.dedupe_suppressed": (c["dedupe_suppressed"], "count"),
        "tracing.self_hits_skipped": (c["self_hits_skipped"], "count"),
        "tracing.client_tick.s": (t.seconds("tracing.client_tick"), "s"),
        "tracing.client_handle_alert.s": (t.seconds("tracing.client_handle_alert"), "s"),
        "tracing.sim_other.s": (t.seconds("tracing.run_simulation"), "s"),
        "tracing.tcp.round_trip.s": (t.seconds("tracing.tcp.round_trip"), "s"),
        "tracing.tcp.overhead.s": (
            (t.total_ns["tracing.tcp.round_trip"] - t.tcp_handle_ns) / 1e9,
            "s",
        ),
        "tracing.tcp.connections": (t.calls["tracing.tcp.round_trip"], "count"),
        "trace.overhead": (traced_s / untraced_s - 1, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # e.g. an exported source tree
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def code_digest() -> str:
    """Hash of the package and benchmark sources: counts are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    from tracecloak import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "code_sha256": code_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernels_backend": kernels.backend(),
        "loadavg_start": os.getloadavg(),
        "cpu_ticks_start": _cpu_ticks(),
    }


def _cpu_ticks() -> dict:
    """Machine-wide CPU time split from /proc/stat; the steal share shows how
    much of the wall time the hypervisor gave to other guests."""
    fields = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    try:
        with open("/proc/stat") as fh:
            values = fh.readline().split()[1:9]
    except OSError:
        return {}
    return dict(zip(fields, map(int, values)))


# ---------------------------------------------------------------------------
# one run


def _setup(workload, seed: int, tracer=None):
    """Set up once; returns the state, the corrected and the measured CPU
    seconds it took, and its wall seconds."""
    from meter import Meter

    gc.collect()
    meter = Meter()
    t0 = perf_counter()
    meter.start()
    state = workload.setup(seed, meter.tick, tracer)
    meter.stop()
    return state, meter.scaled_ns / 1e9, meter.raw_ns / 1e9, perf_counter() - t0


def measure(workload, args, record: dict) -> dict:
    """--trace 0: set up several times, then the timed rounds."""
    from gate import GateError
    from workloads import MIN_SAMPLES

    setup_s, setup_cpu_s, setup_wall_s, digests = [], [], [], set()
    for _ in range(workload.setup_repeats):
        state = None  # free the previous set-up before the next
        state, scaled_s, cpu_s, wall_s = _setup(workload, args.seed)
        setup_s.append(scaled_s)
        setup_cpu_s.append(cpu_s)
        setup_wall_s.append(wall_s)
        digests.add(state["input_digest"])
    if len(digests) != 1:
        raise GateError([f"inputs differ between set-ups of one seed: {sorted(digests)}"])
    gc.collect()
    run = workload.run(state, args.seconds)
    if min(len(run.query_ns), len(run.report_ns)) < MIN_SAMPLES:
        sys.exit(f"error: fewer than {MIN_SAMPLES} samples for a percentile")
    metrics, samples = end_to_end(setup_s, run)
    tails = {k: metrics.pop(k) for k in TAILS}
    record.update(
        setup_s_each=setup_s,
        setup_cpu_s_each=setup_cpu_s,
        setup_wall_s_each=setup_wall_s,
        samples=samples,
        tails=tails,
        rounds=run.rounds,
        loop_wall_s=run.wall_s,
        loop_cpu_s=run.cpu_s,
        loop_corrected_s=run.scaled_s,
        slowdowns=run.slowdowns,
        reports_per_wall_s=run.attempted / run.wall_s,
        input_digest=state["input_digest"],
        alert_digest=run.alert_digest,
        counts=run.counts,
        first_error=run.first_error,
    )
    errors = workload.check(state, run)
    if errors:
        raise GateError(errors)
    return record | {"attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def measure_traced(workload, args, record: dict) -> dict:
    """--trace 1: one round untraced, then traced."""
    from gate import GateError
    from spans import Tracer

    state, setup_s, _, _ = _setup(workload, args.seed)
    plain = workload.run(state, args.seconds, fixed=True)
    untraced_s = setup_s + plain.scaled_s
    errors = workload.check(state, plain)

    tracer = Tracer()
    with tracer.installed():
        state, setup_s, _, _ = _setup(workload, args.seed, tracer)
        run = workload.run(state, args.seconds, tracer, fixed=True)
    traced_s = setup_s + run.scaled_s
    errors += workload.check(state, run)
    tracer.counts["store_size"] = run.counts["store_size"]
    tracer.write(OUT / f"spans-{workload.name}.npz")

    counts = {k: tracer.counts[k] for k in sorted(tracer.counts)}
    counts |= {"connections": tracer.calls["tracing.tcp.round_trip"]}
    # the meter's references follow the clock, so their count is not exact
    counts |= {
        f"calls.{k}": v for k, v in sorted(tracer.calls.items()) if k != "meter.reference"
    }
    exact = {"input_digest": state["input_digest"], "alert_digest": run.alert_digest}
    exact |= run.counts
    untraced = {"input_digest": state["input_digest"], "alert_digest": plain.alert_digest}
    untraced |= plain.counts
    if exact != untraced:
        errors.append(f"traced pass differs from the untraced one: {exact} vs {untraced}")
    errors += _check_repeat(workload.name, args.seed, record["code_sha256"], exact | counts)
    record.update(
        untraced_cpu_s=untraced_s,
        traced_cpu_s=traced_s,
        input_digest=state["input_digest"],
        alert_digest=run.alert_digest,
        counts=exact | counts,
        spans=len(tracer.span_name),
    )
    if errors:
        raise GateError(errors)
    metrics = per_layer(tracer, untraced_s, traced_s)
    return record | {"attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def _check_repeat(name: str, seed: int, code: str, counts: dict) -> list[str]:
    """Exact counts must repeat across traced runs of one seed and one code."""
    path = OUT / f"counts-{name}-seed{seed}.json"
    errors = []
    if path.exists():
        before = json.loads(path.read_text())
        if before["code_sha256"] == code and before["counts"] != counts:
            diff = {
                k: (before["counts"].get(k), v)
                for k, v in counts.items()
                if before["counts"].get(k) != v
            }
            errors.append(f"counts differ from an earlier run of this seed: {diff}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code_sha256": code, "counts": counts}, indent=1))
    return errors


def run_one(args) -> int:
    from gate import GateError
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    record = provenance(args)
    # One CPU for the whole process: its threads share one interpreter lock
    # anyway, and on two vCPUs of a busy host the CPU time of a tcp_row1
    # report (connection set-up, a thread per connection) swung between
    # runs from 1.1 to 3.9 ms at p99, against 0.7 to 1.0 ms pinned.
    record["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["pinned_cpu"]})
    try:
        record = (measure_traced if args.trace else measure)(workload, args, record)
        correct = True
    except GateError as exc:
        for line in exc.errors[:20]:
            print(f"gate: {line}", file=sys.stderr)
        record.update(attempted=0, failed=0, metrics={}, gate_errors=exc.errors)
        correct = False
    record["loadavg_end"] = os.getloadavg()
    start, end = record.pop("cpu_ticks_start"), _cpu_ticks()
    if start and end:
        spent = sum(end.values()) - sum(start.values())
        record["steal_share"] = (end["steal"] - start["steal"]) / max(spent, 1)
    record["correct"] = correct
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    if correct:
        samples = record.get("samples", {})
        for name, m in (record["metrics"] | record.get("tails", {})).items():
            n = f"  (n={samples[name]})" if name in samples else ""
            n += "  (record only)" if name in TAILS else ""
            print(f"{args.workload:>10}  {name:<32} {m['value']:>14.6g} {m['unit']}{n}")
        print(json.dumps({k: record[k] for k in record if k not in ("metrics",)}, default=str))
    result = {
        "correct": correct,
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sim", "row3_mixed", "tcp_row1", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    _import_package()
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in ("sim", "row3_mixed", "tcp_row1"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
