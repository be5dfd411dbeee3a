#!/usr/bin/env python3
"""The repository benchmark: cold end-to-end pipeline operations.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_micro --seed 7 \\
        --seconds 20 --trace 0

Each operation runs one scenario cell end to end, cold, in a process
forked after imports (so no trace cache, calibration memo or replay
cache is warm), and checks its simulated outputs.  Operations repeat
until ``--seconds`` have passed.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations and
reports the per-layer stage ledger instead (see README.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent

#: Knobs that would silently change what is measured, with the reason.
#: Any value other than an "off" spelling refuses the run.
GUARDED_ENV = {
    "REPRO_EVENTS": "event tracing makes the fast engine step aside",
    "REPRO_METRICS": "metrics harvesting adds work to every replay",
    "REPRO_TRACE_CACHE": "disk cache hits skip trace generation",
    "REPRO_SMOKE": "smoke mode shrinks the workloads",
    "REPRO_OPS": "operation scaling changes the workloads",
    "REPRO_PROFILE": "profiling adds cost to every replay",
}
_OFF = ("", "0", "off", "no", "none", "false", "disabled")

#: Setup probes per run; setup_s is their median.
SETUP_PROBES = 5
#: Seconds one operation may take before it is killed and counted failed.
OP_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"events_per_s": "1/s", "op_s": "s", "cpu_s": "s",
                    "peak_rss_mib": "MiB", "setup_s": "s"}


def guard_environment() -> str:
    """Why the environment may not be measured ("" when it may)."""
    problems = []
    for name, reason in GUARDED_ENV.items():
        if os.environ.get(name, "").strip().lower() not in _OFF:
            problems.append(f"{name}={os.environ[name]!r}: {reason}")
    if os.environ.get("REPRO_FAST", "1").strip() == "0":
        problems.append("REPRO_FAST=0: the fast replay engine is off")
    return "; ".join(problems)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long run for the self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- provenance ----------------------------------------------------------------------

def _git(*args) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=20, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest() -> str:
    """SHA-256 over the package sources (identifies a non-git checkout)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int) -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = _git("rev-parse", "HEAD").strip() if (ROOT / ".git").exists() \
        else ""
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no")
                 .strip()) if sha else None
    return {
        "git_sha": sha or None, "git_dirty": dirty,
        "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "workload": workload.name, "seed": seed,
        "repro_jobs": workload.jobs,
    }


# -- one operation in a forked process -------------------------------------------------

def _usage():
    import resource
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def run_operation(workload, specs, runner, *, seed: int, tiny: bool,
                  traced: bool) -> dict:
    """Body of the forked operation process; returns its JSON report."""
    import workloads as wl
    from ledger import Ledger, ReplayTally, capture_marks
    ledger = Ledger() if traced else None
    tally = ReplayTally(
        (lambda: ledger.top_layer() == "executor") if traced else
        (lambda: False))
    tally.install()
    marks = []
    capture_marks(marks)
    if traced:
        ledger.install()
    cpu0, _ = _usage()
    start = time.perf_counter()
    outputs = workload.run(runner, specs)
    op_s = time.perf_counter() - start
    cpu1, rss = _usage()
    counts = tally.collect()
    errors = wl.check(workload, specs, outputs, marks)
    if counts["fallbacks"]:
        errors.append(f"{counts['fallbacks']} replays fell back to the "
                      f"reference interpreter")
    digest = wl.digest(workload, outputs)
    if seed == wl.DEFAULT_SEED and not tiny:
        recorded = json.loads((HERE / "digests.json").read_text())
        error = wl.digest_error(workload.name, digest, recorded)
        if error:
            errors.append(error)
    report = {"op_s": op_s, "cpu_s": cpu1 - cpu0, "peak_rss_mib": rss,
              "events": counts["events"], "replays": counts["replays"],
              "digest": digest, "errors": errors}
    if traced:
        import stages
        report["layers"] = stages.layer_metrics(
            workload, ledger, counts, op_s, outputs)
    return report


def fork_operation(workload, specs, runner, *, seed: int, tiny: bool,
                   traced: bool) -> dict:
    """Run one operation in a child forked from this (imported) process."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: its own process group, so a timeout kills all
        os.close(read_fd)
        os.setpgid(0, 0)
        try:
            report = run_operation(workload, specs, runner, seed=seed,
                                   tiny=tiny, traced=traced)
        except BaseException:
            report = {"errors": [traceback.format_exc()]}
        payload = json.dumps(report).encode()
        with os.fdopen(write_fd, "wb") as out:
            out.write(payload)
        os._exit(0)
    os.close(write_fd)
    try:  # also here, so a kill cannot race the child's own setpgid
        os.setpgid(pid, pid)
    except OSError:
        pass
    payload = None
    try:
        payload = _read_until(read_fd, time.monotonic() + OP_TIMEOUT_S)
    finally:
        if payload is None:  # timed out, or this process is stopping
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, status = os.waitpid(pid, 0)
    if payload is None:
        return {"errors": [f"operation exceeded {OP_TIMEOUT_S:.0f} s"]}
    if status != 0 or not payload:
        return {"errors": [f"operation process ended with status {status}"]}
    return json.loads(payload)


def _read_until(fd: int, deadline: float):
    """Everything written to ``fd`` until EOF, or ``None`` past deadline."""
    chunks = []
    with os.fdopen(fd, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([pipe], [], [], max(0.0, left))
            if not ready:
                return None
            chunk = os.read(pipe.fileno(), 1 << 20)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


# -- set-up time ---------------------------------------------------------------------------

def setup_probe(args) -> None:
    """Process start + imports + harness set-up, then exit (timed by caller)."""
    import workloads as wl
    workload = wl.WORKLOADS[args.workload]
    wl.make_runner()
    workload.specs(args.seed, args.size == "tiny")


def measure_setup(args) -> list:
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # A plain blocking wait: with a timeout, Popen.wait polls in
        # 50 ms steps and the samples come out quantized.
        with subprocess.Popen(command, cwd=ROOT,
                              stdout=subprocess.DEVNULL) as probe:
            status = probe.wait()
        samples.append(time.perf_counter() - start)
        if status != 0:
            raise RuntimeError(f"setup probe ended with status {status}")
    return samples


# -- aggregation ---------------------------------------------------------------------------

def spread(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def main(argv=None) -> int:
    args = parse_args(argv)
    # A stop request unwinds normally, so the running operation's
    # process group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package sources at {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    refusal = guard_environment()
    if refusal:
        print(f"error: refusing to measure: {refusal}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stages
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    # The disk layer is off and the pool width is the workload's own.
    os.environ["REPRO_TRACE_CACHE"] = "0"
    os.environ["REPRO_JOBS"] = str(workload.jobs)
    if args.setup_probe:
        setup_probe(args)
        return 0

    tiny = args.size == "tiny"
    prov = provenance(workload, args.seed)
    setup_samples = measure_setup(args)
    runner = wl.make_runner()
    specs = workload.specs(args.seed, tiny)

    # Operations repeat while another one is expected to end in time,
    # so a run lasts about --seconds whatever the operation size.
    plain, traced, rounds = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        plain.append(fork_operation(workload, specs, runner, seed=args.seed,
                                    tiny=tiny, traced=False))
        if args.trace:
            traced.append(fork_operation(workload, specs, runner,
                                         seed=args.seed, tiny=tiny,
                                         traced=True))
        rounds.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            break

    runs = plain + traced
    failures = [r for r in runs if r["errors"]]
    good = [r for r in plain if not r["errors"]]
    for r in failures:
        for error in r["errors"]:
            print(f"FAIL: {error}", file=sys.stderr)
    digests = sorted({r["digest"] for r in runs if "digest" in r})

    samples = {
        "events_per_s": [r["events"] / r["op_s"] for r in good],
        "op_s": [r["op_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "peak_rss_mib": [r["peak_rss_mib"] for r in good],
        "setup_s": setup_samples,
    }
    summary = {name: spread(values) for name, values in samples.items()
               if values}
    summary["fail_ratio"] = {"median": len(failures) / len(runs),
                             "n": len(runs)}

    if args.trace:
        metrics = stages.aggregate(
            [r["layers"] for r in traced if not r["errors"]],
            [r["op_s"] for r in good],
            [r["op_s"] for r in traced if not r["errors"]])
    else:
        metrics = {name: {"value": summary[name]["median"]
                          if name in summary else 0.0, "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print(f"perfbench {workload.name} seed={args.seed} size={args.size} "
          f"REPRO_JOBS={workload.jobs} trace={args.trace}")
    for name, row in summary.items():
        if "q1" in row:
            print(f"  {name:14s} median {row['median']:.6g}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n={row['n']}")
        else:
            print(f"  {name:14s} {row['median']:.6g}  n={row['n']}")
    print("report " + json.dumps({"provenance": prov, "summary": summary,
                                  "op_s_samples": [r.get("op_s")
                                                   for r in plain],
                                  "digests": digests}, sort_keys=True))
    print(json.dumps({"correct": not failures and len(good) > 0,
                      "attempted": len(runs), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
