#!/usr/bin/env python3
"""qpascal benchmark: three seeded workloads driven through ``cli.main``.

Usage, from the repository root:

    python3 bench/run.py --workload triangles --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, each in a fresh process

One process is one closed-loop client: the next ``cli.main(argv)`` call
is made only after the previous one returned and its output was
checked.  With ``--trace 0`` the run makes whole blocks of ops until
the ops have taken ``--seconds`` of scaled time and reports the end-to-end
metrics; with ``--trace 1`` it runs a fixed number of blocks under the
tracer of ``tracing.py`` and reports the per-layer metrics.

Op and set-up times are wall time (``time.perf_counter``), so work
that an op hands to threads or worker processes counts in full.  Each is
scaled to a reference host speed by ``calibrate``, timed just before it;
set-up times by the run's median calibration.
The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the
workloads and the definition of every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 15  # fresh processes timed for setup_s; the median is reported
# blocks run by --trace 1; fixed, so that its counts repeat exactly, and
# the same blocks whose digests and draws reference.json records
TRACE_BLOCKS = {"triangles": 4, "sampling": 6, "subspaces": 4}
CHILD_TIMEOUT = 150
# a new process already reports the peak RSS of the image it was exec'd
# from as its children's; a peak at or below it is no child of the run
CHILDREN_KB_AT_START = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}
# what items_per_s counts, under the workload's own name
ITEMS = {
    "triangles": ("cells_per_s", "cells/s"),
    "sampling": ("words_per_s", "words/s"),
    "subspaces": ("subspaces_per_s", "subspaces/s"),
}


# -------------------------------------------------------------- host speed

# calibrate() on the reference host: a 2-vCPU Intel Xeon VM, Python 3.11
CAL_REF_S = 0.012


def calibrate() -> float:
    """Wall seconds of a fixed stretch of Fraction and integer work.

    A shared host's speed drifts by tens of percent within seconds.  A
    time ``t`` measured right after a calibration that took ``c`` is
    reported as ``t * CAL_REF_S / c``: the drift cancels, and a change to
    qpascal, which this code never calls, shows in full."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1000):
        total += Fraction(1, k) * Fraction(k + 1, k + 2)
    grid = [[(i * j + 3) % 7 for j in range(40)] for i in range(40)]
    acc = 0
    for _ in range(9):
        for i in range(40):
            for j in range(40):
                acc = (acc + grid[i][j] * grid[j][i]) % 1000003
    return time.perf_counter() - start


# ---------------------------------------------------------------- metadata


def run_metadata(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def load_reference(workload: str, seed: int) -> dict:
    try:
        data = json.loads(REFERENCE.read_text())
    except OSError:
        return {}
    return data.get(workload, {}).get(str(seed), {})


# ------------------------------------------------------------------ runner


class Runner:
    """Runs ops one at a time, checks each and keeps the statistics."""

    def __init__(self, workload: str, seed: int, workdir: Path, reference=None):
        from qpascal import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = None  # a tracing.Tracer while the traced blocks run
        self.reference = reference or {}
        self.make_block, self.make_warmup = workloads.WORKLOADS[workload]
        self.ctx: dict = {}
        self.index = 0  # position in the seeded op stream
        self.latencies: list[float] = []  # scaled wall seconds of each timed op
        self.wall = 0.0  # wall seconds of the timed ops, not scaled
        self.calibrations: list[float] = []  # calibrate() before each timed op
        self.units = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.draws: list[int] = []
        self.out_bytes = 0
        self.keys_seen: set = set()
        self.repeated = 0
        self.keyed = 0
        self.blocks: list[tuple[int, int, float]] = []  # (ops, items, op time) per block

    def block(self, b: int) -> list:
        return self.make_block(self.seed, b, self.workdir)

    def warmup(self) -> None:
        for op in self.make_warmup(self.workdir):
            self.execute(op, stream=False)

    def execute(self, op, stream: bool = True) -> None:
        """Run one op; ``stream`` ops are timed, counted and digest-checked."""
        self.attempted += 1
        index = self.index
        label = "op %d" % index if stream else "warm-up op"
        if stream:
            self.index += 1
        try:
            if op.prepare is not None:
                op.prepare(self.ctx)
        except (KeyError, OSError) as exc:
            self.failures.append("%s: input not prepared: %r" % (label, exc))
            return
        tracer = self.tracer
        draws_before = tracer.draws() if tracer else 0
        if tracer:
            tracer.op = index
        calibration = calibrate() if stream else CAL_REF_S
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                rc = exc.code
            except Exception as exc:  # a crash is a failed op, not a dead run
                rc = "crash: %r" % (exc,)
            seconds = time.perf_counter() - start
        text = out.getvalue()
        if op.out is not None and op.out.exists():
            text = op.out.read_text(encoding="utf-8")
        self.out_bytes += len(text.encode())
        if op.key is not None and stream:
            self.keyed += 1
            self.repeated += op.key in self.keys_seen
            self.keys_seen.add(op.key)
        if stream:
            self.latencies.append(seconds * CAL_REF_S / calibration)
            self.calibrations.append(calibration)
            self.wall += seconds
            self.units += op.units
        try:
            if not isinstance(rc, int):
                raise checks.CheckFailed(str(rc))
            value = checks.verify(op, rc, text, self.ctx)
        except checks.CheckFailed as exc:
            self.failures.append("%s (%s): %s" % (label, op.describe(), exc))
            return
        if not stream:
            return
        self.digests.append(value)
        draws = tracer.draws() - draws_before if tracer else None
        self.draws.append(draws)
        ref_digests = self.reference.get("digests", [])
        ref_draws = self.reference.get("draws", [])
        if index < len(ref_digests) and ref_digests[index] != value:
            self.failures.append("op %d (%s): contract digest %s, reference %s"
                                 % (index, op.describe(), value, ref_digests[index]))
        elif draws is not None and index < len(ref_draws) and ref_draws[index] != draws:
            self.failures.append("op %d (%s): %d draws, reference %d"
                                 % (index, op.describe(), draws, ref_draws[index]))

    def run_blocks(self, blocks: int | None = None, seconds: float | None = None,
                   between=None) -> int:
        """Run whole blocks: a fixed number, or until the ops have taken
        ``seconds`` of scaled time.

        Scaled time makes the number of blocks, and so the op mix, the
        same on a slow and on a fast moment of the host.  A host slower
        than two thirds of the reference speed stops the run at 1.5 times
        ``seconds`` of op wall time instead, to bound its length.  ``between(scaled)`` is called before
        each block with the scaled op time so far.
        """
        b = 0
        scaled = 0.0
        while (blocks is not None and b < blocks) or (
            seconds is not None and scaled < seconds and self.wall < 1.5 * seconds
        ):
            if between is not None:
                between(scaled)
            self.ctx.clear()  # read-back ops only need this block's triangles
            ops, units = len(self.latencies), self.units
            for op in self.block(b):
                self.execute(op)
            busy = sum(self.latencies[ops:])
            scaled += busy
            self.blocks.append((len(self.latencies) - ops, self.units - units, busy))
            b += 1
        return b

    def block_rates(self) -> dict:
        """Median over blocks of each block's rates.  Blocks hold the same
        mix, and the median drops the blocks that a busy moment of the
        machine slowed down."""
        return {
            "ops_per_s": statistics.median(n / t for n, _, t in self.blocks),
            "items_per_s": statistics.median(u / t for _, u, t in self.blocks),
        }


def new_workdir() -> Path:
    path = WORK / ("run-%d" % os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):  # another run may still use it
        WORK.rmdir()


# ------------------------------------------------------------------ phases


def phase_setup(args) -> int:
    """Child: import, generate the first block's inputs, warm up, say ready."""
    workdir = new_workdir()
    try:
        runner = Runner(args.workload, args.seed, workdir)
        runner.block(0)
        runner.warmup()
        print("ready", flush=True)
    finally:
        remove_workdir(workdir)
    return 0


def phase_setup_timer(args) -> int:
    """Child: for each line read, time one fresh set-up process.

    The set-up processes are children of this process, not of the timed
    run, so the run's RUSAGE_CHILDREN holds only processes its ops started."""
    for _ in sys.stdin:
        print("%.9f" % time_setup(args), flush=True)
    return 0


def phase_fixed(args) -> int:
    """Child: the traced run's blocks without tracing, for the overhead ratio."""
    workdir = new_workdir()
    try:
        runner = Runner(args.workload, args.seed, workdir)
        runner.warmup()
        runner.run_blocks(blocks=args.blocks)
        print(json.dumps(runner.block_rates()), flush=True)
    finally:
        remove_workdir(workdir)
    return 0


def child(args, phase: str, *extra: str, stdin=None) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    return subprocess.Popen(cmd, cwd=ROOT, stdin=stdin, stdout=subprocess.PIPE, text=True)


def stop(proc: subprocess.Popen) -> None:
    """Close the pipes of a child and wait for it; kill it if it hangs."""
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()
    try:
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def time_setup(args) -> float:
    """Wall seconds from starting a fresh process to its first timed op.

    The child's warm-up ops are the ones the timed run makes and checks."""
    start = time.perf_counter()
    proc = child(args, "setup")
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
    finally:
        stop(proc)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("setup process failed (exit %s)" % proc.returncode)
    return seconds


def measure_setup(timer: subprocess.Popen) -> float:
    """One set-up time, from the ``setup-timer`` child."""
    timer.stdin.write("\n")
    timer.stdin.flush()
    line = timer.stdout.readline()
    if not line:
        raise RuntimeError("setup timer failed (exit %s)" % timer.poll())
    return float(line)


def untraced_rate(args, blocks: int) -> dict:
    proc = child(args, "fixed", "--blocks", str(blocks))
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("untraced run failed (exit %s)" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def phase_timed(args) -> dict:
    setup: list[float] = []

    def sample_setup(scaled: float) -> None:
        # spread the samples over the run, so a slow moment of the
        # machine sways one of them rather than all
        while len(setup) < SETUP_SAMPLES and scaled >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(measure_setup(timer))

    workdir = new_workdir()
    timer = child(args, "setup-timer", stdin=subprocess.PIPE)
    try:
        runner = Runner(args.workload, args.seed, workdir,
                        reference=load_reference(args.workload, args.seed))
        runner.warmup()
        blocks = runner.run_blocks(seconds=args.seconds, between=sample_setup)
        sample_setup(float("inf"))
        # read before the timer is waited for: the children counted are
        # the ones the ops started, of which the largest is reported
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if children_kb <= CHILDREN_KB_AT_START:
            children_kb = 0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kb
    finally:
        stop(timer)
        remove_workdir(workdir)
    lat = runner.latencies
    rates = runner.block_rates()
    metrics = {
        # a set-up sample is too short for a calibration of its own: the
        # run's median calibration scales the median sample
        "setup_s": statistics.median(setup) * CAL_REF_S / statistics.median(runner.calibrations),
        "ops_per_s": rates["ops_per_s"],
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * percentile(lat, 90),
        "items_per_s": rates["items_per_s"],
        "peak_rss_mb": peak_kb / 1024,
    }
    item, item_unit = ITEMS[args.workload]
    named = {item: (rates["items_per_s"], item_unit),
             "calibration_ms": (1000 * statistics.median(runner.calibrations), "ms")}
    if args.workload == "triangles":
        named["repeated_q_depth_share"] = (runner.repeated / runner.keyed, "ratio")
    info = {
        "ops": len(lat),
        "ops_beyond_p90": sum(x > metrics["op_p90_ms"] / 1000 for x in lat),
        "blocks": blocks,
        "op_wall_s": runner.wall,
        "op_scaled_s": sum(lat),
        "setup_wall_s": setup,
        "digests_checked": min(len(runner.digests), len(runner.reference.get("digests", []))),
    }
    return {"runner": runner, "metrics": metrics, "named": named, "info": info}


def phase_traced(args, record: bool = False) -> dict:
    import tracing

    blocks = TRACE_BLOCKS[args.workload]
    untraced = None if record else untraced_rate(args, blocks)
    workdir = new_workdir()
    tracer = tracing.Tracer()
    try:
        runner = Runner(args.workload, args.seed, workdir,
                        reference=None if record else load_reference(args.workload, args.seed))
        runner.warmup()
        runner.tracer = tracer
        tracer.install()
        try:
            runner.run_blocks(blocks=blocks)
        finally:
            tracer.uninstall()
    finally:
        remove_workdir(workdir)
    traced = runner.block_rates()["ops_per_s"]
    overhead = untraced["ops_per_s"] / traced if untraced else None
    metrics = tracing.layer_metrics(tracer, runner.out_bytes, overhead)
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-%d.tsv" % (args.workload, args.seed))
    tracer.write_spans(spans)
    named = {
        "root_s": (sum(s[3] - s[2] for s in tracer.roots()), "s"),
        "untraced_ops_per_s": (untraced["ops_per_s"] if untraced else 0.0, "ops/s"),
        "traced_ops_per_s": (traced, "ops/s"),
    }
    info = {
        "ops": len(runner.latencies),
        "blocks": blocks,
        "spans": len(tracer.spans),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return {"runner": runner, "metrics": metrics, "named": named, "info": info}


def record_reference(args) -> None:
    result = phase_traced(args, record=True)
    runner = result["runner"]
    if runner.failures:
        raise RuntimeError("not recording a failing run: %s" % runner.failures[0])
    try:
        data = json.loads(REFERENCE.read_text())
    except OSError:
        data = {}
    data.setdefault(args.workload, {})[str(args.seed)] = {
        "digests": runner.digests,
        "draws": runner.draws,
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("recorded %d ops of %s seed %d" % (len(runner.digests), args.workload, args.seed))


# ------------------------------------------------------------------ output


def report(args, result: dict, units: dict) -> None:
    runner = result["runner"]
    failed = len(runner.failures)
    print("# qpascal benchmark: workload=%s seed=%d trace=%d, closed loop, one client"
          % (args.workload, args.seed, args.trace))
    print("# meta " + json.dumps(run_metadata(args.seed)))
    named = {name: (value, units[name]) for name, value in result["metrics"].items()}
    named.update(result["named"])
    named["error_rate"] = (failed / runner.attempted, "ratio")
    for name, (value, unit) in named.items():
        print("%-38s %16.6f %s" % (name, value, unit))
    print("# info " + json.dumps(result["info"]))
    for line in runner.failures[:20]:
        print("# FAILED " + line)
    summary = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(summary))


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric of each."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, timeout=2 * CHILD_TIMEOUT, check=False)
        status = status or proc.returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record digests and draws of the traced blocks for this seed")
    # internal: child processes of a run
    parser.add_argument("--phase", choices=("setup", "setup-timer", "fixed"), help=argparse.SUPPRESS)
    parser.add_argument("--blocks", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpascal" / "__init__.py").is_file():
        print("bench: no qpascal sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.phase == "setup":
        return phase_setup(args)
    if args.phase == "setup-timer":
        return phase_setup_timer(args)
    if args.phase == "fixed":
        return phase_fixed(args)
    if args.record_reference:
        record_reference(args)
        return 0
    if args.trace:
        import tracing

        report(args, phase_traced(args), tracing.PER_LAYER_UNITS)
    else:
        report(args, phase_timed(args), END_TO_END_UNITS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
