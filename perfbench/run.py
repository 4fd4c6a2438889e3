"""ctxkit benchmark: one workload per run, a closed loop with a single client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ctxkit from ``src/`` and
starts every child with ``PYTHONPATH=src``.  The client runs one op at a
time and checks every op's output.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run.  The last
line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds diagnostics, among them the
calibration loop timed at the start and the end of the run.  README.md
in this directory describes the workloads and the metrics.

Every end-to-end time is scaled to a reference core speed: the loop of
``spin`` is timed on the op's CPU right before and right after the op,
and the op's time is multiplied by ``CAL_REF_S`` over the mean of the two
readings.  The cores of a shared host change speed by up to 2x within
seconds; the scaling keeps that out of the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from scenarios import EXPECTED, box_rays, generate
from tracing import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RUN_LIMIT_S = 170  # every child still running then is killed; a run must end within 180 s
SETUP_SAMPLES = 15  # set-up samples a run aims for, one at the start and the rest spread over the run
REPROBE_S = 0.5  # the CPU choice is renewed at most this often
PROBE_LOOPS = 400  # about 4 ms per CPU
CAL_LOOPS = 2_000  # one speed reading before and one after each timed step
CAL_REF_S = 0.012  # seconds of spin(CAL_LOOPS) on a fast, idle core of a 2.0 GHz Xeon VM: the reference speed
CALIBRATION_LOOPS = 30_000  # the diagnostic loop at the start and the end of a run
PINNED = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))

# The twelve (state, witness) paradoxes of yu-oh.
PARADOXES = tuple(
    (state, witness)
    for state, witnesses in (
        ("1,1,1", "vA vB vC"),
        ("-1,1,1", "vB vC vD"),
        ("1,-1,1", "vA vC vD"),
        ("1,1,-1", "vA vB vD"),
    )
    for witness in witnesses.split()
)

# Per-layer metrics: self time in seconds per traced pass, and counts per pass.
LAYER_TIMES = (
    "scenario.load", "scenario.contexts", "assignments.enumerate",
    "contextuality.pure_search", "exact.nullspace", "contextuality.mixed",
    "contextuality.model", "contextuality.verdict", "contextuality.oracle",
    "exact.validate_density", "hardy.derive", "hardy.observable", "hardy.verify",
    "hardy.crosscheck", "sampling.simulate", "report.render", "cli.startup", "cli.run",
)
LAYER_COUNTS = (
    "scenario.edges", "scenario.contexts", "assignments.count", "exact.nullspace_calls",
    "contextuality.states_found", "contextuality.mixed_triples", "exact.rank_calls",
    "contextuality.born_calls", "contextuality.disagreements", "hardy.paradoxes",
    "hardy.observables", "sampling.shots", "report.bytes",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spin(loops: int) -> float:
    """Seconds for a fixed pure-Python loop: a reading of the current core's speed.

    The loop does the kind of work ctxkit does (interpreted code, small
    exact fractions, short-lived objects, dict updates) and calls nothing
    of ctxkit, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    seen: dict = {}
    for i in range(1, loops + 1):
        f = Fraction(i, i + 7) * Fraction(3, i % 13 + 1) + Fraction(1, i % 11 + 2)
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + f.denominator % 1000
    return time.perf_counter() - start


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` timed between two readings of spin(CAL_LOOPS), scaled to the reference speed."""
    return seconds * 2 * CAL_REF_S / (before + after)


class Placement:
    """Chooses the CPU for the next op: the one where a short loop runs fastest now.

    On a shared host each core can slow down by up to 1.8x for tens of
    seconds, mostly independently of the other cores.  Without this
    choice, runs differ mainly by which core their ops happened to land on.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu, self.probed, self.counts = self.cpus[0], -math.inf, Counter()
        self.readings: list[float] = []

    def choose(self) -> int:
        if time.perf_counter() - self.probed >= REPROBE_S:
            timings = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                timings.append((spin(PROBE_LOOPS), cpu))
            os.sched_setaffinity(0, self.cpus)
            self.cpu, self.probed = min(timings)[1], time.perf_counter()
        self.counts[self.cpu] += 1
        return self.cpu

    def reading(self, cpu: int) -> float:
        """spin(CAL_LOOPS) timed on ``cpu``; the child placed there waits meanwhile."""
        os.sched_setaffinity(0, {cpu})
        try:
            self.readings.append(spin(CAL_LOOPS))
        finally:
            os.sched_setaffinity(0, self.cpus)
        return self.readings[-1]


class Children:
    """Every process the benchmark starts; all are killed at the run limit."""

    def __init__(self, errlog):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.errlog = errlog
        self.placement = Placement()
        self.live: set[subprocess.Popen] = set()
        self.expired = False
        self._timer = threading.Timer(RUN_LIMIT_S, self._expire)
        self._timer.daemon = True
        self._timer.start()

    def spawn(self, argv: list[str], stdin=None, cpu: int | None = None) -> subprocess.Popen:
        """Start a child on ``cpu``, or on the CPU chosen now."""
        cpu = self.placement.choose() if cpu is None else cpu
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=self.env,
            stdin=stdin, stdout=subprocess.PIPE, stderr=self.errlog,
        )
        self.live.add(proc)
        self._pin(proc, cpu)
        return proc

    def place(self, proc: subprocess.Popen, cpu: int | None = None):
        """Move a long-lived child to ``cpu``, or to the CPU chosen for its next op."""
        self._pin(proc, self.placement.choose() if cpu is None else cpu)

    @staticmethod
    def _pin(proc: subprocess.Popen, cpu: int):
        try:
            os.sched_setaffinity(proc.pid, {cpu})
        except ProcessLookupError:  # it already ended; its reader sees that
            pass

    def reap(self, proc: subprocess.Popen) -> tuple[int, int]:
        """Wait for ``proc``; returns its exit status and peak RSS in KiB."""
        if proc.stdin:
            proc.stdin.close()
        proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.discard(proc)
        return proc.returncode, usage.ru_maxrss

    def _expire(self):
        self.expired = True
        self._kill_all()

    def _kill_all(self):
        for proc in list(self.live):
            proc.kill()

    def close(self):
        self._timer.cancel()
        self._kill_all()
        for proc in list(self.live):
            self.reap(proc)


class Tally:
    """Op outcomes of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.known_defect = 0
        self.reasons: Counter = Counter()
        self.rss_kb = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, latency: float, reason: str | None, known: bool = False):
        self.latencies.append(latency)
        if reason is not None:
            self.failed += 1
            self.known_defect += known
            self.reasons[reason] += 1


def read_spans(path: Path, times: Counter, counts: Counter) -> list:
    data = json.loads(path.read_text(encoding="utf-8"))
    times.update(self_times(data["spans"]))
    counts.update(data["counters"])
    return data["spans"]


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports ctxkit, loads the workload's scenarios
# and enumerates their contexts and assignments
# ---------------------------------------------------------------------------

class Session:
    """A ``worker.py session`` child: set up, then one state check per ``ask``."""

    def __init__(self, children: Children, paths: list[Path], trace_file: Path | None = None, cpu: int | None = None):
        argv = [str(HERE / "worker.py"), "session"]
        if trace_file is not None:
            argv += ["--trace", str(trace_file)]
        self.children = children
        start = time.perf_counter()
        self.proc = children.spawn(argv + [str(p.relative_to(ROOT)) for p in paths], subprocess.PIPE, cpu)
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        if not line:
            children.reap(self.proc)
            raise BenchError(f"library session exited before it was ready (status {self.proc.returncode})")
        self.ready = json.loads(line)["ready"]

    def ask(self, msg: dict, cpu: int | None = None) -> dict:
        """The reply to one op; its ``latency`` is the session's own timing, or the round trip if it raised."""
        self.children.place(self.proc, cpu)
        sent = time.perf_counter()
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.children.reap(self.proc)
            raise BenchError(f"library session died (status {self.proc.returncode})")
        reply = json.loads(line)
        reply.setdefault("latency", time.perf_counter() - sent)
        return reply

    def close(self) -> int:
        """Ends the session; returns its peak RSS in KiB."""
        status, rss_kb = self.children.reap(self.proc)
        if status != 0:
            raise BenchError(f"library session exited with status {status}")
        return rss_kb


def setup_mismatches(names, counts) -> list[str]:
    found = []
    for name, got in zip(names, counts):
        want = EXPECTED[name]
        for key in ("rays", "edges", "contexts", "bases", "assignments"):
            if got[key] != getattr(want, key):
                found.append(f"{name}: {got[key]} {key}, expected {getattr(want, key)}")
        if len(got["unassigned"]) != want.unassigned:
            found.append(f"{name}: {len(got['unassigned'])} rays in no assignment, expected {want.unassigned}")
    return found


class SetupProbes:
    """Set-up samples spread over the run, so that their median sees the same core speeds as the ops."""

    def __init__(self, children: Children, paths: list[Path], names):
        self.children, self.paths, self.names = children, paths, names
        self.samples: list[float] = []
        self.mismatches: list[str] = []

    def due(self, progress: float):
        """Take a sample each time ``progress``, the share of the run done, passes another 1/(SETUP_SAMPLES - 1)."""
        if len(self.samples) > progress * (SETUP_SAMPLES - 1):
            return
        placement = self.children.placement
        cpu = placement.choose()
        before = placement.reading(cpu)
        probe = Session(self.children, self.paths, cpu=cpu)
        probe.close()
        self.samples.append(at_reference(probe.ready_s, before, placement.reading(cpu)))
        self.mismatches += setup_mismatches(self.names, probe.ready)


# ---------------------------------------------------------------------------
# yu-oh-repro: each op is a fresh ctxkit process
# ---------------------------------------------------------------------------

def digest_check(label: str):
    def check(out: bytes):
        if hashlib.sha256(out).hexdigest() != PINNED[label]:
            return f"{label}: output differs from its pinned digest"
        return None

    return check


def counts_check(name: str):
    c = EXPECTED[name]
    needles = [
        f"{c.rays} rays, {c.edges} orthogonality edges",
        f"contexts ({c.contexts}): {c.bases} basis,",
        f"assignments ({c.assignments}):",
        f"logically contextual pure states ({c.states}):",
        "no logically contextual mixed states: yes",
        f"paradoxes ({c.paradoxes}):",
        f"\nobservable {c.paradoxes} [",
    ]

    def check(out: bytes):
        text = out.decode("utf-8", errors="replace")
        missing = next((n for n in needles if n not in text), None)
        return None if missing is None else f"report {name}: no {missing.strip()!r}"

    return check


class YuOhRepro:
    name, setup, tail, trace_cycles = "yu-oh-repro", ("yu-oh", "yu-oh-gaussian"), 60, 1
    pass_s = 10.0  # reference seconds of one paired pass of the traced run

    @staticmethod
    def cycles(rng, paths):
        gaussian = str(paths["yu-oh-gaussian"].relative_to(ROOT))
        while True:
            state, witness = rng.choice(PARADOXES)
            label = f"simulate {state} {witness}"
            yield [
                ("report", ["report", "--scenario", "yu-oh"], digest_check("report")),
                ("report-json", ["report", "--scenario", "yu-oh", "--format", "json"], digest_check("report-json")),
                (label, ["simulate", "--scenario", "yu-oh", f"--state={state}", "--witness", witness,
                         "--shots", "100000", "--seed", "0"], digest_check(label)),
                ("report yu-oh-gaussian", ["report", "--scenario", gaussian], counts_check("yu-oh-gaussian")),
            ]

    @staticmethod
    def run_op(children, op, tally, trace_file=None, cpu=None):
        """Runs one CLI op on ``cpu``, or on the CPU chosen now; its latency is in reference seconds."""
        label, argv, check = op
        if trace_file is None:
            argv = ["-m", "ctxkit", *argv]
        else:
            argv = [str(HERE / "worker.py"), "cli", str(trace_file), *argv]
        cpu = children.placement.choose() if cpu is None else cpu
        before = children.placement.reading(cpu)
        spawn_ns = time.perf_counter_ns()
        proc = children.spawn(argv, cpu=cpu)
        out = proc.stdout.read()
        status, rss_kb = children.reap(proc)
        latency = (time.perf_counter_ns() - spawn_ns) / 1e9
        latency = at_reference(latency, before, children.placement.reading(cpu))
        reason = f"{label}: exit status {status}" if status != 0 else check(out)
        tally.record(latency, reason)
        tally.rss_kb = max(tally.rss_kb, rss_kb)
        return latency, out, spawn_ns

    def measure(self, children, paths, rng, seconds, tally, probes) -> float:
        """Whole cycles until ``seconds`` have passed; returns the reference seconds of the ops."""
        start = time.perf_counter()
        for cycle in self.cycles(rng, paths):
            for op in cycle:
                self.run_op(children, op, tally)
                probes.due((time.perf_counter() - start) / seconds)
            if time.perf_counter() - start >= seconds:
                return sum(tally.latencies)

    def paired_pass(self, children, paths, ops, tag, tally):
        """Each op untraced and traced back to back on one CPU; the order alternates."""
        times, counts, diffs = Counter(), Counter(), []
        for k, op in enumerate(ops):
            cpu, latency = children.placement.choose(), {}
            for traced in (False, True) if (tag + k) % 2 == 0 else (True, False):
                trace_file = WORK / f"spans-{tag}-{k}.json" if traced else None
                latency[traced], out, spawn_ns = self.run_op(children, op, tally, trace_file, cpu)
                if traced and trace_file.exists():
                    spans = read_spans(trace_file, times, counts)
                    if spans:
                        times["cli.startup"] += (spans[0][3] - spawn_ns) / 1e9
                    counts["report.bytes"] += len(out)
            diffs.append(latency[True] - latency[False])
        return times, counts, diffs


# ---------------------------------------------------------------------------
# check-stream: a library session; each op checks one state
# ---------------------------------------------------------------------------

def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def hyperplane_normal(rng, rays):
    """The 1-dimensional nullspace of d-1 random rays, as a primitive integer vector."""
    d = len(rays[0])
    while True:
        rows = rng.sample(rays, d - 1)
        normal = [(-1) ** i * _det([r[:i] + r[i + 1:] for r in rows]) for i in range(d)]
        if any(normal):
            g = math.gcd(*normal)
            return [x // g for x in normal]


def stream_op(rng, rays, index, kind):
    """A seeded state check of one kind: a normal, a generic state or a mixture 1/3, 2/3 of normals."""
    d = len(rays[0])
    if kind == "normal":
        parts = [(1, 1, hyperplane_normal(rng, rays))]
    elif kind == "generic":
        psi = [0] * d
        while not any(psi):
            psi = [rng.randint(-9, 9) for _ in range(d)]
        parts = [(1, 1, psi)]
    else:
        parts = [(1, 3, hyperplane_normal(rng, rays)), (2, 3, hyperplane_normal(rng, rays))]
    if len(parts) == 1:
        msg = {"scenario": index, "kind": "pure", "psi": parts[0][2]}
    else:
        msg = {"scenario": index, "kind": "density", "parts": [list(p) for p in parts]}

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    probs = [
        sum(Fraction(n, m) * Fraction(dot(v, a) ** 2, dot(v, v) * dot(a, a)) for n, m, a in parts)
        for v in rays
    ]
    return msg, probs


def check_reply(reply, probs, unassigned):
    """Failure reason of one state check, or None; and whether it is the known defect."""
    if "error" in reply:
        return "raised: " + reply["error"].strip().splitlines()[-1], False
    model = "".join("1" if p else "0" for p in probs)
    if reply["model"] != model:
        return "possibilistic model differs from the exact Born probabilities", False
    for witness, zeros, sp in reply["paradoxes"]:
        if model[witness] != "1" or any(model[z] != "0" for z in zeros) or Fraction(sp) != probs[witness]:
            return "paradox conditions or success probability wrong", False
    if reply["contextual"] and not reply["paradoxes"]:
        return "contextual state without a paradox", False
    if not reply["replays"]:
        return "paradox does not replay", False
    if reply["contextual"] == reply["oracle"]:
        known = any(model[i] == "1" for i in unassigned)
        return "verdict disagrees with the oracle", known
    return None, False


class CheckStream:
    name, setup, tail, trace_cycles = "check-stream", ("box-d3-m2-n32", "box-d4-m1-n32"), 98, 4
    pass_s = 4.0  # reference seconds of one paired pass of the traced run
    cycles_per_s = 2.0  # cycles per second of --seconds: 8 checks take about 0.35 s on a reference core
    kinds = ("normal", "normal", "generic", "mixture")

    def cycles(self, rng, paths):
        """Ops alternate between the scenarios; each cycle has every kind in its share, in a seeded order."""
        rays = (box_rays(3, 2)[:32], box_rays(4, 1)[:32])
        while True:
            orders = [rng.sample(self.kinds, len(self.kinds)) for _ in rays]
            yield [stream_op(rng, rays[i], i, order[j]) for j in range(len(self.kinds)) for i, order in enumerate(orders)]

    @staticmethod
    def record(session, msg, probs, reply, tally) -> float:
        reason, known = check_reply(reply, probs, session.ready[msg["scenario"]]["unassigned"])
        tally.record(reply["latency"], reason, known)
        return reply["latency"]

    def measure(self, children, paths, rng, seconds, tally, probes) -> float:
        """A fixed number of cycles, so that a seed always gives the same ops and failures.

        Each cycle runs on one CPU between two speed readings; returns the
        reference seconds of the cycles' round trips.
        """
        session = Session(children, [paths[n] for n in self.setup])
        busy, count = 0.0, max(1, round(seconds * self.cycles_per_s))
        for done, cycle in enumerate(itertools.islice(self.cycles(rng, paths), count), start=1):
            cpu = children.placement.choose()
            before = children.placement.reading(cpu)
            start = time.perf_counter()
            replies = [session.ask(msg, cpu) for msg, _ in cycle]
            wall = time.perf_counter() - start
            after = children.placement.reading(cpu)
            for (msg, probs), reply in zip(cycle, replies):
                reply["latency"] = at_reference(reply["latency"], before, after)
                self.record(session, msg, probs, reply, tally)
            busy += at_reference(wall, before, after)
            probes.due(done / count)
        tally.rss_kb = max(tally.rss_kb, session.close())
        return busy

    def paired_pass(self, children, paths, ops, tag, tally):
        """An untraced and a traced session, set up and asked each op back to back on one CPU."""
        times, counts = Counter(), Counter()
        trace_file = WORK / f"spans-{tag}.json"
        order = (False, True) if tag % 2 == 0 else (True, False)
        cpu = children.placement.choose()
        sessions = {traced: Session(children, [paths[n] for n in self.setup], trace_file if traced else None, cpu)
                    for traced in order}
        diffs = [sessions[True].ready_s - sessions[False].ready_s]
        for msg, probs in ops:
            cpu, latency = children.placement.choose(), {}
            for traced in order:
                reply = sessions[traced].ask(msg, cpu)
                latency[traced] = self.record(sessions[traced], msg, probs, reply, tally)
                if traced:
                    counts["contextuality.disagreements"] += "error" not in reply and reply["contextual"] == reply["oracle"]
            diffs.append(latency[True] - latency[False])
        for session in sessions.values():
            tally.rss_kb = max(tally.rss_kb, session.close())
        read_spans(trace_file, times, counts)
        return times, counts, diffs


WORKLOADS = {w.name: w for w in (YuOhRepro(), CheckStream())}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def end_to_end(workload, children, paths, rng, seconds, tally, probes):
    busy = workload.measure(children, paths, rng, seconds, tally, probes)
    lat = tally.latencies
    return {
        "setup_s": (statistics.median(probes.samples), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (statistics.quantiles(lat, n=100, method="inclusive")[workload.tail - 1], "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "peak_rss_mb": (tally.rss_kb / 1024, "MB"),
        "ok_share": ((tally.attempted - tally.failed) / tally.attempted, "share"),
    }


def per_layer(workload, children, paths, rng, seconds, tally):
    """A fixed number of paired passes over one fixed seeded op list, about ``seconds`` on a reference core.

    Layer times are medians over the traced passes.  ``trace.overhead_s``
    is, per pass, the sum over the steps of a pass (set-up, ops) of the
    median traced-minus-untraced difference of that step.
    """
    ops = [op for cycle in itertools.islice(workload.cycles(rng, paths), workload.trace_cycles) for op in cycle]
    layer_times, counts, diffs = [], None, []
    for tag in range(max(1, round(seconds / workload.pass_s))):
        times, pass_counts, pass_diffs = workload.paired_pass(children, paths, ops, tag, tally)
        layer_times.append(times)
        counts = counts if counts is not None else pass_counts
        diffs.append(pass_diffs)
    metrics = {f"{name}_s": (float(statistics.median(t[name] for t in layer_times)), "s") for name in LAYER_TIMES}
    metrics.update({name: (counts[name], "count") for name in LAYER_COUNTS})
    metrics["trace.overhead_s"] = (sum(statistics.median(step) for step in zip(*diffs)), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ctxkit" / "__init__.py").is_file():
        print(f"perfbench: no ctxkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ctxkit

    if Path(ctxkit.__file__).resolve().parent != ROOT / "src" / "ctxkit":
        print(f"perfbench: imported ctxkit from {ctxkit.__file__}, not from src/", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    paths = generate(ROOT, WORK)
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    calibration = [spin(CALIBRATION_LOOPS)]
    tally = Tally()
    with open(WORK / "stderr.log", "wb") as errlog:
        children = Children(errlog)
        try:
            probes = SetupProbes(children, [paths[n] for n in workload.setup], workload.setup)
            probes.due(0)
            if args.trace:
                metrics = per_layer(workload, children, paths, rng, args.seconds, tally)
            else:
                metrics = end_to_end(workload, children, paths, rng, args.seconds, tally, probes)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            children.close()
        if children.expired:
            print(f"perfbench: run limit of {RUN_LIMIT_S} s reached", file=sys.stderr)
            return 1
    calibration.append(spin(CALIBRATION_LOOPS))
    unexplained = tally.failed - tally.known_defect
    for reason in sorted(set(probes.mismatches)):
        print(f"perfbench: set-up check failed: {reason}", file=sys.stderr)
    print(json.dumps({"diagnostics": {
        "workload": workload.name,
        "seed": args.seed,
        "calibration_s": {"start": calibration[0], "end": calibration[1]},
        "latency_tail_percentile": workload.tail,
        "setup_samples_s": probes.samples,
        "placements_per_cpu": {str(cpu): n for cpu, n in sorted(children.placement.counts.items())},
        "speed_readings_s": dict(zip(("min", "median", "max"), (
            min(children.placement.readings), statistics.median(children.placement.readings),
            max(children.placement.readings)))),
        "known_defect_failures": tally.known_defect,
        "failure_reasons": dict(tally.reasons.most_common(8)),
    }}))
    print(json.dumps({
        "correct": unexplained == 0 and not probes.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
