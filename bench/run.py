"""granulens benchmark: real CLI commands on CSV inputs generated from a seed.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads are defined in ``bench/workloads.py`` and their metrics
in ``BENCHMARK.json``. Each command runs in a fresh interpreter
(``python -m granulens.cli``) with ``GRANULENS_THREADS`` cleared, one at a
time (a closed loop with one client), on files written to ``bench/_work/``.

``--trace 0`` times untraced commands for the end-to-end metrics. Each
command is run between two runs of a fixed reference task
(``bench/reference.py``: interpreter start, CSV parsing and numpy counting
on the same inputs and thread count, no granulens code), and ``cpu_rel``
is the median of the command's user+sys CPU time (from ``os.wait4``) over
the median CPU time of the six references nearest to it. The shared host's
speed drifts by tens of percent within minutes; the ratio divides that out,
while a change to the program moves the numerator only. Wall time is kept
in the record (raw, and as the same ratio ``wall_rel``) but not reported as
a metric: on a 2-core shared host, time taken by other tenants comes and
goes faster than a command, so even the ratio spread by about a tenth
between runs of the same code. ``peak_rss_mb`` is the child's median ``ru_maxrss`` and ``setup_s``
the median wall time of a bare ``import granulens.cli``.
``--trace 1`` alternates traced commands (``bench/trace_cli.py``) with
untraced ones and reports the per-layer self times, counts and the tracing
overhead. Every command's output files are hashed and checked against the
workload's numpy oracle; all digests of one run must be identical.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a JSON record of the environment, inputs, output
digests and raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

from workloads import THREADS, WORKLOADS, Prepared  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
MIN_PROBES = 12  # setup_s is the median of this many imports
PLAIN = [sys.executable, "-m", "granulens.cli"]
SETUP_PROBE = [sys.executable, "-c", "import granulens.cli"]
REFERENCE = [sys.executable, str(BENCH / "reference.py")]


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    spans: list | None = None


@dataclass
class Runner:
    """Spawns commands, hashes and checks their outputs, and counts failures."""

    prep: Prepared
    work: Path
    deadline: float
    launcher: list[str]
    attempted: int = 0
    failed: int = 0
    digests: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    _verdicts: dict = field(default_factory=dict)

    def __post_init__(self):
        self.env = {k: v for k, v in os.environ.items() if k != "GRANULENS_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)

    def spawn(self, cmd: list[str]) -> tuple[float, float, float, int]:
        """(wall s, user+sys CPU s, peak RSS MB, exit code) of one child process."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.work / "command.log", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, proc.returncode

    def probe(self) -> float:
        wall, _, _, rc = self.spawn(SETUP_PROBE)
        if rc != 0:
            self.problems.append(f"import granulens.cli exited {rc}")
        return wall

    def reference(self) -> Sample:
        """Time the fixed reference task on this workload's input files."""
        wall, cpu, rss, rc = self.spawn(
            REFERENCE + [str(self.prep.threads)]
            + [str(self.work / rec["file"]) for rec in self.prep.inputs])
        if rc != 0:
            self.problems.append(f"reference task exited {rc}")
        return Sample(wall, cpu, rss)

    def command(self, traced: bool = False) -> Sample:
        for path in self.prep.outputs.values():
            path.unlink(missing_ok=True)
        spans_path = self.work / "spans.json"
        spans_path.unlink(missing_ok=True)
        prefix = ([sys.executable, str(BENCH / "trace_cli.py"), str(spans_path)]
                  if traced else self.launcher)
        wall, cpu, rss, rc = self.spawn(prefix + self.prep.argv)
        self.attempted += 1
        problems = self._judge(rc)
        spans = None
        if traced and not problems:
            try:
                spans = json.loads(spans_path.read_text())
            except (OSError, ValueError):
                problems = ["traced command wrote no spans"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return Sample(wall, cpu, rss, spans)

    def _judge(self, rc: int) -> list[str]:
        if rc != 0:
            log = (self.work / "command.log").read_text(errors="replace")
            return [f"exit code {rc}: {log.strip()[-400:]}"]
        try:
            got = {k: p.read_bytes() for k, p in self.prep.outputs.items()}
        except OSError as exc:
            return [f"missing output: {exc}"]
        digest = tuple(sorted((k, hashlib.sha256(v).hexdigest()) for k, v in got.items()))
        self.digests.add(digest)
        if digest not in self._verdicts:  # same bytes, same verdict
            try:
                self._verdicts[digest] = self.prep.check(got)
            except Exception as exc:  # output the oracle cannot digest is wrong output
                self._verdicts[digest] = [f"check raised {exc!r}"]
        return self._verdicts[digest]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(i for i in intervals if i[1] > i[0]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """(times in s, counts) per layer from one traced command's spans.

    Self time is a span's duration minus the union of its children's
    intervals, so spans adopted from pool threads (which overlap each
    other) never push the parent's self time below zero. Self times of
    spans on different threads add up, giving busy thread-seconds.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s["parent"]].append(i)
    self_s, calls, counted = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        kids = [(max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
                for c in children[i]]
        self_s[s["name"]] += s["end"] - s["start"] - _union_length(kids)
        calls[s["name"]] += 1
        counted.update(s["counts"])

    def under_reduction(i):
        while (i := spans[i]["parent"]) is not None:
            if spans[i]["name"].startswith("reduction."):
                return True
        return False

    computed = calls["sweep._point_at"]
    times = {
        "table.load_table_s": self_s["table.load_table"],
        "table.discretize_s": self_s["table.discretize"],
        "table.partition_by_s": self_s["table.partition_by"],
        "table.factorize_s": self_s["table.factorize"],
        "rough.region_fractions_s": self_s["rough.region_fractions"],
        "entropy.granular_entropy_s": self_s["entropy.granular_entropy"],
        "entropy.conditional_s": self_s["entropy.conditional"],
        "sweep.sweep_s": self_s["sweep.sweep"] + self_s["sweep._point_at"],
        "sweep.pool_busy_s": sum(s["end"] - s["start"] for s in spans if s["adopted"]),
        "reduction.greedy_reduct_s": self_s["reduction.greedy_reduct"],
        "reduction.entropy_rank_s": self_s["reduction.entropy_rank"],
        "harness.load_run_s": self_s["harness.load_run"],
        "harness.evaluate_run_s": self_s["harness.evaluate_run"],
        "harness.compare_runs_s": self_s["harness.compare_runs"],
        "curvefile.write_curve_s": self_s["curvefile.write_curve"],
        "svg.emit_svg_s": self_s["svg.emit_svg"],
        "cli.self_s": self_s["cli.run_cli"],
    }
    counts = {
        "table.cells_parsed": counted["cells"],
        "table.discretize_calls": calls["table.discretize"],
        "table.partition_by_calls": calls["table.partition_by"],
        "table.blocks_built": counted["blocks"],
        "table.factorize_calls": calls["table.factorize"],
        "rough.region_fractions_calls": calls["rough.region_fractions"],
        "entropy.granular_entropy_calls": calls["entropy.granular_entropy"],
        "entropy.conditional_calls": calls["entropy.conditional"],
        "sweep.levels_computed": computed,
        "sweep.levels_returned": counted["levels"],
        "reduction.partitions_built": sum(
            1 for i, s in enumerate(spans)
            if s["name"] == "table.partition_by" and under_reduction(i)),
        "harness.run_rows_parsed": counted["rows"],
    }
    return times, counts


def environment(prep: Prepared) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "granulens").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "threads": THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "commit": commit,
            "src_sha256": src.hexdigest(), "inputs": prep.inputs}


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, launcher: list[str] | None = None) -> dict:
    """Run one workload and return the result record (see module docstring).

    ``scale`` shrinks the inputs and ``launcher`` replaces the untraced
    command prefix; both exist for the benchmark's own smoke test.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    started = time.perf_counter()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep = WORKLOADS[workload](np.random.default_rng(seed), work, scale)
        runner = Runner(prep, work, started + DEADLINE_S, launcher or list(PLAIN))
        runner.probe()  # the first import writes bytecode; not timed
        plain, traced, probes, refs = [], [], [], []
        if not trace:
            refs.append(runner.reference())
        stop = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            if trace:
                traced.append(runner.command(traced=True))
            plain.append(runner.command())
            if not trace:
                refs.append(runner.reference())
                if len(probes) < MIN_PROBES:
                    probes.append(runner.probe())
            now = time.perf_counter()
            # stop at the iteration whose end is nearest to ``stop``
            if now + (now - t0) / 2 >= stop or now + (now - t0) > started + DEADLINE_S:
                break
        while not trace and len(probes) < MIN_PROBES:
            probes.append(runner.probe())
        samples = {"wall_s": [s.wall for s in plain]}
        if trace:
            values, counts = trace_values(traced, plain, runner.problems)
            samples["traced_wall_s"] = [s.wall for s in traced]
            samples["counts"] = counts
        else:
            values = {
                "cpu_rel": relative(plain, refs, "cpu"),
                "peak_rss_mb": statistics.median(s.rss_mb for s in plain),
                "setup_s": statistics.median(probes),
                "success_rate": 1 - runner.failed / runner.attempted,
            }
            samples.update(cpu_s=[s.cpu for s in plain],
                           peak_rss_mb=[s.rss_mb for s in plain], setup_s=probes,
                           ref_wall_s=[s.wall for s in refs],
                           ref_cpu_s=[s.cpu for s in refs],
                           median_wall_s=statistics.median(s.wall for s in plain),
                           wall_rel=relative(plain, refs, "wall"),
                           median_cpu_s=statistics.median(s.cpu for s in plain))
        if len(runner.digests) > 1:
            runner.problems.append(f"outputs differ between commands: {runner.digests}")
        if set(values) != set(units):
            runner.problems.append(f"metrics {sorted(set(values) ^ set(units))} "
                                   "not both computed and declared")
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "env": environment(prep),
                  "digests": [dict(d) for d in runner.digests],
                  "samples": samples, "problems": runner.problems[:20]}
        return {
            "record": record,
            "result": {"correct": not runner.problems, "attempted": runner.attempted,
                       "failed": runner.failed,
                       "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                                   for k, v in values.items()}},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def relative(plain: list[Sample], refs: list[Sample], attr: str) -> float:
    """Median over commands of its time over the median of the nearest references.

    ``refs[i]`` ran just before ``plain[i]`` and ``refs[i + 1]`` just after;
    each command is divided by the median of the three references before
    it and the three after (fewer at the ends of the run), so a change in
    host speed that lasts a few commands cancels.
    """
    def near(i):
        return statistics.median(getattr(r, attr) for r in refs[max(0, i - 2):i + 4])

    return statistics.median(getattr(cmd, attr) / near(i) for i, cmd in enumerate(plain))


def trace_values(traced: list[Sample], plain: list[Sample],
                 problems: list[str]) -> tuple[dict, dict]:
    """Median per-layer times over traced commands; counts must repeat exactly."""
    per = [layer_metrics(s.spans) for s in traced if s.spans is not None]
    if not per:
        problems.append("no traced command succeeded")
        return {}, {}
    counts = per[0][1]
    if any(c != counts for _, c in per):
        problems.append("per-layer counts differ between traced commands")
    values = {k: statistics.median(t[k] for t, _ in per) for k in per[0][0]}
    values.update(counts)
    computed = counts["sweep.levels_computed"]
    values["sweep.level_yield"] = counts["sweep.levels_returned"] / computed if computed else 0.0
    values["trace.overhead_frac"] = (statistics.median(s.wall for s in traced)
                                     / statistics.median(s.wall for s in plain) - 1)
    return values, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "granulens" / "cli.py", ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"error: run from a granulens checkout; missing {missing}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in out["record"]["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
