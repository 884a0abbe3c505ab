"""Benchmark of the sdeproj command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): convergence-as,
mlmc-spread, reference-spread.  The seed goes into the generated experiment
file, which is the only input sdeproj sees.

Load: a closed loop with one client.  This process runs one command at a
time, each in a fresh child process (as a user's shell would), and waits for
its output files before starting the next.  No threads or worker pools;
OpenMP, OpenBLAS and MKL are pinned to one thread.  Sized for two cores.

--trace 0 measures for about S seconds and reports the end-to-end metrics:
  wall_s            median wall time from dispatch to output files written
  path_steps_per_s  median of (path-steps computed from inputs and outputs) / wall
  setup_s           median time from process start to engine entry, over
                    set-up-only probes and the timed repetitions
  peak_rss_mib      median peak resident set of the command's process
  success_ratio     1 - error_rate, error_rate = failed runs / attempted runs
--trace 1 alternates untraced and traced repetitions of the same command and
reports the per-layer metrics of tracer.py, the work counts computed from the
outputs, process CPU time and the tracing overhead.

A run fails if the command exits non-zero, its output files fail their check
(workloads.py) or differ in any byte from the run's first repetition.  A
workload with a fixed-input acceptance study (criterion 4 for convergence-as)
runs it once per benchmark run, untimed, and counts it as a run.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Scratch files go to .perfbench_work/.
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
import time

from workloads import WORKLOADS, CheckFailed

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORK_DIR = ".perfbench_work"
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 8
MIN_REPETITIONS = 3  # the median needs a few, the digest check two
TIME_LIMIT_S = 170.0  # the whole benchmark, so it exits within 180 s
MAX_LEVEL = 5  # the mlmc workload uses the default max_level


class RunFailed(Exception):
    pass


# What a failed child, a missing or malformed result or output file can raise.
FAILURES = (RunFailed, CheckFailed, OSError, LookupError, TypeError, ValueError)


class Bench:
    """One workload in one checkout: spawns commands and checks their outputs."""

    def __init__(self, root: str, workload, seed: int):
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.work = os.path.join(WORK_DIR, workload.name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.out = os.path.join(self.work, "out")
        self.config = self.write_config("experiment.yaml",
                                        workload.experiment(seed, self.out))
        self.limit = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.problems: list[str] = []
        self.digest = None
        self.numpy = None
        self.children = 0

    def write_config(self, name: str, experiment: dict) -> str:
        """Writes an experiment file as JSON, which YAML reads as it is, under
        a YAML comment; returns its path."""
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# {self.workload.name}: {self.workload.why}\n")
            json.dump(experiment, handle, indent=2)
            handle.write("\n")
        return path

    def spawn(self, mode: str, trace: bool, config: str | None = None) -> dict:
        """Run child.py once; its result, with setup_s measured from spawn."""
        self.children += 1
        tag = os.path.join(self.work, f"{self.children:03d}")
        spec = {"src": self.src, "command": self.workload.command,
                "config": config or self.config, "mode": mode, "trace": trace,
                "run_id": self.children, "factors": self.workload.factors,
                "result": tag + "_result.json", "spans": tag + "_spans.csv"}
        with open(tag + "_spec.json", "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        started = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, tag + "_spec.json"],
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=max(1.0, self.limit - started))
        except subprocess.TimeoutExpired:
            raise RunFailed("timed out") from None
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            raise RunFailed(f"child exited {proc.returncode}: "
                            f"{lines[-1] if lines else 'no message'}")
        with open(spec["result"], encoding="utf-8") as handle:
            result = json.load(handle)
        if result["code"] != 0:
            raise RunFailed(f"sdeproj exited {result['code']}")
        if not os.path.realpath(result["sdeproj_file"]).startswith(
                os.path.realpath(self.src) + os.sep):
            raise RunFailed(f"imported sdeproj from {result['sdeproj_file']}, "
                            f"not from {self.src}")
        self.numpy = result["numpy"]
        result["setup_s"] = result["setup_done"] - started
        return result

    def probe(self) -> float | None:
        """Set-up time of one process that stops at engine entry."""
        self.attempted += 1
        try:
            return self.spawn("setup", trace=False)["setup_s"]
        except FAILURES as exc:
            self.problems.append(f"set-up probe: {exc}")
            return None

    def criterion(self) -> str | None:
        """Runs the workload's fixed-input acceptance study, if it has one;
        its summary, or None when there is none or it failed."""
        if self.workload.criterion is None:
            return None
        self.attempted += 1
        out = os.path.join(self.work, "criterion_out")
        config = self.write_config("criterion.yaml", self.workload.criterion(out))
        try:
            self.spawn("run", trace=False, config=config)
            return self.workload.criterion_check(out)
        except FAILURES as exc:
            self.problems.append(f"acceptance run: {exc}")
            return None

    def command(self, trace: bool) -> dict | None:
        """One full command run whose outputs passed every check."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            result = self.spawn("run", trace)
            outcome = self.workload.check(self.out)
            digest = output_digest(self.out)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                raise RunFailed(f"output digest {digest} differs from {self.digest}")
        except FAILURES as exc:
            self.problems.append(f"{'traced ' if trace else ''}run: {exc}")
            return None
        result.update(path_steps=outcome.path_steps, summary=outcome.summary,
                      counts=outcome.counts)
        return result

    def repeat(self, seconds: float, step, minimum: int) -> list:
        """Call `step` at least `minimum` times, then until the next call would
        end after `seconds` from now; returns what the calls returned."""
        deadline = time.monotonic() + seconds
        results, durations = [], []
        while len(durations) < minimum or \
                time.monotonic() + statistics.median(durations) <= deadline:
            if time.monotonic() >= self.limit:
                break
            began = time.monotonic()
            results.append(step())
            durations.append(time.monotonic() - began)
        return results

    @property
    def failed(self) -> int:
        return len(self.problems)


def output_digest(out: str) -> str:
    """SHA-256 over the output files' names and bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def timed_run(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    started = time.monotonic()
    bench.probe()  # warm-up: writes bytecode caches and fills the page cache
    accepted = bench.criterion()
    setups = [bench.probe() for _ in range(SETUP_PROBES)]
    runs = bench.repeat(seconds - (time.monotonic() - started),
                        lambda: bench.command(trace=False), MIN_REPETITIONS)
    runs = [r for r in runs if r is not None]
    if not runs:
        return {}, []
    walls = [r["wall_s"] for r in runs]
    setups = [s for s in setups if s is not None] + [r["setup_s"] for r in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "path_steps_per_s": statistics.median(r["path_steps"] / r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] / 1024 for r in runs),
        "success_ratio": 1.0 - bench.failed / bench.attempted,
    }
    notes = [f"repetitions {len(walls)}, set-up samples {len(setups)}",
             wall_tail(walls),
             f"path_steps {runs[0]['path_steps']} (computed), {runs[0]['summary']}",
             *([accepted] if accepted else []),
             f"error_rate {bench.failed / bench.attempted} "
             f"({bench.failed} of {bench.attempted} runs failed)"]
    return metrics, notes


def wall_tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(walls)
    if n < 11:
        return (f"wall_s tail: {n} samples, too few for a percentile with ten "
                f"beyond it; max {max(walls)} s")
    return f"wall_s p{100 * (n - 10) // n} {sorted(walls)[n - 11]} s over {n} samples"


def traced_run(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    started = time.monotonic()
    bench.probe()  # warm-up, as in the timed run
    accepted = bench.criterion()
    pairs = bench.repeat(seconds - (time.monotonic() - started),
                         lambda: (bench.command(trace=False), bench.command(trace=True)),
                         minimum=1)
    plain = [p for p, _ in pairs if p is not None]
    traced = [t for _, t in pairs if t is not None]
    if not plain or not traced:
        return {}, []
    metrics = {key: layer_median([t["layers"][key] for t in traced])
               for key in traced[0]["layers"]}
    # Multilevel counts are read from the outputs; other workloads have none.
    metrics.update({f"mlmc.level_paths.l{l}": 0 for l in range(MAX_LEVEL + 1)})
    metrics.update({"mlmc.steps_taken": 0, "mlmc.cost_coverage": 0.0})
    metrics.update(traced[0]["counts"])
    metrics["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    metrics["process.cpu_util"] = statistics.median(p["cpu_s"] / p["wall_s"] for p in plain)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
    notes = [f"pairs {len(pairs)} (untraced, traced); untraced wall_s {plain_wall} s",
             f"self times {metrics['trace.attributed_s']} s + unattributed "
             f"{metrics['trace.unattributed_s']} s = traced wall_s "
             f"{metrics['trace.wall_s']} s",
             *([accepted] if accepted else []),
             f"error_rate {bench.failed / bench.attempted} "
             f"({bench.failed} of {bench.attempted} runs failed)"]
    return metrics, notes


def layer_median(values: list) -> float | int:
    """Median of one layer metric; counts repeat exactly and stay whole."""
    if isinstance(values[0], int):
        return statistics.median_low(values)
    return statistics.median(values)


UNITS = {"wall_s": "s", "path_steps_per_s": "1/s", "setup_s": "s",
         "peak_rss_mib": "MiB", "success_ratio": "ratio"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("bytes", "_bytes_peak", "bytes_written")):
        return "bytes"
    if name.endswith(("ratio", "coverage", "cpu_util")):
        return "ratio"
    return "count"


def environment(root: str, numpy_version: str | None) -> dict:
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        try:
            with open(base + "level") as level, open(base + "size") as size:
                caches[f"L{level.read().strip()}"] = size.read().strip()
        except OSError:
            break
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    source = hashlib.sha256()
    package = os.path.join(root, "src", "sdeproj")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {"nproc": os.cpu_count(), "cpu_model": model, "l2": caches.get("L2"),
            "l3": caches.get("L3"), "python": platform.python_version(),
            "numpy": numpy_version, "git_revision": git_revision(root),
            "source_sha256": source.hexdigest(), "threads": PINNED_THREADS,
            "load": "closed loop, one client process, one command at a time"}


def git_revision(root: str) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                return next((line.split()[0] for line in handle
                             if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in an unsigned 64-bit integer")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sdeproj", "cli.py")):
        print(f"error: no src/sdeproj/cli.py under {root}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)  # inherited by every child
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    run = traced_run if args.trace else timed_run
    metrics, notes = run(bench, args.seconds)
    for problem in bench.problems:
        print(f"FAILED {problem}")
    if not metrics:
        print("error: no command run succeeded", file=sys.stderr)
        return 1

    env = environment(root, bench.numpy)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "output_sha256": bench.digest, "environment": env, "notes": notes,
              "problems": bench.problems, "metrics": metrics}
    with open(os.path.join(bench.work, "record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{WORKLOADS[args.workload].why}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"output_sha256 {bench.digest}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} {value} {unit(name)}")
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
