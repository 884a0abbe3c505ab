"""Spans and counts at the sdeproj layer boundaries, for the traced run.

Wrappers are installed from outside the package, at the names the callers
resolve when they call (a module global such as `sdeproj.mlmc.project`, or a
class attribute such as `BrownianFabric.block_normals`), so no source file of
the program changes.  Each call records one span: name, start, end, parent
span and run id.  Spans stay in memory until the command has finished; then
they are written out and reduced to per-layer self times.  A layer's self time
is its span time minus the time covered by its child spans, and the part of
the command's wall time that no span covers is reported as unattributed.
"""
from __future__ import annotations

import csv
import dataclasses
import os
import time
from collections import defaultdict

_NS = 1e-9


class SpanStore:
    """Append-only span table of one command run, plus counters."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.largest_block = 0  # most normals drawn by one block_normals call
        self.block_extent: dict[tuple, int] = {}  # (level, block, factor) -> normals

    def wrap(self, name: str, fn, count=None):
        """`fn` with one span per call; `count(result, *args, **kwargs)` runs
        after the span closes, so counting is charged to the caller."""
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self._open)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return_value = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(return_value, *args, **kwargs)
            return return_value

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("run_id", "span", "parent", "name", "start_ns", "end_ns"))
            for i, name in enumerate(self.names):
                out.writerow((self.run_id, i, self.parents[i], name,
                              self.starts[i], self.ends[i]))

    def layer_times(self) -> tuple[dict, dict, dict, int]:
        """(calls, total ns, self ns) per span name, and ns covered by root spans."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
        calls, total, own = defaultdict(int), defaultdict(int), defaultdict(int)
        roots = 0
        for i, name in enumerate(self.names):
            calls[name] += 1
            total[name] += durations[i]
            own[name] += durations[i] - covered[i]
            if self.parents[i] < 0:
                roots += durations[i]
        return calls, total, own, roots


def install(store: SpanStore) -> None:
    """Wrap every traced layer of the imported `sdeproj` package."""
    from sdeproj import brownian, cli, config, convergence, mlmc, projection, reference

    counts = store.counts

    def normals(result, fabric, level, block, n, *, factor=0, rows=None):
        counts["normals"] += result.size
        store.largest_block = max(store.largest_block, result.size)
        key = (level, block, factor)
        store.block_extent[key] = max(store.block_extent.get(key, 0), result.size)

    def coupled_bytes(result, fine, m):
        # One strided copy, then m - 1 in-place adds that each read a strided
        # slice and the running sum: reads (2m - 1) and writes m coarse arrays.
        counts["couple_bytes"] += (3 * m - 1) * result.nbytes

    def evolved(result, model, plan, n, h, increments):
        counts["evolve_steps"] += len(increments) * n

    def implicit_steps(result, y, params, h, dw):
        counts["implicit_steps"] += result.size

    def written(result, path, *args):
        counts["bytes_written"] += os.path.getsize(path)

    targets = (
        (brownian.BrownianFabric, "block_normals", "brownian.block_normals", normals),
        (convergence, "couple_levels", "brownian.couple_levels", coupled_bytes),
        (mlmc, "couple_levels", "brownian.couple_levels", coupled_bytes),
        (mlmc, "correlate", "brownian.correlate", None),
        (convergence, "evolve_terminal", "projection.evolve_terminal", evolved),
        (projection, "project", "projection.project", None),
        (mlmc, "project", "projection.project", None),
        (projection, "diffusion_bar", "projection.diffusion_bar", None),
        (mlmc, "diffusion_bar", "projection.diffusion_bar", None),
        # implicit_price imports implicit_cir_step from the module at call time.
        (reference, "implicit_cir_step", "reference.implicit_cir_step", implicit_steps),
        (convergence, "implicit_cir_step", "reference.implicit_cir_step", implicit_steps),
        (mlmc, "payoff_spread", "mlmc.payoff_spread", None),
        (convergence, "fit_rate", "convergence.fit_rate", None),
        (cli, "run_convergence_study", "convergence.run_convergence_study", None),
        (cli, "mlmc_estimate", "mlmc.mlmc_estimate", None),
        (cli, "implicit_price", "mlmc.implicit_price", None),
        (cli, "load_config", "config.load_config", None),
        (config.SchemeConfig, "build_plan", "config.build", None),
        (mlmc, "manual_plan", "config.build", None),
        (cli, "_write_rows", "cli.write", written),
        (cli, "_write_json", "cli.write", written),
    )
    for owner, attr, name, count in targets:
        setattr(owner, attr, store.wrap(name, getattr(owner, attr), count))

    # The drift callables live on the built models; wrap them as they are built.
    build_span = store.wrap("config.build", config.ModelConfig.build)

    def build(model_config):
        triple = build_span(model_config)
        model = triple.transformed
        traced_f = store.wrap("models.f", model.f)
        return triple._replace(transformed=dataclasses.replace(model, f=traced_f))

    config.ModelConfig.build = build


def layer_metrics(store: SpanStore, wall_ns: int, factors: int) -> dict:
    """Per-layer metrics of one traced command run."""
    calls, total, own, roots = store.layer_times()
    counts = store.counts

    def seconds(table, name):
        return table.get(name, 0) * _NS

    def rate(amount, ns):
        return amount / (ns * _NS) if ns else 0.0

    drawn = counts["normals"]
    useful = sum(store.block_extent.values())
    return {
        "brownian.block_normals.calls": calls.get("brownian.block_normals", 0),
        "brownian.block_normals.normals": drawn,
        "brownian.block_normals.self_s": seconds(own, "brownian.block_normals"),
        "brownian.block_normals.normals_per_s":
            rate(drawn, own.get("brownian.block_normals", 0)),
        "brownian.normals_useful_ratio": useful / drawn if drawn else 1.0,
        "brownian.couple_levels.calls": calls.get("brownian.couple_levels", 0),
        "brownian.couple_levels.self_s": seconds(own, "brownian.couple_levels"),
        "brownian.couple_levels.bytes": counts["couple_bytes"],
        "brownian.correlate.self_s": seconds(own, "brownian.correlate"),
        "brownian.block_bytes_peak": store.largest_block * 8 * factors,
        "projection.evolve_terminal.path_steps": counts["evolve_steps"],
        "projection.evolve_terminal.self_s": seconds(own, "projection.evolve_terminal"),
        # Inclusive time: the step's project, drift and diffusion calls count.
        "projection.evolve_terminal.path_steps_per_s":
            rate(counts["evolve_steps"], total.get("projection.evolve_terminal", 0)),
        "projection.project.calls": calls.get("projection.project", 0),
        "projection.project.self_s": seconds(own, "projection.project"),
        "projection.diffusion_bar.self_s": seconds(own, "projection.diffusion_bar"),
        "models.f.calls": calls.get("models.f", 0),
        "models.f.self_s": seconds(own, "models.f"),
        "reference.implicit_cir_step.calls": calls.get("reference.implicit_cir_step", 0),
        "reference.implicit_cir_step.path_steps": counts["implicit_steps"],
        "reference.implicit_cir_step.self_s": seconds(own, "reference.implicit_cir_step"),
        "reference.implicit_cir_step.path_steps_per_s":
            rate(counts["implicit_steps"], own.get("reference.implicit_cir_step", 0)),
        "mlmc.mlmc_estimate.self_s": seconds(own, "mlmc.mlmc_estimate"),
        "mlmc.payoff_spread.self_s": seconds(own, "mlmc.payoff_spread"),
        "mlmc.implicit_price.self_s": seconds(own, "mlmc.implicit_price"),
        "convergence.run_convergence_study.self_s":
            seconds(own, "convergence.run_convergence_study"),
        "convergence.fit_rate.self_s": seconds(own, "convergence.fit_rate"),
        "config.load_config.s": seconds(total, "config.load_config"),
        "config.build.s": seconds(total, "config.build"),
        "cli.write.s": seconds(total, "cli.write"),
        "cli.bytes_written": counts["bytes_written"],
        "trace.wall_s": wall_ns * _NS,
        # Self times add up to the time covered by root spans.
        "trace.attributed_s": roots * _NS,
        "trace.unattributed_s": (wall_ns - roots) * _NS,
        "trace.spans": len(store.names),
    }
