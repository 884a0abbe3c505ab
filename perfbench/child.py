"""Run one sdeproj command in this fresh process and time it from inside.

Usage: python3 child.py SPEC_JSON

The spec (written by run.py) names the source tree, the command, its
experiment file, the mode and where to write the result.  Mode "setup" stops
at the first call into the command's engine (`run_convergence_study`,
`mlmc_estimate` or `implicit_price`), so only set-up is done: interpreter
start, imports, option parsing, config load, and model and plan construction.
Mode "run" dispatches the whole command through the real click entry point
and, when the spec asks for it, records spans at every layer boundary.

The result JSON holds the CLOCK_MONOTONIC time at which set-up ended (the
parent subtracts its spawn time), the dispatch wall time, the CPU time and the
process's peak resident set.
"""
import json
import resource
import sys
import time


class SetupDone(Exception):
    """Raised at engine entry in mode "setup"; nothing is computed or written."""


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import numpy

    import sdeproj
    import sdeproj.cli as cli

    result = {"sdeproj_file": sdeproj.__file__, "numpy": numpy.__version__}
    store = None
    if spec["trace"]:
        import tracer

        store = tracer.SpanStore(spec["run_id"])
        tracer.install(store)

    def engine_entry(fn):
        def entry(*args, **kwargs):
            result.setdefault("setup_done", time.monotonic())
            if spec["mode"] == "setup":
                raise SetupDone
            return fn(*args, **kwargs)
        return entry

    for name in ("run_convergence_study", "mlmc_estimate", "implicit_price"):
        setattr(cli, name, engine_entry(getattr(cli, name)))

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter_ns()
    try:
        cli.main.main(args=[spec["command"], spec["config"]], prog_name="sdeproj",
                      standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except SetupDone:
        code = 0
    wall_ns = time.perf_counter_ns() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    result.update(
        code=code,
        wall_s=wall_ns * 1e-9,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_kib=after.ru_maxrss,  # KiB on Linux
    )
    if store is not None:
        store.write(spec["spans"])
        result["layers"] = tracer.layer_metrics(store, wall_ns, spec["factors"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
