"""Run one CLI command in this fresh interpreter and record how long it took.

Usage: python3 child.py RECORD_PATH MODE [ARGS...]

MODE is `sampled` (the end-to-end runs: `speed.Sampler` times its probe all
through the process), `plain` (no sampler, no tracer), `traced` (the layer
wrappers from `tracing.py` are installed after the import, and the command
is the root span `cli.<command>`), or `import` (sampled, and only the import
is done: a set-up probe).

Times `import deformed_u2.cli` (set-up) and the command (`cli.main(ARGS)`,
click parsing and rendering included) separately.  The command's output
goes to this process's stdout as it would for a user, and its exit code is
this process's exit code; the timings go to RECORD_PATH as JSON.
"""

import json
import sys
import time

import speed


def main() -> int:
    record_path, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sampler = speed.Sampler() if mode in ("sampled", "import") else None
    if sampler is not None:
        sampler.start()
    if mode == "traced":
        import tracing

        print(tracing.IMPORT_MARK, file=sys.stderr, flush=True)

    t0 = time.perf_counter()
    import deformed_u2.cli as cli

    t1 = time.perf_counter()
    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
        root = tracer.open(f"cli.{args[0]}")
    t2 = time.perf_counter()
    exit_code = 0
    if mode != "import":
        try:
            cli.main(args=args, prog_name="deformed-u2")
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    if tracer is not None:
        tracer.close(root)
    t3 = time.perf_counter()

    record = {
        "module": cli.__file__,
        "import_s": t1 - t0,
        "install_s": t2 - t1,
        "command_s": t3 - t2,
        "in_process_s": t3 - t0,
        "spans": tracer.spans if tracer is not None else [],
    }
    if sampler is not None:
        sampler.stop()
        record.update(
            probes=len(sampler.samples),
            scale=sampler.scale(),
            import_probe_s=sampler.probe_s(t0, t1),
            command_probe_s=sampler.probe_s(t2, t3),
            probe_s=sampler.probe_s(0.0, float("inf")),
        )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, separators=(",", ":"))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
