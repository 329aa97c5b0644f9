"""One `contactmorse run` in this process, timed, and traced on request.

    python bench/child.py CONFIG OUT_DIR TIMES_JSON [SPANS_JSON]
    python bench/child.py --setup-only CONFIG OUT_DIR TIMES_JSON

Runs `contactmorse.cli.main(["run", CONFIG, "--out", OUT_DIR])` and exits
with its status; with --setup-only the run stops once the config has been
validated, and the child exits with 0.  TIMES_JSON receives CLOCK_MONOTONIC
readings taken when the config has been loaded and validated and when the
run has written its outputs, the import time of the package, and the
process's own CPU time and peak resident memory at the end of the run.
With SPANS_JSON the program's layers are traced (see spans.py) and the spans
are written there after the run.
"""

import json
import os
import sys
import time


def peak_rss_mb() -> float:
    """VmHWM of this process.  It belongs to the address space made at exec,
    unlike ru_maxrss, which a child started by vfork inherits from its parent."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class SetupDone(Exception):
    """Raised after the config is validated, to end a --setup-only run."""


def main(argv: list[str]) -> int:
    setup_only = argv[0] == "--setup-only"
    if setup_only:
        argv = argv[1:]
    config, out_dir, times_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None

    t0 = time.monotonic()
    from contactmorse import cli

    import_s = time.monotonic() - t0
    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    validated = []
    load_config = cli.load_config

    def timed_load_config(path):
        config = load_config(path)
        validated.append(time.monotonic())
        if setup_only:
            raise SetupDone
        return config

    cli.load_config = timed_load_config
    try:
        status = cli.main(["run", config, "--out", out_dir])
    except SetupDone:
        status = 0
    done = time.monotonic()
    cpu = os.times()
    with open(times_path, "w") as fh:
        json.dump({"import_s": import_s, "validated": validated[0] if validated else None,
                   "done": done, "status": status, "cpu_s": cpu.user + cpu.system,
                   "peak_rss_mb": peak_rss_mb()}, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
