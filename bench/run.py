"""End-to-end and per-layer benchmark of `contactmorse run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's config is generated
from the seed (workloads.py) and run as `contactmorse run` in a child
process (child.py) with one BLAS thread.  The benchmark repeats whole rounds
of two runs until S seconds have passed; the second run of a round must
reproduce the first's records.csv and report.txt byte for byte, and every
run's outputs pass the independent checks of checks.py.  A run that breaks
a check is a failed operation.  Each round ends with eight children that
only start and validate the config, more samples of setup_s.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json (medians over the runs); with --trace 1 the second run
of each round is traced, and the object holds the per-layer
metrics of BENCHMARK.json, taken from the traced runs' spans.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
ROUND = 2  # runs per round; the second reproduces the first's output bytes
SETUPS = 8  # set-up-only children per round, so that setup_s is a median of ten
CHILD_TIMEOUT_S = 170.0
RUN_LIMIT_S = 150.0  # start no round that would likely end after this


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], op_dir: Path, env: dict) -> tuple[int | None, float]:
    """(exit status, spawn time) of a child run in `op_dir`; None when it was
    killed after CHILD_TIMEOUT_S."""
    op_dir.mkdir(parents=True)
    with open(op_dir / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT,
                                env=env, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            return proc.wait(CHILD_TIMEOUT_S), t_spawn
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, t_spawn


def setup_once(config_path: Path, op_dir: Path, env: dict) -> dict:
    """One child that starts, imports contactmorse and validates the config,
    then stops: a sample of setup_s."""
    times_path = op_dir / "times.json"
    status, t_spawn = spawn(["--setup-only", str(config_path), str(op_dir / "out"),
                             str(times_path)], op_dir, env)
    try:
        times = json.loads(times_path.read_text())
        return {"setup_s": times["validated"] - t_spawn, "import_s": times["import_s"]}
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return {"failure": f"set-up-only run in {op_dir.name} (exit {status}): {exc}"}


def run_once(workload: str, config: dict, config_path: Path, op_dir: Path, traced: bool,
             env: dict) -> dict:
    """One `contactmorse run` and its checks."""
    out = op_dir / "out"
    times_path = op_dir / "times.json"
    spans_path = op_dir / "spans.json"
    argv = [str(config_path), str(out), str(times_path)]
    if traced:
        argv.append(str(spans_path))
    status, t_spawn = spawn(argv, op_dir, env)
    op = {"traced": traced, "status": status, "failures": []}
    try:
        times = json.loads(times_path.read_text())
        op["setup_s"] = times["validated"] - t_spawn
        op["solve_s"] = times["done"] - times["validated"]
        op["import_s"] = times["import_s"]
        op["cpu_s"] = times["cpu_s"]
        op["peak_rss_mb"] = times["peak_rss_mb"]
        op["records"] = (out / "records.csv").read_bytes()
        op["report"] = (out / "report.txt").read_bytes()
    except (OSError, KeyError, TypeError, ValueError) as exc:
        op["failures"].append(f"no complete run (exit {status}): {exc}")
        return op
    try:
        op["failures"] += checks.check_run(workload, config, out / "records.csv",
                                           out / "report.txt", status)
    except (ValueError, IndexError, RuntimeError) as exc:  # unreadable outputs
        op["failures"].append(f"outputs not checkable: {exc!r}")
    if traced:
        op["layers"] = spans.layer_metrics(json.loads(spans_path.read_text()))
    return op


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict]]:
    """(program runs, set-up-only runs) of one benchmark run."""
    run_dir = RUNS / f"{workload}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_text = workloads.bench_config_text(workload, seed)
    config_path = run_dir / "config.json"
    config_path.write_text(config_text)
    config = json.loads(config_text)
    env = child_env()
    # Users run from installed bytecode; compile it before the first timed run.
    compileall.compile_dir(ROOT / "src", quiet=1)

    ops: list[dict] = []
    setups: list[dict] = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        reference = None
        for k in range(ROUND):
            op = run_once(workload, config, config_path, run_dir / f"op{len(ops)}",
                          traced=trace and k == ROUND - 1, env=env)
            if "records" in op:
                outputs = (op["records"], op["report"])
                if reference is None:
                    reference = outputs
                elif outputs != reference:
                    op["failures"].append("records.csv/report.txt differ from the "
                                          "round's first run")
            ops.append(op)
            print(f"{workload} seed {seed} run {len(ops)}: exit {op['status']} "
                  f"solve {op.get('solve_s', float('nan')):.3f} s"
                  f"{' traced' if op['traced'] else ''}"
                  + "".join(f"\n  FAIL {f}" for f in op["failures"]), file=sys.stderr)
        for _ in range(SETUPS):
            sample = setup_once(config_path, run_dir / f"setup{len(setups)}", env)
            setups.append(sample)
            if "failure" in sample:  # counts against the round's last program run
                ops[-1]["failures"].append(sample["failure"])
                print(f"  FAIL {sample['failure']}", file=sys.stderr)
        now = time.monotonic()
        if now - start >= seconds or now - start + (now - round_start) > RUN_LIMIT_S:
            return ops, [sample for sample in setups if "failure" not in sample]


def _median(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops)


def end_to_end(ops: list[dict], setups: list[dict]) -> dict[str, float]:
    m = {key: _median(ops, key) for key in ("solve_s", "cpu_s", "peak_rss_mb")}
    m["setup_s"] = _median(ops + setups, "setup_s")
    return m


def per_layer(ops: list[dict], setups: list[dict]) -> dict[str, float]:
    traced = [op for op in ops if op["traced"] and "layers" in op]
    plain = [op for op in ops if not op["traced"]]
    names = traced[0]["layers"].keys()
    m = {name: statistics.median(op["layers"][name] for op in traced) for name in names}
    m["setup.import_s"] = _median(plain + setups, "import_s")
    m["trace.overhead_s"] = _median(traced, "solve_s") - _median(plain, "solve_s")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "contactmorse" / "cli.py").is_file():
        print(f"error: no contactmorse sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    ops, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(1 for op in ops if op["failures"])
    # Metrics come from the runs that passed; when none did, from every run
    # that finished, so that the failure still reports what it cost.
    pool = [op for op in ops if not op["failures"]] or [op for op in ops if "solve_s" in op]
    kinds = {op["traced"] for op in pool if "layers" in op or not op["traced"]}
    if kinds != ({False, True} if args.trace else {False}):
        print("error: no run finished", file=sys.stderr)
        return 1
    values = (per_layer if args.trace else end_to_end)(pool, setups)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
