"""Command-line driver: one batch run per invocation.

Exit status taxonomy (part of the public contract, scripts depend on it):
  0  success: detection ran, bounds asserted and met
  1  error: bad config, a failed calibration or bound, a numerical failure
  2  bounds not asserted: degenerate records or a suspected continuum
  3  route disagreement: the genfun and direct record sets differ
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config, parse_config
from .flow import IntegratorSettings, calibrate_steps_per_unit, integrate_flow
from .hamiltonian import ContactHamiltonianSpec
from .linsymp import mul_i
from .report import RunReport, _nondeg_str, write_outputs
from .translated import ROTATION_PIECES, SweepReport, index_data, sweep_and_count

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUNDS_NOT_ASSERTED = 2
EXIT_ROUTE_DISAGREEMENT = 3

# Exit status of a run whose routes agree, by its sweep's bound_outcome; a
# sweep that returns a disagreement exits EXIT_ROUTE_DISAGREEMENT.
_OUTCOME_EXIT = {"met": EXIT_OK, "failed": EXIT_ERROR, "not_asserted": EXIT_BOUNDS_NOT_ASSERTED}

# Largest error of the Reeb quarter-turn check of a run that goes on to
# detection.
CALIBRATION_GATE = 1e-8


def _calibration_check(n: int, settings: IntegratorSettings) -> float:
    """Integrate h == 1 over a quarter period; the result must be i*z."""
    reeb = ContactHamiltonianSpec(n=n, quadratic=(1.0,) * n)
    z0 = np.zeros(2 * n)
    z0[0] = 1.0
    z1, _ = integrate_flow(reeb, z0, 0.0, 0.25, settings, with_jacobian=False)
    return float(np.linalg.norm(z1 - mul_i(z0)))


def run(config: RunConfig, out_dir: str | Path) -> RunReport:
    """Execute calibration, detection, counting; write report artifacts.

    Each verdict of the run is decided here, once.  A failed calibration
    gate (also a NaN error) skips detection and exits 1; otherwise the
    sweep's bound_outcome maps to the exit status, or 3 when the sweep
    returns a route disagreement, whose dump goes to route_disagreement.txt.
    A run without a sweep reports SweepReport().  timings gets the
    detection stage's wall time, then each route's own wall time in it
    (the two routes run at the same time, see sweep_and_count)."""
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    if config.steps_per_unit > 0:
        steps = config.steps_per_unit
    else:
        steps = calibrate_steps_per_unit(config.hamiltonian)
    settings = IntegratorSettings(steps_per_unit=steps)
    cal_err = _calibration_check(config.n, settings)
    calibration_ok = cal_err <= CALIBRATION_GATE
    timings["calibration"] = time.perf_counter() - t0

    sweep = SweepReport()
    exit_status = EXIT_ERROR
    if calibration_ok:
        t0 = time.perf_counter()
        sweep = sweep_and_count(config.hamiltonian, config.params, settings)
        timings["detection"] = time.perf_counter() - t0
        for route, seconds in sweep.route_seconds.items():
            timings[f"detection.{route}"] = seconds
        exit_status = (EXIT_ROUTE_DISAGREEMENT if sweep.disagreement is not None
                       else _OUTCOME_EXIT[sweep.bound_outcome])

    report = RunReport(
        config=config,
        sweep=sweep,
        index_data=index_data(config.n, ROTATION_PIECES),
        calibration_rel_err=cal_err,
        calibration_ok=calibration_ok,
        steps_per_unit=steps,
        timings=timings,
        exit_status=exit_status,
    )
    paths = write_outputs(report, out_dir)
    if sweep.disagreement is not None:
        _dump_disagreement(sweep, Path(out_dir))
        print(f"route disagreement: {sweep.disagreement}", file=sys.stderr)
        print(f"diagnostic dump written next to {paths['report']}", file=sys.stderr)
    return report


def _dump_disagreement(sweep: SweepReport, out_dir: Path) -> None:
    lines = [sweep.disagreement]
    for key, records in sweep.dump.items():
        lines.append(f"[{key}]")
        for rec in records:
            lines.append(
                f"t={rec.t!r} q={list(rec.q)!r} residual_fixed={rec.residual_fixed!r} "
                f"nondegenerate={_nondeg_str(rec.nondegenerate)} route={rec.route}"
            )
    (out_dir / "route_disagreement.txt").write_text("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="contactmorse",
        description="Detect and count translated points of contactomorphisms "
        "of S^{2n-1} and RP^{2n-1}.",
        epilog="exit status: 0 success, 1 error, 2 bounds not asserted "
        "(degenerate/continuum), 3 route disagreement",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a config file end to end")
    runp.add_argument("config", help="path to the JSON run configuration")
    runp.add_argument("--out", default="out", help="output directory (default: ./out)")
    runp.add_argument("--routes", choices=["direct", "genfun", "both"],
                      help="override the routes field")
    runp.add_argument("--mode", choices=["sphere", "projective"],
                      help="override the mode field")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        overrides = {}
        if args.routes:
            overrides["routes"] = args.routes
        if args.mode:
            overrides["mode"] = args.mode
        if overrides:
            raw = dict(config.raw)
            raw.update(overrides)
            config = parse_config(raw)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        report = run(config, args.out)
    except Exception as exc:  # numerical failures map to the error status
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    out = Path(args.out)
    print(f"records: {len(report.sweep.records)}  "
          f"continuum: {report.sweep.continuum_suspected}  "
          f"exit: {report.exit_status}")
    print(f"wrote {out / 'report.txt'} and {out / 'records.csv'}")
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
