"""Report and record serialization.

records.csv and report.txt are bit-stable across reruns of the same config
on the same platform: fixed ordering, shortest round-trip float formatting,
no timestamps.  Wall-clock timings go to a separate timings.txt sidecar that
is explicitly outside the bit-stability contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .config import SCHEMA_VERSION, RunConfig
from .translated import SweepReport, TranslatedPointRecord, bound_threshold, record_sort_key


@dataclass
class RunReport:
    """Everything one run reports, each verdict decided once by cli.run:
    calibration_ok (the calibration gate), sweep.bound_outcome and the
    exit_status they map to.  index_data is the rotation family's inertia
    (translated.index_data); sweep is empty when detection did not run, and
    holds no records when it returned a route disagreement."""

    config: RunConfig
    sweep: SweepReport
    index_data: dict
    calibration_rel_err: float
    calibration_ok: bool
    steps_per_unit: int
    timings: dict[str, float]
    exit_status: int


def _fmt(x: float) -> str:
    return repr(float(x))


def _nondeg_str(flag: bool | None) -> str:
    if flag is None:
        return "indeterminate"
    return "true" if flag else "false"


def records_csv(records: list[TranslatedPointRecord], n: int) -> str:
    """CSV text: q components, t, residuals, nondegeneracy, route; one row
    per record in record_sort_key order.  No field holds a comma, quote or
    line break, so joining the fields gives the bytes of csv.writer."""
    header = (
        [f"q_x{j + 1}" for j in range(n)]
        + [f"q_y{j + 1}" for j in range(n)]
        + ["t", "residual_fixed", "residual_g", "nondegenerate", "route"]
    )
    lines = [",".join(header)]
    for rec in sorted(records, key=record_sort_key):
        fields = [_fmt(v) for v in rec.q]
        fields += [_fmt(rec.t), _fmt(rec.residual_fixed), _fmt(rec.residual_g),
                   _nondeg_str(rec.nondegenerate), rec.route]
        lines.append(",".join(fields))
    lines.append("")
    return "\n".join(lines)


def report_text(report: RunReport) -> str:
    """Structured-text run report; it prints every verdict of the run as
    cli.run decided it."""
    cfg = report.config
    sweep = report.sweep
    lines = [
        "contactmorse run report",
        f"schema_version = {SCHEMA_VERSION}",
        f"config_hash = {cfg.config_hash()}",
        f"config = {cfg.canonical_json()}",
        f"n = {cfg.n}",
        f"mode = {cfg.params.mode}",
        f"routes = {cfg.params.routes}",
        "",
        "[calibration]",
        f"reeb_quarter_turn_rel_err = {_fmt(report.calibration_rel_err)}",
        f"steps_per_unit = {report.steps_per_unit}",
        f"calibration_ok = {'true' if report.calibration_ok else 'false'}",
        "",
        "[detection]",
        f"records = {len(sweep.records)}",
        f"continuum_suspected = {'true' if sweep.continuum_suspected else 'false'}",
        f"event_ts = {','.join(_fmt(t) for t in sweep.event_ts)}",
        f"sphere_count = {sweep.sphere_count if sweep.sphere_count is not None else 'suppressed'}",
    ]
    if cfg.params.mode == "projective":
        pc = sweep.projective_count
        lines.append(f"projective_count = {pc if pc is not None else 'suppressed'}")
    for key in sorted(sweep.route_stats):
        lines.append(f"{key} = {sweep.route_stats[key]}")
    idx = report.index_data
    lines += [
        "",
        "[index]",
        f"index_a0 = {idx['index_a0']}",
        f"nullity_a0 = {idx['nullity_a0']}",
        f"index_a1 = {idx['index_a1']}",
        f"nullity_a1 = {idx['nullity_a1']}",
        f"index_jump = {idx['jump']}",
        f"index_jump_expected = {2 * cfg.n}",
        "",
        "[bounds]",
        f"bound_threshold = {bound_threshold(cfg.params.mode, cfg.n)}",
        f"bound_outcome = {sweep.bound_outcome}",
        "",
        f"exit_status = {report.exit_status}",
        "",
    ]
    return "\n".join(lines)


def timings_text(timings: dict[str, float]) -> str:
    lines = ["# wall-clock seconds per stage (not bit-stable)"]
    for name, seconds in timings.items():
        lines.append(f"{name} = {seconds:.3f}")
    lines.append("")
    return "\n".join(lines)


def write_outputs(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    """Write records.csv and report.txt, then timings.txt, whose "write"
    stage is the time the first two took."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / "records.csv",
        "report": out / "report.txt",
        "timings": out / "timings.txt",
    }
    paths["records"].write_text(records_csv(report.sweep.records, report.config.n))
    paths["report"].write_text(report_text(report))
    report.timings["write"] = time.perf_counter() - t0
    paths["timings"].write_text(timings_text(report.timings))
    return paths
