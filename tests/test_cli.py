import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from contactmorse import cli
from contactmorse import config as cfgm
from contactmorse import translated
from contactmorse.config import ConfigError, load_config, parse_config
from contactmorse.flow import IntegratorSettings
from contactmorse.translated import SweepParams

from oracles import csv_writer_records


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = {"n": 2, "mode": "sphere", "hamiltonian": {"quadratic": [0.3, 0.7]}}


def _corpus_config(**over):
    cfg = {
        "schema_version": 1,
        "n": 2,
        "mode": "sphere",
        "routes": "both",
        "hamiltonian": {
            "quadratic": [0.3, 0.7],
            "perturbations": [
                {"amplitude": 0.05, "z_powers": [2, 0], "zbar_powers": [1, 0]},
                {"amplitude": 0.05, "z_powers": [0, 2], "zbar_powers": [0, 1]},
            ],
        },
        "seeds": {"sphere_count": 48, "t_count": 16, "keep_per_seed": 3},
        "integrator": {"steps_per_unit": 16},
    }
    cfg.update(over)
    return cfg


def test_minimal_config_fills_defaults():
    cfg = parse_config(dict(MINIMAL))
    assert cfg.n == 2
    assert cfg.params.routes == "both"
    assert translated.ROTATION_PIECES == 4
    assert cfg.params.sphere_count == 256
    assert cfg.params.t_count == 64
    assert translated._NEWTON_TOL == 1e-10
    assert cfg.hamiltonian.quadratic == (0.3, 0.7)


def test_every_sweep_param_has_one_json_key():
    base = parse_config(dict(MINIMAL)).params
    assert base == replace(SweepParams(), sphere_count=128 * MINIMAL["n"])
    targets = list(cfgm._SCALARS.values())
    for f in fields(SweepParams):
        if f.name not in ("mode", "routes"):
            assert targets.count(f.name) == 1, f.name
    # writing a new value at each location moves its field and no other
    for location, name in cfgm._SCALARS.items():
        if name in ("mode", "routes") or not hasattr(base, name):
            continue  # str choices, or a RunConfig field
        value = getattr(base, name) + 3
        data = json.loads(json.dumps(MINIMAL))
        section, _, key = location.rpartition(".")
        (data.setdefault(section, {}) if section else data)[key] = value
        assert parse_config(data).params == replace(base, **{name: value}), location


def test_unknown_keys_rejected():
    bad = dict(MINIMAL)
    bad["sphere_count"] = 10
    with pytest.raises(ConfigError, match="sphere_count"):
        parse_config(bad)
    bad2 = dict(MINIMAL)
    bad2["hamiltonian"] = {"quadratic": [0.3, 0.7], "extra": 1}
    with pytest.raises(ConfigError, match="extra"):
        parse_config(bad2)


def test_rotation_pieces_validated():
    """The rotation links and the C^1 bound are constants of the genfun
    route: a config that sets either, even to its value, names an unknown
    key."""
    for key, value in (("rotation_pieces", 4), ("subdivision_delta", 1.0)):
        bad = dict(MINIMAL)
        bad[key] = value
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            parse_config(bad)


def test_projective_requires_symmetry():
    bad = {
        "n": 2,
        "mode": "projective",
        "hamiltonian": {
            "quadratic": [0.3, 0.7],
            "perturbations": [
                {"amplitude": 0.05, "z_powers": [1, 0], "zbar_powers": [0, 0]}
            ],
        },
    }
    with pytest.raises(ConfigError, match="Z2-symmetric"):
        parse_config(bad)


def test_parse_error_carries_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "n": 2,\n  "mode" "sphere"\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_schema_version_checked():
    bad = dict(MINIMAL)
    bad["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(bad)


def test_run_corpus_sphere(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_corpus_config()))
    status = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert status == cli.EXIT_OK
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "bound_outcome = met" in report
    assert "index_jump = 4" in report
    csv_text = (tmp_path / "out" / "records.csv").read_text()
    assert csv_text.count("\n") >= 3  # header + >=2 records
    assert ",both" in csv_text


def test_run_is_deterministic(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_corpus_config(routes="direct")))
    cli.main(["run", str(path), "--out", str(tmp_path / "out1")])
    cli.main(["run", str(path), "--out", str(tmp_path / "out2")])
    csv1 = (tmp_path / "out1" / "records.csv").read_bytes()
    csv2 = (tmp_path / "out2" / "records.csv").read_bytes()
    assert csv1 == csv2
    rep1 = (tmp_path / "out1" / "report.txt").read_bytes()
    rep2 = (tmp_path / "out2" / "report.txt").read_bytes()
    assert rep1 == rep2


def test_run_constant_hamiltonian_exits_bounds_not_asserted(tmp_path):
    cfg = {
        "n": 2,
        "mode": "sphere",
        "routes": "direct",
        "hamiltonian": {"quadratic": [0.5, 0.5]},
        "seeds": {"sphere_count": 64, "t_count": 32},
        "integrator": {"steps_per_unit": 16},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    status = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert status == cli.EXIT_BOUNDS_NOT_ASSERTED
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "continuum_suspected = true" in report
    assert "sphere_count = suppressed" in report
    assert "bound_outcome = not_asserted" in report


def test_cli_route_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_corpus_config()))
    status = cli.main(
        ["run", str(path), "--out", str(tmp_path / "out"), "--routes", "direct"]
    )
    assert status == cli.EXIT_OK
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "routes = direct" in report
    assert "genfun_records" not in report


@pytest.mark.parametrize("routes", ["direct", "genfun", "both"])
def test_every_route_rejects_too_few_sphere_seeds(tmp_path, capsys, routes):
    config = Path(__file__).resolve().parents[1] / "configs" / "rp3-sym-eps0.05.json"
    raw = json.loads(config.read_text())
    raw["seeds"]["sphere_count"] = 4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    status = cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--routes", routes])
    assert status == cli.EXIT_ERROR
    assert "resolution too small" in capsys.readouterr().err


def test_mode_override(tmp_path, capsys):
    """--mode replaces the config's mode field.  The projective rp3 config
    counted on the sphere meets the sphere bound with its 8 records and has
    no projective count; the diag config, whose h is not Z2-symmetric, fails
    its projective parse and the run writes nothing."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    out = tmp_path / "sphere"
    status = cli.main(["run", str(configs / "rp3-sym-eps0.05.json"), "--out", str(out),
                       "--mode", "sphere", "--routes", "direct"])
    assert status == cli.EXIT_OK
    report = (out / "report.txt").read_text().splitlines()
    for line in ("mode = sphere", "sphere_count = 8", "bound_outcome = met"):
        assert line in report, line
    assert not any(line.startswith("projective_count") for line in report)
    capsys.readouterr()
    out = tmp_path / "projective"
    status = cli.main(["run", str(configs / "diag-0.3-0.7-eps0.05.json"), "--out", str(out),
                       "--mode", "projective"])
    assert status == cli.EXIT_ERROR
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: projective mode: Hamiltonian is not Z2-symmetric: its odd part has "
        "coefficient 5.000e-02 on x1^3"]


@pytest.mark.parametrize("count", [1, 5, 7])
def test_config_rejects_too_few_sphere_seeds(tmp_path, capsys, count):
    """A sphere_count of 1-7 fails config validation, naming its JSON
    location, and the run writes nothing; the prefilter keeps its own check
    for API callers."""
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "rp3-sym-eps0.05.json").read_text())
    raw["seeds"]["sphere_count"] = count
    with pytest.raises(ConfigError, match=r"^seeds\.sphere_count"):
        parse_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
    assert "seeds.sphere_count" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="resolution too small"):
        translated._prefilter_seeds(parse_config(dict(MINIMAL)).hamiltonian,
                                    IntegratorSettings(), count, 8, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_or_missing_sphere_count_is_the_default(n):
    base = {"n": n, "mode": "sphere", "hamiltonian": {"quadratic": [0.3] * n}}
    for seeds in ({}, {"sphere_count": 0}):
        assert parse_config({**base, "seeds": seeds}).params.sphere_count == 128 * n
    assert parse_config({**base, "seeds": {"sphere_count": 8}}).params.sphere_count == 8


@pytest.mark.parametrize("n", [1, 3])
def test_default_grid_uses_128n_sphere_seeds(n):
    """The routes' default grid follows the config's rule: 128 n sphere
    seeds at every n."""
    spec = parse_config({"n": n, "hamiltonian": {"quadratic": [0.3] * n}}).hamiltonian
    q, _ = translated._prefilter_seeds(spec, IntegratorSettings(), SweepParams().sphere_count, 4, 1)
    assert len(q) == 128 * n


@pytest.mark.parametrize("routes", ["both", "direct", "genfun"])
def test_missed_antipode_blames_the_seed_grid(tmp_path, capsys, routes):
    """A 16-seed grid misses the antipode of a record of the symmetric rp3
    spec: the run exits 1 with an error that names seeds.sphere_count."""
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "rp3-sym-eps0.05.json").read_text())
    raw["seeds"] = {"sphere_count": 16, "t_count": 16, "keep_per_seed": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = str(tmp_path / "out")
    assert cli.main(["run", str(path), "--out", out, "--routes", routes]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "no antipodal partner: the seed grid missed it; raise seeds.sphere_count" in err


def test_small_continuum_dump_marks_records_degenerate(tmp_path):
    """A continuum sampled by fewer records than continuum_suspected needs
    reads as a route mismatch; its dump marks every record degenerate, and
    its report.txt still shows each route's counts."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 1, "hamiltonian": {"quadratic": [0.3]},
                                "seeds": {"sphere_count": 8, "t_count": 8, "keep_per_seed": 2}}))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_ROUTE_DISAGREEMENT
    records = [line for line in (out / "route_disagreement.txt").read_text().splitlines()
               if line.startswith("t=")]
    assert len(records) == 32
    assert all(" nondegenerate=false route=" in line for line in records)
    report = (out / "report.txt").read_text().splitlines()
    detection = report[report.index("[detection]") + 1:report.index("[index]") - 1]
    assert detection == [
        "records = 0", "continuum_suspected = false", "event_ts = ", "sphere_count = suppressed",
        "direct_converged = 16", "direct_records = 16", "genfun_converged = 16",
        "genfun_inconsistent = 0", "genfun_records = 16", "subdivision_pieces = 4",
        "total_space_dim = 30"]
    assert "exit_status = 3" in report


def test_cli_config_error_exit(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 0, "hamiltonian": {"quadratic": []}}))
    assert cli.main(["run", str(path)]) == cli.EXIT_ERROR


def test_records_csv_shape(tmp_path):
    from contactmorse.report import records_csv
    from contactmorse.translated import TranslatedPointRecord

    recs = [
        TranslatedPointRecord((0.0, 1.0, 0.0, 0.0), 0.5, 1e-12, 1e-12, True, "both"),
        TranslatedPointRecord((1.0, 0.0, 0.0, 0.0), 0.25, 1e-12, 0.0, None, "direct"),
    ]
    text = records_csv(recs, 2)
    lines = text.strip().split("\n")
    assert lines[0] == "q_x1,q_x2,q_y1,q_y2,t,residual_fixed,residual_g,nondegenerate,route"
    # sorted by t
    assert lines[1].endswith("indeterminate,direct")
    assert lines[2].endswith("true,both")


def test_records_csv_matches_csv_writer():
    """records_csv joins the formatted fields itself; its bytes are those of
    csv.writer on the same fields (tests/oracles.py:csv_writer_records)."""
    from contactmorse.report import records_csv
    from contactmorse.translated import TranslatedPointRecord

    recs = [
        TranslatedPointRecord((-0.0, 5e-324, 1e300, 1.0), 0.0, 0.0, -0.0, True, "both"),
        TranslatedPointRecord((2.0, -3.0, 0.1, -1e-300), 0.25, 1e-12, 5e-324, False, "direct"),
        TranslatedPointRecord(tuple(np.float64([0.6, 0.0, -0.8, 3.0])), np.float64(0.5),
                              np.float64(3e-11), np.float64(7.0), None, "genfun"),
    ]
    for n, records in ((2, recs), (2, []), (1, [TranslatedPointRecord(
            (np.float64(-0.0), 1.0), 0.75, 4.0, 1e-16, None, "direct")])):
        text = records_csv(records, n)
        assert text == csv_writer_records(records, n)
    assert "-0.0,5e-324,1e+300,1.0," in records_csv(recs, 2)


@pytest.mark.parametrize(
    "field, over",
    [
        ("seeds.t_count", {"seeds": {"sphere_count": 48, "t_count": 0, "keep_per_seed": 3}}),
        ("seeds.keep_per_seed",
         {"seeds": {"sphere_count": 48, "t_count": 16, "keep_per_seed": 0}}),
        ("chunk", {"chunk": 0}),  # no longer a config key
        ("seeds.sphere_count",
         {"seeds": {"sphere_count": -5, "t_count": 16, "keep_per_seed": 3}}),
        ("integrator.steps_per_unit", {"integrator": {"steps_per_unit": -1}}),
        # fixed tolerances, no longer config keys, each at a valid value
        ("tolerances", {"tolerances": {"newton": 1e-9}}),
        ("continuum_factor", {"continuum_factor": 20.0}),
        ("calibration_tol", {"integrator": {"steps_per_unit": 16, "calibration_tol": 1e-9}}),
        # the Hamiltonian is autonomous: no time profile, not even the former default
        ("time_profile", {"hamiltonian": {**_corpus_config()["hamiltonian"],
                                          "time_profile": "constant"}}),
        # True == 1.0 == 1, but only the int is the schema version
        ("schema_version", {"schema_version": True}),
        ("schema_version", {"schema_version": 1.0}),
        # former genfun knobs, each at its former default
        ("rotation_pieces", {"rotation_pieces": 4}),
        ("subdivision_delta", {"subdivision_delta": 1.0}),
    ],
)
def test_cli_rejects_zero_counts(tmp_path, capsys, field, over):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_corpus_config(**over)))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, number", [
    ("hamiltonian.perturbations[1].amplitude", "NaN"),
    ("hamiltonian.perturbations[1].amplitude", "1e999"),
    ("hamiltonian.perturbations[1].amplitude", "-Infinity"),
    ("hamiltonian.perturbations[1].amplitude", "1" + "0" * 400),
    ("hamiltonian.quadratic", "1" + "0" * 400),
], ids=["amplitude-nan", "amplitude-inf", "amplitude-minus-inf", "amplitude-huge-int",
        "quadratic-huge-int"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, field, number):
    """json reads NaN, infinities and integers beyond the float range as
    numbers; a Hamiltonian number that is not a finite float fails like any
    bad field, not with a traceback."""
    cfg = _corpus_config()
    if field == "hamiltonian.quadratic":
        cfg["hamiltonian"]["quadratic"][0] = "NUMBER"
    else:
        cfg["hamiltonian"]["perturbations"][1]["amplitude"] = "NUMBER"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"NUMBER"', number))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_config_key_is_set_by_a_committed_config():
    """A scalar key that no file in configs/ sets is a knob that only tests
    turn: it belongs in the program as a constant."""
    configs = [json.loads(path.read_text()) for path in CONFIGS.glob("*.json")]
    assert configs

    def sets(data, location):
        section, _, key = location.rpartition(".")
        return key in (data.get(section, {}) if section else data)

    assert [loc for loc in cfgm._SCALARS if not any(sets(c, loc) for c in configs)] == []


def test_timings_list_every_stage(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    seeds = {"sphere_count": 16, "t_count": 8, "keep_per_seed": 2}
    path.write_text(json.dumps(_corpus_config(routes="direct", seeds=seeds)))
    cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    lines = (tmp_path / "out" / "timings.txt").read_text().splitlines()[1:]
    assert [line.split(" = ")[0] for line in lines] == [
        "calibration", "detection", "detection.direct", "write"]
    # with both routes, each route's own wall time gets its own line
    path.write_text(json.dumps(_corpus_config(routes="both", seeds=seeds)))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "both")]) == cli.EXIT_OK
    lines = (tmp_path / "both" / "timings.txt").read_text().splitlines()[1:]
    stages = dict(line.split(" = ") for line in lines)
    assert list(stages) == [
        "calibration", "detection", "detection.direct", "detection.genfun", "write"]
    assert float(stages["detection.direct"]) > 0.0 and float(stages["detection.genfun"]) > 0.0
    # the routes run at the same time, each inside detection; each line is
    # rounded to the millisecond
    for route in ("direct", "genfun"):
        assert float(stages[f"detection.{route}"]) <= float(stages["detection"]) + 0.002
    # a route disagreement still reports the routes that ran
    def disagreeing_sweep(spec, params, settings):
        return translated.SweepReport(route_seconds={"direct": 0.5, "genfun": 0.25},
                                      disagreement="forced")

    monkeypatch.setattr(cli, "sweep_and_count", disagreeing_sweep)
    status = cli.main(["run", str(path), "--out", str(tmp_path / "exit3")])
    assert status == cli.EXIT_ROUTE_DISAGREEMENT
    lines = (tmp_path / "exit3" / "timings.txt").read_text().splitlines()[1:]
    assert lines[2:4] == ["detection.direct = 0.500", "detection.genfun = 0.250"]


def test_direct_route_error_in_worker_exits_1(tmp_path, monkeypatch, capsys):
    # with both routes the direct route runs in a forked worker; its error
    # reaches the error status with its message, and the worker is reaped
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(translated, "_direct_newton", boom)
    path = tmp_path / "cfg.json"
    seeds = {"sphere_count": 16, "t_count": 8, "keep_per_seed": 2}
    path.write_text(json.dumps(_corpus_config(routes="both", seeds=seeds)))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_ERROR
    assert "error: boom" in capsys.readouterr().err.splitlines()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_calibration_failure_writes_empty_report(tmp_path, monkeypatch):
    # a failed Reeb calibration skips detection but still writes the report,
    # with the index data and the bound the run would have checked
    config = Path(__file__).resolve().parents[1] / "configs" / "rp3-sym-eps0.05.json"
    monkeypatch.setattr(cli, "_calibration_check", lambda n, settings: 1.0)
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out)]) == cli.EXIT_ERROR
    report = (out / "report.txt").read_text()
    for line in ("calibration_ok = false", "bound_outcome = not_asserted",
                 "bound_threshold = 4", "[index]", "exit_status = 1"):
        assert line in report.splitlines(), line
    assert (out / "records.csv").read_text().count("\n") == 1
    lines = (out / "timings.txt").read_text().splitlines()[1:]
    assert [line.split(" = ")[0] for line in lines] == ["calibration", "write"]


def test_nan_calibration_error_fails_the_gate(tmp_path, monkeypatch):
    # NaN compares false with everything, so the gate must still reject it
    config = Path(__file__).resolve().parents[1] / "configs" / "rp3-sym-eps0.05.json"
    monkeypatch.setattr(cli, "_calibration_check", lambda n, settings: float("nan"))
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out)]) == cli.EXIT_ERROR
    report = (out / "report.txt").read_text().splitlines()
    for line in ("calibration_ok = false", "bound_outcome = not_asserted", "exit_status = 1"):
        assert line in report, line
    assert (out / "records.csv").read_text().count("\n") == 1
    lines = (out / "timings.txt").read_text().splitlines()[1:]
    assert "detection" not in [line.split(" = ")[0] for line in lines]


def test_too_few_records_fail_the_bound(tmp_path, monkeypatch):
    # one non-degenerate translated point on S^3 is below the bound of 2
    record = translated.TranslatedPointRecord(
        q=(1.0, 0.0, 0.0, 0.0), t=0.25, residual_fixed=0.0, residual_g=0.0,
        nondegenerate=True, route="direct",
    )
    monkeypatch.setattr(
        translated, "direct_translated_points",
        lambda *args, **kwargs: translated.DetectionResult([record], False, 1),
    )
    path = tmp_path / "cfg.json"
    seeds = {"sphere_count": 16, "t_count": 8, "keep_per_seed": 2}
    path.write_text(json.dumps(_corpus_config(seeds=seeds)))
    out = tmp_path / "out"
    status = cli.main(["run", str(path), "--out", str(out), "--routes", "direct"])
    assert status == cli.EXIT_ERROR
    report = (out / "report.txt").read_text().splitlines()
    for line in ("sphere_count = 1", "bound_threshold = 2", "bound_outcome = failed",
                 "exit_status = 1"):
        assert line in report, line


def test_unverified_genfun_ray_is_reported_not_classified(tmp_path, monkeypatch):
    # a ray moved off every translated point fails the direct residual, and
    # DPsi - I has no kernel there: the ray must reach the report as
    # inconsistent instead of failing the non-degeneracy classifier
    inner = translated._genfun_newton
    moved = []

    def moving(*args):
        x, t, vals, done = inner(*args)
        if not moved:
            i = np.flatnonzero(done)[0]
            x[i] = 0.0
            x[i, :4] = (0.6, 0.0, 0.8, 0.0)
            t[i] = 0.1
            moved.append(i)
        return x, t, vals, done

    monkeypatch.setattr(translated, "_genfun_newton", moving)
    path = tmp_path / "cfg.json"
    seeds = {"sphere_count": 24, "t_count": 16, "keep_per_seed": 4}
    path.write_text(json.dumps(_corpus_config(seeds=seeds)))
    out = tmp_path / "both"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_ROUTE_DISAGREEMENT
    dump = (out / "route_disagreement.txt").read_text().splitlines()
    assert dump[1:2] == ["[inconsistent]"] and len(dump) == 3
    assert dump[2].startswith("t=0.1 q=[0.6") and dump[2].endswith("route=genfun")
    moved.clear()
    out = tmp_path / "genfun"
    assert cli.main(["run", str(path), "--out", str(out), "--routes", "genfun"]) == cli.EXIT_OK
    assert "genfun_inconsistent = 1" in (out / "report.txt").read_text().splitlines()


def test_genfun_output_bytes_independent_of_chunk(tmp_path, monkeypatch):
    # a start's Newton steps are per-row stacked solves, so the batch it
    # shares with other starts must not move its bits
    path = tmp_path / "cfg.json"
    seeds = {"sphere_count": 24, "t_count": 16, "keep_per_seed": 4}
    path.write_text(json.dumps(_corpus_config(routes="genfun", seeds=seeds)))
    outputs = []
    for chunk in (7, 64, 512):
        monkeypatch.setattr(translated, "_CHUNK", chunk)
        out = tmp_path / f"out{chunk}"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_OK
        outputs.append([(out / name).read_bytes() for name in ("records.csv", "report.txt")])
    assert b",genfun" in outputs[0][0]
    assert outputs[0] == outputs[1] == outputs[2]


def test_genfun_output_bytes_independent_of_blas_threads(tmp_path):
    # the genfun Newton step is a chain of small per-row solves, too small
    # for OpenBLAS to thread, so one and two threads give the same bits
    path = tmp_path / "cfg.json"
    seeds = {"sphere_count": 24, "t_count": 16, "keep_per_seed": 4}
    path.write_text(json.dumps(_corpus_config(routes="genfun", seeds=seeds)))
    src = Path(cli.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "contactmorse", "run", str(path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("records.csv", "report.txt")])
    assert b",genfun" in outputs[0][0]
    assert outputs[0] == outputs[1]


def test_python_m_runs_the_cli(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = {
        "n": 2,
        "mode": "sphere",
        "routes": "direct",
        "hamiltonian": {"quadratic": [0.5, 0.5]},
        "seeds": {"sphere_count": 16, "t_count": 8},
        "integrator": {"steps_per_unit": 16},
    }
    path.write_text(json.dumps(cfg))
    status = cli.main(["run", str(path), "--out", str(tmp_path / "a")])
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "contactmorse", "run", str(path), "--out", str(tmp_path / "b")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert status == cli.EXIT_BOUNDS_NOT_ASSERTED  # a continuum
    assert proc.returncode == status, proc.stderr
    assert (tmp_path / "b" / "records.csv").read_bytes() == (tmp_path / "a" / "records.csv").read_bytes()
