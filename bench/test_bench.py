"""Self-tests of the benchmark: config generation, output checks, span metrics.

    python3 -m pytest bench

The check tests start from `testdata/<workload>/`, the outputs of one
`contactmorse run` of each workload's bench config at the default seed, and
break one property at a time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "testdata"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_reproduces_committed_config(name):
    committed = (ROOT / workloads.WORKLOADS[name].committed).read_bytes()
    assert workloads.config_text(name).encode() == committed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_draw_from_the_generic_range(name):
    w = workloads.WORKLOADS[name]
    committed = json.loads(workloads.committed_text(name))
    base = committed["hamiltonian"]
    for seed in range(1, 21):
        cfg = json.loads(workloads.bench_config_text(name, seed))
        assert cfg["seeds"] == (w.bench_grid or committed["seeds"])
        assert {k: v for k, v in cfg.items() if k not in ("hamiltonian", "seeds")} == {
            k: v for k, v in committed.items() if k not in ("hamiltonian", "seeds")
        }
        assert workloads.bench_config_text(name, seed) == workloads.bench_config_text(name, seed)
        ham = cfg["hamiltonian"]
        width = workloads.REEB_HALF_WIDTH if w.equal_weights else workloads.QUADRATIC_HALF_WIDTH
        assert np.all(np.abs(np.subtract(ham["quadratic"], base["quadratic"])) <= width + 1e-12)
        if w.equal_weights:
            assert len(set(ham["quadratic"])) == 1
        assert len(ham.get("perturbations", [])) == len(base.get("perturbations", []))
        for got, ref in zip(ham.get("perturbations", []), base.get("perturbations", [])):
            assert abs(got["amplitude"] - ref["amplitude"]) <= workloads.AMPLITUDE_HALF_WIDTH + 1e-12
            assert (got["z_powers"], got["zbar_powers"]) == (ref["z_powers"], ref["zbar_powers"])
    assert workloads.bench_config_text(name, 1) != workloads.bench_config_text(name, 2)


def test_velocity_matches_finite_differences():
    cfg = json.loads(workloads.bench_config_text("sphere-generic", 3))
    ham = cfg["hamiltonian"]

    def lift(x):  # H(z) = |z|^2 h(z / |z|), written out directly
        z = x[:2] + 1j * x[2:]
        rho = float(np.sum(np.abs(z) ** 2))
        u = z / np.sqrt(rho)
        h = float(np.dot(ham["quadratic"], np.abs(u) ** 2))
        for p in ham["perturbations"]:
            h += p["amplitude"] * np.prod(u ** p["z_powers"] * u.conj() ** p["zbar_powers"]).real
        return rho * h

    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    v = checks.lift_velocity(cfg, x[:, :2] + 1j * x[:, 2:])
    eps = 1e-6
    for row, x0 in enumerate(x):
        grad = np.array([(lift(x0 + eps * e) - lift(x0 - eps * e)) / (2 * eps) for e in np.eye(4)])
        expected = np.pi * 1j * (grad[:2] + 1j * grad[2:])
        assert np.allclose(v[row], expected, atol=1e-7)


def _fixture(tmp_path, name):
    src = DATA / name
    dst = tmp_path / name
    shutil.copytree(src, dst)
    config = json.loads((dst / "config.json").read_text())
    return config, dst / "records.csv", dst / "report.txt"


def _run_checks(name, config, records, report):
    status = int(checks.read_report(report)["exit_status"])
    return checks.check_run(name, config, records, report, status)


def _edit_rows(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_program_outputs_pass(tmp_path, name):
    assert _run_checks(name, *_fixture(tmp_path, name)) == []


def test_rejects_perturbed_q(tmp_path):
    config, records, report = _fixture(tmp_path, "sphere-generic")

    def perturb(lines):
        fields = lines[1].split(",")
        q = np.array([float(v) for v in fields[:4]])
        q[1] += 1e-3
        q /= np.linalg.norm(q)  # stays on the sphere: only the residual can tell
        lines[1] = ",".join([repr(float(v)) for v in q] + fields[4:])
        return lines

    _edit_rows(records, perturb)
    fails = _run_checks("sphere-generic", config, records, report)
    assert any("fixed-point residual" in f for f in fails), fails


def test_rejects_missing_antipode(tmp_path):
    config, records, report = _fixture(tmp_path, "rp3-symmetric")
    _edit_rows(records, lambda lines: lines[:1] + lines[2:])
    _edit_rows(report, lambda lines: [
        "records = 7\n" if line.startswith("records = ") else line for line in lines
    ])
    fails = _run_checks("rp3-symmetric", config, records, report)
    assert any("antipode" in f for f in fails), fails


def test_rejects_continuum_record_off_the_closed_form(tmp_path):
    config, records, report = _fixture(tmp_path, "reeb-continuum")

    def shift_t(lines):
        fields = lines[1].split(",")
        fields[4] = repr(float(fields[4]) + 1e-3)
        lines[1] = ",".join(fields)
        return lines

    _edit_rows(records, shift_t)
    fails = _run_checks("reeb-continuum", config, records, report)
    assert any("closed form" in f for f in fails), fails


def test_layer_metrics_subtract_direct_children():
    names = ["genfun.solve_midpoint", "flow.integrate_flow", "hamiltonian.eval_lift",
             "translated.ShiftedGenFunFamily.evaluate"]
    dump = {
        "names": names,
        "spans": [
            [3, 0.0, 10.0, -1],
            [0, 1.0, 9.0, 0],
            [1, 2.0, 4.0, 1],
            [2, 2.5, 3.0, 2],
            [1, 5.0, 8.0, 1],
            [1, 9.5, 10.0, 0],
        ],
        "counts": {"hamiltonian.eval_lift.rows": 5.0},
    }
    m = spans.layer_metrics(dump)
    assert m["translated.ShiftedGenFunFamily.evaluate.self_s"] == pytest.approx(1.5)
    assert m["genfun.solve_midpoint.self_s"] == pytest.approx(3.0)
    assert m["flow.integrate_flow.self_s"] == pytest.approx(5.0)
    assert m["hamiltonian.eval_lift.ns_per_row"] == pytest.approx(0.1e9)
    assert m["genfun.solve_midpoint.integrations"] == 2
    assert m["genfun.leaf_integrations_per_outer_iter"] == 2.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    layer_names = set(spans.layer_metrics({"names": [], "spans": [], "counts": {}}))
    layer_names |= {"setup.import_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    ops = [{"setup_s": 1.0, "solve_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 4.0}]
    setups = [{"setup_s": 0.5, "import_s": 0.4}, {"setup_s": 0.75, "import_s": 0.4}]
    values = run.end_to_end(ops, setups)
    assert {m["name"] for m in spec["end_to_end"]} == set(values)
    assert values["setup_s"] == 0.75


def test_install_wraps_every_binding():
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import spans
from contactmorse import cli, flow, genfun, projective, translated
tracer = spans.Tracer()
spans.install(tracer)
for mod in (flow, genfun, projective, translated):
    if hasattr(mod, "integrate_flow"):
        assert mod.integrate_flow is flow.integrate_flow, mod
assert hasattr(flow.integrate_flow, "__wrapped__")
assert hasattr(cli.load_config, "__wrapped__") and hasattr(cli.write_outputs, "__wrapped__")
assert hasattr(translated.evaluate_stacked, "__wrapped__")
assert hasattr(projective.ProjectiveSpec.__post_init__, "__wrapped__")
spec = translated.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7))
z = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
flow.integrate_flow(spec, z, 0.0, 0.25, flow.IntegratorSettings(steps_per_unit=16))
m = spans.layer_metrics({"names": tracer.names, "spans": tracer.spans, "counts": tracer.counts})
assert m["flow.integrate_flow.calls"] == 1
assert m["flow.field_evals.jac"] == 3 * 4 * 4, m
assert m["hamiltonian.eval_lift.calls"] == 16 and m["hamiltonian.eval_lift.rows"] == 48, m
"""
    env = run.child_env()
    proc = subprocess.run([sys.executable, "-c", script, str(HERE)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
