"""The benchmark's span tracer stays in step with the program.

`bench/spans.py` wraps program functions by module and attribute name and
reads some of their arguments by parameter name.  A rename in the program
would break traced benchmark runs without failing any other test, so these
checks read the tracer's own target list and resolve it against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Parameters that the tracer's work counters read, per traced function.
COUNTED_ARGUMENTS = {
    ("hamiltonian", "eval_lift"): ("z",),
    ("flow", "integrate_flow"): ("z0", "t0", "t1", "settings", "with_jacobian"),
    ("genfun", "solve_midpoint"): ("b",),
    ("translated", "ShiftedGenFunFamily.evaluate"): ("x",),
    ("translated", "direct_translated_points"): ("sphere_count", "t_count", "keep_per_seed"),
    ("translated", "find_critical_rays"): ("sphere_count", "t_count", "keep_per_seed"),
}


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def _resolve(mod_name: str, attr: str):
    owner = importlib.import_module(f"contactmorse.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_span_target_is_callable(targets):
    assert targets
    for mod_name, attr in targets:
        assert callable(_resolve(mod_name, attr)), (mod_name, attr)


@pytest.mark.parametrize("target", sorted(COUNTED_ARGUMENTS), ids=".".join)
def test_counted_arguments_are_parameters(target, targets):
    assert target in targets
    params = list(inspect.signature(_resolve(*target)).parameters)
    assert [name for name in COUNTED_ARGUMENTS[target] if name not in params] == []


def test_eval_lift_takes_z_second(targets):
    # the eval_lift counter reads its points positionally, as args[1]
    params = list(inspect.signature(_resolve("hamiltonian", "eval_lift")).parameters)
    assert params[:3] == ["spec", "z", "t"]
