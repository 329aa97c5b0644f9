"""The benchmark's span tracer stays in step with the program.

`bench/spans.py` wraps program functions by module and attribute name and
reads some of their arguments by parameter name.  A rename in the program
would break traced benchmark runs without failing any other test, so these
checks read the tracer's own target list and resolve it against the package.
The same list bounds the package's public surface: every public top-level
function or class is either used by the program itself or traced.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
SRC = ROOT / "src" / "contactmorse"

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
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def targets(spans):
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
    assert params == ["spec", "z"]


def test_every_public_definition_is_used_or_traced(targets):
    """A public top-level function or class of a module (outside __init__),
    and a public method or property of such a class, is referenced by name
    in src/ outside its own definition, or is named in the tracer's
    targets.  A helper that only tests call belongs in tests/oracles.py."""
    traced = {(mod_name, name) for mod_name, attr in targets
              for name in (attr, attr.split(".")[0])}
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")
             if path.stem != "__init__"}

    def names(nodes):
        return {sub.id if isinstance(sub, ast.Name) else sub.attr for node in nodes
                for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}

    def parts(node):
        """The pieces a definition's uses are told apart by: a class's
        header and each member statement, or the whole node."""
        if isinstance(node, ast.ClassDef):
            return [(node, [*node.bases, *node.keywords, *node.decorator_list])] + [
                (member, [member]) for member in node.body]
        return [(node, [node])]

    used: dict[str, set] = {}  # name -> ids of the pieces that use it
    definitions = []  # (qualified name, traced key, ids of its own pieces)
    for mod_name, tree in sorted(trees.items()):
        for node in tree.body:
            pieces = parts(node)
            for piece, nodes in pieces:
                for name in names(nodes):
                    used.setdefault(name, set()).add(id(piece))
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions.append((node.name, (mod_name, node.name), {id(p) for p, _ in pieces}))
            if isinstance(node, ast.ClassDef):
                definitions += [(member.name, (mod_name, f"{node.name}.{member.name}"),
                                 {id(member)}) for member in node.body
                                if isinstance(member, ast.FunctionDef)]
    unused = [".".join(key) for name, key, own in definitions
              if not name.startswith("_") and not used.get(name, set()) - own
              and key not in traced]
    assert unused == []


def test_traced_genfun_route_integrates_leaves_once_per_outer_iteration(
    spans, sphere_corpus_spec, settings, tmp_path, monkeypatch
):
    """The tracer counts a leaf integration as an integrate_flow span under
    solve_midpoint; on a small genfun run there is one per family
    evaluation."""
    from contactmorse import translated as tp

    # install rebinds module attributes and methods; monkeypatch puts them back
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "contactmorse" and mod is not None:
            for key, value in list(vars(mod).items()):
                if callable(value):
                    monkeypatch.setattr(mod, key, value)
    for mod_name, attr in spans.TARGETS:
        *cls_path, fn_name = attr.split(".")
        if cls_path:
            owner = _resolve(mod_name, ".".join(cls_path))
            monkeypatch.setattr(owner, fn_name, vars(owner)[fn_name])
    tracer = spans.Tracer()
    spans.install(tracer)

    f_phi = tp.build_phi_genfun(sphere_corpus_spec, settings)
    family = tp.ShiftedGenFunFamily(f_phi, 2, 4)
    tp.find_critical_rays(family, sphere_corpus_spec, settings, sphere_count=8, t_count=8,
                          keep_per_seed=1)
    tracer.dump(tmp_path / "spans.json")
    metrics = spans.layer_metrics(json.loads((tmp_path / "spans.json").read_text()))
    assert metrics["translated.ShiftedGenFunFamily.evaluate.calls"] > 2
    assert metrics["genfun.leaf_integrations_per_outer_iter"] == 1.0
