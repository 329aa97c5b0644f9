"""Run configuration: a documented, versioned JSON schema.

Every scalar of the schema sets one field, of `translated.SweepParams` or,
for the integrator section, of `RunConfig`, and takes that field's default
and value type.  Unknown keys are rejected so typos fail loudly, and every
error names the JSON location that was written.  The canonical
serialization (sorted keys, compact separators) is what gets hashed into the
report, making every number in a report traceable to the exact
configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .hamiltonian import ContactHamiltonianSpec, PerturbationTerm
from .translated import MIN_SPHERE_SEEDS, SweepParams, sphere_seed_count

SCHEMA_VERSION = 1

MODES = ("sphere", "projective")
ROUTES = ("direct", "genfun", "both")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


def _require_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


@dataclass(frozen=True)
class RunConfig:
    n: int
    hamiltonian: ContactHamiltonianSpec
    params: SweepParams
    steps_per_unit: int = 0  # 0 means choose by the halving sweep
    raw: dict = field(default_factory=dict, compare=False, repr=False)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# JSON location of every scalar -> the SweepParams or RunConfig field it sets.
# The allowed keys of each section come from this table.
_SCALARS = {
    "mode": "mode",
    "routes": "routes",
    "seeds.sphere_count": "sphere_count",
    "seeds.t_count": "t_count",
    "seeds.keep_per_seed": "keep_per_seed",
    "integrator.steps_per_unit": "steps_per_unit",
}
_SECTIONS = dict.fromkeys(loc.partition(".")[0] for loc in _SCALARS if "." in loc)
# The choices of a str field and the minimum of an int one.  A sphere_count
# of 0, its default, stands for 128 n.
_LIMITS = {
    "mode": MODES, "routes": ROUTES, "sphere_count": 0, "t_count": 1, "keep_per_seed": 1,
    "steps_per_unit": 0,
}
_FIELDS = {f.name: f for cls in (SweepParams, RunConfig) for f in fields(cls)}
_TYPES = {**typing.get_type_hints(SweepParams), **typing.get_type_hints(RunConfig)}


def _scalar(data: dict, location: str, name: str):
    """The value at location, or the default of field name when absent."""
    section, _, key = location.rpartition(".")
    obj = data.get(section, {}) if section else data
    if key not in obj:
        return _FIELDS[name].default
    val = obj[key]
    kind = _TYPES[name]
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ConfigError(f"{location} must be {kind.__name__}, got {val!r}")
    limit = _LIMITS[name]
    if kind is str and val not in limit:
        raise ConfigError(f"{location} must be one of {limit}, got {val!r}")
    if kind is int and val < limit:
        raise ConfigError(f"{location} must be >= {limit}, got {val}")
    return val


def _is_finite_number(val) -> bool:
    """val is a JSON number with a finite float value: not a bool, NaN or an
    infinity, nor an integer beyond the float range."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _parse_hamiltonian(obj: dict, n: int) -> ContactHamiltonianSpec:
    if not isinstance(obj, dict):
        raise ConfigError("hamiltonian must be an object")
    _require_keys(obj, {"quadratic", "perturbations"}, "hamiltonian")
    quad = obj.get("quadratic", [0.0] * n)
    if not isinstance(quad, list) or len(quad) != n or not all(map(_is_finite_number, quad)):
        raise ConfigError(f"hamiltonian.quadratic must be a list of {n} finite numbers")
    terms = []
    for i, p in enumerate(obj.get("perturbations", [])):
        ctx = f"hamiltonian.perturbations[{i}]"
        if not isinstance(p, dict):
            raise ConfigError(f"{ctx} must be an object")
        _require_keys(p, {"amplitude", "z_powers", "zbar_powers"}, ctx)
        for key in ("z_powers", "zbar_powers"):
            v = p.get(key)
            if not isinstance(v, list) or len(v) != n or not all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in v
            ):
                raise ConfigError(f"{ctx}.{key} must be a list of {n} nonnegative ints")
        amp = p.get("amplitude")
        if not _is_finite_number(amp):
            raise ConfigError(f"{ctx}.amplitude must be a finite number, got {amp!r}")
        terms.append(
            PerturbationTerm(float(amp), tuple(p["z_powers"]), tuple(p["zbar_powers"]))
        )
    try:
        return ContactHamiltonianSpec(
            n=n, quadratic=tuple(float(c) for c in quad), terms=tuple(terms)
        )
    except ValueError as exc:
        raise ConfigError(f"hamiltonian: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    top = {"schema_version", "n", "hamiltonian"} | {loc.partition(".")[0] for loc in _SCALARS}
    _require_keys(data, top, "config")
    version = data.get("schema_version", SCHEMA_VERSION)
    # type, not isinstance: True == 1.0 == 1, but only the int is the version
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version {version!r} unsupported "
                          f"(expected the integer {SCHEMA_VERSION})")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("n must be a positive integer")
    if "hamiltonian" not in data:
        raise ConfigError("hamiltonian section is required")
    ham_spec = _parse_hamiltonian(data["hamiltonian"], n)
    for section in _SECTIONS:
        obj = data.get(section, {})
        if not isinstance(obj, dict):
            raise ConfigError(f"{section} must be an object")
        keys = {loc.rpartition(".")[2] for loc in _SCALARS if loc.startswith(section + ".")}
        _require_keys(obj, keys, section)

    values = {name: _scalar(data, loc, name) for loc, name in _SCALARS.items()}
    if 0 < values["sphere_count"] < MIN_SPHERE_SEEDS:
        raise ConfigError(f"seeds.sphere_count: resolution too small: need at least "
                          f"{MIN_SPHERE_SEEDS} sphere seeds, or 0 for the default 128 n, "
                          f"got {values['sphere_count']}")
    values["sphere_count"] = sphere_seed_count(values["sphere_count"], n)
    params = SweepParams(**{f.name: values[f.name] for f in fields(SweepParams)})
    if params.mode == "projective":
        from .projective import ProjectiveSpec

        try:
            ProjectiveSpec(ham_spec)
        except ValueError as exc:
            raise ConfigError(f"projective mode: {exc}") from exc
    return RunConfig(
        n=n,
        hamiltonian=ham_spec,
        params=params,
        steps_per_unit=values["steps_per_unit"],
        raw=data,
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON config file.

    Parse errors carry line/column; validation errors name the field.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(data)
