"""Run configuration: a documented, versioned JSON schema.

Scalars get defaults; unknown keys are rejected so typos fail loudly.  The
canonical serialization (sorted keys, compact separators) is what gets
hashed into the report, making every number in a report traceable to the
exact configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .hamiltonian import ContactHamiltonianSpec, PerturbationTerm, TIME_PROFILES
from .translated import SweepParams

SCHEMA_VERSION = 1

MODES = ("sphere", "projective")
ROUTES = ("direct", "genfun", "both")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


def _require_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _get(obj: dict, key: str, default, kind, context: str):
    val = obj.get(key, default)
    if val is None and default is None and key not in obj:
        return None
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(f"{context}.{key} must be {kind.__name__}, got {val!r}")
    return val


@dataclass(frozen=True)
class RunConfig:
    n: int
    mode: str
    routes: str
    hamiltonian: ContactHamiltonianSpec
    rotation_pieces: int = 4
    subdivision_delta: float = 1.0
    sphere_count: int = 0  # 0 means the n-dependent default 128 * n
    t_count: int = 64
    keep_per_seed: int = 4
    newton_tol: float = 1e-10
    grad_tol: float = 1e-9
    verify_tol: float = 1e-6
    match_angular: float = 1e-6
    match_t: float = 1e-6
    dedup_angular: float = 1e-4
    dedup_t: float = 1e-5
    nondeg_tol: float = 1e-7
    nullity_tol: float | None = None
    continuum_factor: float = 10.0
    steps_per_unit: int = 0  # 0 means choose by the halving sweep
    calibration_tol: float = 1e-10
    chunk: int = 512
    raw: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.routes not in ROUTES:
            raise ConfigError(f"routes must be one of {ROUTES}")
        if self.rotation_pieces < 3:
            raise ConfigError("rotation_pieces must be >= 3")
        for name, value in (
            ("seeds.t_count", self.t_count),
            ("seeds.keep_per_seed", self.keep_per_seed),
            ("chunk", self.chunk),
        ):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        for name in (
            "subdivision_delta", "newton_tol", "grad_tol", "verify_tol",
            "match_angular", "match_t", "dedup_angular", "dedup_t",
            "nondeg_tol", "continuum_factor", "calibration_tol",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.nullity_tol is not None and self.nullity_tol <= 0:
            raise ConfigError("nullity_tol must be positive when given")
        if self.mode == "projective":
            from .projective import ProjectiveSpec

            try:
                ProjectiveSpec(self.hamiltonian)
            except ValueError as exc:
                raise ConfigError(f"projective mode: {exc}") from exc

    @property
    def effective_sphere_count(self) -> int:
        return self.sphere_count if self.sphere_count > 0 else 128 * self.n

    def sweep_params(self) -> SweepParams:
        return SweepParams(
            mode=self.mode,
            routes=self.routes,
            rotation_pieces=self.rotation_pieces,
            subdivision_delta=self.subdivision_delta,
            sphere_count=self.effective_sphere_count,
            t_count=self.t_count,
            keep_per_seed=self.keep_per_seed,
            newton_tol=self.newton_tol,
            grad_tol=self.grad_tol,
            verify_tol=self.verify_tol,
            match_angular=self.match_angular,
            match_t=self.match_t,
            dedup_angular=self.dedup_angular,
            dedup_t=self.dedup_t,
            nondeg_tol=self.nondeg_tol,
            continuum_factor=self.continuum_factor,
            nullity_tol=self.nullity_tol,
            chunk=self.chunk,
        )

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _parse_hamiltonian(obj: dict, n: int) -> ContactHamiltonianSpec:
    if not isinstance(obj, dict):
        raise ConfigError("hamiltonian must be an object")
    _require_keys(obj, {"quadratic", "perturbations", "time_profile"}, "hamiltonian")
    quad = obj.get("quadratic", [0.0] * n)
    if not isinstance(quad, list) or len(quad) != n or not all(
        isinstance(c, (int, float)) and not isinstance(c, bool) for c in quad
    ):
        raise ConfigError(f"hamiltonian.quadratic must be a list of {n} numbers")
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
        if not isinstance(amp, (int, float)) or isinstance(amp, bool):
            raise ConfigError(f"{ctx}.amplitude must be a number")
        terms.append(
            PerturbationTerm(float(amp), tuple(p["z_powers"]), tuple(p["zbar_powers"]))
        )
    profile = obj.get("time_profile", "constant")
    if profile not in TIME_PROFILES:
        raise ConfigError(f"hamiltonian.time_profile must be one of {TIME_PROFILES}")
    try:
        return ContactHamiltonianSpec(
            n=n, quadratic=tuple(float(c) for c in quad), terms=tuple(terms),
            time_profile=profile,
        )
    except ValueError as exc:
        raise ConfigError(f"hamiltonian: {exc}") from exc


_TOP_KEYS = {
    "schema_version", "n", "mode", "routes", "hamiltonian", "rotation_pieces",
    "subdivision_delta", "seeds", "tolerances", "integrator", "continuum_factor",
    "chunk",
}
_SEED_KEYS = {"sphere_count", "t_count", "keep_per_seed"}
_TOL_KEYS = {
    "newton", "grad", "verify", "match_angular", "match_t", "dedup_angular",
    "dedup_t", "nondegeneracy", "nullity",
}
_INT_KEYS = {"steps_per_unit", "calibration_tol"}


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _require_keys(data, _TOP_KEYS, "config")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version {version} unsupported (expected {SCHEMA_VERSION})")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("n must be a positive integer")
    if "hamiltonian" not in data:
        raise ConfigError("hamiltonian section is required")
    ham_spec = _parse_hamiltonian(data["hamiltonian"], n)

    seeds = data.get("seeds", {})
    if not isinstance(seeds, dict):
        raise ConfigError("seeds must be an object")
    _require_keys(seeds, _SEED_KEYS, "seeds")
    tols = data.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must be an object")
    _require_keys(tols, _TOL_KEYS, "tolerances")
    integ = data.get("integrator", {})
    if not isinstance(integ, dict):
        raise ConfigError("integrator must be an object")
    _require_keys(integ, _INT_KEYS, "integrator")

    nullity = tols.get("nullity", None)
    if nullity is not None and (
        not isinstance(nullity, (int, float)) or isinstance(nullity, bool)
    ):
        raise ConfigError("tolerances.nullity must be a number or null")

    return RunConfig(
        n=n,
        mode=_get(data, "mode", "sphere", str, "config"),
        routes=_get(data, "routes", "both", str, "config"),
        hamiltonian=ham_spec,
        rotation_pieces=_get(data, "rotation_pieces", 4, int, "config"),
        subdivision_delta=_get(data, "subdivision_delta", 1.0, float, "config"),
        sphere_count=_get(seeds, "sphere_count", 0, int, "seeds"),
        t_count=_get(seeds, "t_count", 64, int, "seeds"),
        keep_per_seed=_get(seeds, "keep_per_seed", 4, int, "seeds"),
        newton_tol=_get(tols, "newton", 1e-10, float, "tolerances"),
        grad_tol=_get(tols, "grad", 1e-9, float, "tolerances"),
        verify_tol=_get(tols, "verify", 1e-6, float, "tolerances"),
        match_angular=_get(tols, "match_angular", 1e-6, float, "tolerances"),
        match_t=_get(tols, "match_t", 1e-6, float, "tolerances"),
        dedup_angular=_get(tols, "dedup_angular", 1e-4, float, "tolerances"),
        dedup_t=_get(tols, "dedup_t", 1e-5, float, "tolerances"),
        nondeg_tol=_get(tols, "nondegeneracy", 1e-7, float, "tolerances"),
        nullity_tol=float(nullity) if nullity is not None else None,
        continuum_factor=_get(data, "continuum_factor", 10.0, float, "config"),
        steps_per_unit=_get(integ, "steps_per_unit", 0, int, "integrator"),
        calibration_tol=_get(integ, "calibration_tol", 1e-10, float, "integrator"),
        chunk=_get(data, "chunk", 512, int, "config"),
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
