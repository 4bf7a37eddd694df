"""Run configuration: defaults, JSON loading, strict validation.

Config files are JSON with the following optional keys (unknown keys are
rejected so typos fail loudly; every number must be finite):

    constants      {"gamma": float}
    earth          {"mean_radius", "mass", "mean_density",
                    "surface_first_cosmic_velocity"} (all optional)
    p_g_override   float, Pa; used by the direct problem instead of a
                   profile-derived pressure
    boundaries     [{"name", "radius", "layer_half_thickness"}, ...]; a
                   name is a string with no comma and no line break
                   (any character where str.splitlines() breaks)

The default boundary set ships the core-mantle boundary at 3.48e6 m and
the inner-core boundary at 1.2215e6 m (standard reference Earth values);
override via config when working with another body.
"""

from __future__ import annotations

import json
import math
import os

from .core import DEFAULT_CONSTANTS, EarthParameters, PhysicalConstants, Record
from .errors import (
    ConfigError,
    InputError,
    NonPhysicalValueError,
    OutOfDomainError,
)
from .pulse import surface_background
from .solver import BoundaryReference

ENV_CONFIG = "GEOPOTENT_CONFIG"

DEFAULT_BOUNDARIES = (
    BoundaryReference("CMB", 3.48e6, 1.5e5),
    BoundaryReference("ICB", 1.2215e6, 1.0e5),
)


class RunConfig(Record):
    __slots__ = _fields = ("constants", "earth", "p_g_override", "boundaries")

    def __init__(self, constants=DEFAULT_CONSTANTS, earth=EarthParameters(),
                 p_g_override=None, boundaries=DEFAULT_BOUNDARIES):
        self._set(constants, earth, p_g_override, boundaries)


def read_text(path, error=InputError):
    """Text of a UTF-8 file; a file that cannot be read raises `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {path}: not UTF-8 text ({exc.reason} at "
                    f"byte {exc.start})") from None


def read_json(path, error=InputError):
    """Parsed JSON file; an unreadable or malformed file raises `error`."""
    try:
        return json.loads(read_text(path, error))
    except (ValueError, RecursionError) as exc:  # too long ints, deep nesting
        raise error(f"{path}: invalid JSON: {exc}") from None


def _check_keys(obj, allowed, where, required=()):
    """`obj` must be an object with only `allowed` and all `required` keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(missing)}")


def _number(obj, key, where):
    """A finite JSON number (not a string or a bool) as a float."""
    value = obj[key]
    try:  # type(), not isinstance(): a bool is not a number here
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return number


def parse_config(data, source="config") -> RunConfig:
    """Build a RunConfig from a parsed JSON object."""
    _check_keys(data, RunConfig._fields, source)

    constants = DEFAULT_CONSTANTS
    if "constants" in data:
        block = data["constants"]
        _check_keys(block, ("gamma",), f"{source}.constants")
        if "gamma" in block:
            try:
                constants = PhysicalConstants(
                    _number(block, "gamma", f"{source}.constants"))
            except NonPhysicalValueError as exc:
                raise ConfigError(f"{source}.constants: {exc}") from exc

    earth_fields = {}
    if "earth" in data:
        block = data["earth"]
        _check_keys(block, EarthParameters._fields, f"{source}.earth")
        earth_fields = {k: _number(block, k, f"{source}.earth") for k in block}
    try:
        earth = EarthParameters(**earth_fields)
        # its surface terms must be finite too; g0 divides by R^2
        surface_background(earth, constants.gamma)
    except (NonPhysicalValueError, OutOfDomainError) as exc:
        raise ConfigError(f"{source}.earth: {exc}") from exc

    p_g_override = None
    if data.get("p_g_override") is not None:
        p_g_override = _number(data, "p_g_override", source)
        if p_g_override <= 0.0:
            raise ConfigError(f"{source}.p_g_override must be positive")

    boundaries = DEFAULT_BOUNDARIES
    if "boundaries" in data:
        block = data["boundaries"]
        if not isinstance(block, list):
            raise ConfigError(f"{source}.boundaries must be an array")
        parsed = []
        for i, item in enumerate(block):
            where = f"{source}.boundaries[{i}]"
            keys = ("name", "radius", "layer_half_thickness")
            _check_keys(item, keys, where, required=keys)
            try:
                parsed.append(BoundaryReference(
                    item["name"], _number(item, "radius", where),
                    _number(item, "layer_half_thickness", where)))
            except NonPhysicalValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        boundaries = tuple(parsed)

    return RunConfig(constants=constants, earth=earth,
                     p_g_override=p_g_override, boundaries=boundaries)


def load_config(path) -> RunConfig:
    """Load and validate a JSON config file."""
    return parse_config(read_json(path, ConfigError), source=path)


def resolve_config(path_flag) -> RunConfig:
    """Config from the --config flag, the environment, or defaults (in that order)."""
    path = path_flag or os.environ.get(ENV_CONFIG)
    if path:
        return load_config(path)
    return RunConfig()
