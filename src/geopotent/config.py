"""The two JSON files a run reads: the run config and the cavity schedule.

Both readers reject unknown keys, so typos fail loudly, and take every
number as a finite JSON number; each record's constructor checks the
values, and every message names the file. A config holds these optional
keys:

    constants      {"gamma": float}
    earth          {"mean_radius", "mass", "mean_density",
                    "surface_first_cosmic_velocity"} (all optional)
    p_g_override   float, Pa; used by the direct problem instead of a
                   profile-derived pressure
    boundaries     [{"name", "radius", "layer_half_thickness"}, ...]; a
                   name is a string with no comma and no line break
                   (any character where str.splitlines() breaks)

A schedule holds every field of a ``CavitySchedule``, and each of its
``segments`` every field of a ``ScheduleSegment``, with ``params`` an
object keyed by the names in ``SEGMENT_PARAMS[kind]``.

The default boundary set ships the core-mantle boundary at 3.48e6 m and
the inner-core boundary at 1.2215e6 m (standard reference Earth values);
override via config when working with another body.
"""

from __future__ import annotations

import json
import math
import os

from .core import (
    DEFAULT_CONSTANTS,
    BoundaryReference,
    CavitySchedule,
    EarthParameters,
    PhysicalConstants,
    Record,
    ScheduleSegment,
    _finite,
    segment_params,
    surface_background,
)
from .errors import (
    ConfigError,
    InputError,
    NonPhysicalValueError,
    OutOfDomainError,
    ScheduleError,
)

ENV_CONFIG = "GEOPOTENT_CONFIG"

DEFAULT_BOUNDARIES = (
    BoundaryReference("CMB", 3.48e6, 1.5e5),
    BoundaryReference("ICB", 1.2215e6, 1.0e5),
)


class RunConfig(Record):
    """The body, constants and reference boundaries of one run.

    ``constants`` is a ``PhysicalConstants``, ``earth`` an
    ``EarthParameters`` whose surface background under
    ``constants.gamma`` exists, ``p_g_override`` None or a positive finite
    pressure in Pa, and ``boundaries`` an iterable of
    ``BoundaryReference``, stored as a tuple. A failure raises
    ``NonPhysicalValueError`` whose message starts with the field's name,
    so a config reader can prefix its file.
    """

    __slots__ = _fields = ("constants", "earth", "p_g_override", "boundaries")

    def __init__(self, constants=DEFAULT_CONSTANTS, earth=EarthParameters(),
                 p_g_override=None, boundaries=DEFAULT_BOUNDARIES):
        if not isinstance(constants, PhysicalConstants):
            raise NonPhysicalValueError(
                f"constants must be a PhysicalConstants, got {constants!r}")
        if not isinstance(earth, EarthParameters):
            raise NonPhysicalValueError(
                f"earth must be an EarthParameters, got {earth!r}")
        try:  # the surface terms under this gamma; g0 divides by R^2
            surface_background(earth, constants.gamma)
        except (NonPhysicalValueError, OutOfDomainError) as exc:
            raise NonPhysicalValueError(f"earth: {exc}") from exc
        if p_g_override is not None and not (_finite(p_g_override)
                                             and p_g_override > 0.0):
            raise NonPhysicalValueError("p_g_override must be positive")
        if not hasattr(boundaries, "__iter__"):
            raise NonPhysicalValueError(
                f"boundaries must be iterable, got {boundaries!r}")
        boundaries = tuple(boundaries)
        for i, boundary in enumerate(boundaries):
            if not isinstance(boundary, BoundaryReference):
                raise NonPhysicalValueError(
                    f"boundaries[{i}] must be a BoundaryReference, got "
                    f"{boundary!r}")
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


def _array(value, where):
    """`value`, which must be a JSON array."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array")
    return value


def _record(cls, obj, where, required=(), text=()):
    """A `cls` built from the JSON object `obj`, keyed by its fields, every
    value a finite number but those in `text`; errors are named `where`."""
    _check_keys(obj, cls._fields, where, required)
    values = {key: obj[key] if key in text else _number(obj, key, where)
              for key in cls._fields if key in obj}
    try:
        return cls(**values)
    except InputError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(data, source="config") -> RunConfig:
    """Build a RunConfig from a parsed JSON object."""
    _check_keys(data, RunConfig._fields, source)
    constants = _record(PhysicalConstants, data.get("constants", {}),
                        f"{source}.constants")
    earth = _record(EarthParameters, data.get("earth", {}), f"{source}.earth")
    p_g_override = data.get("p_g_override")
    if p_g_override is not None:
        p_g_override = _number(data, "p_g_override", source)
    boundaries = DEFAULT_BOUNDARIES
    if "boundaries" in data:
        boundaries = [
            _record(BoundaryReference, item, f"{source}.boundaries[{i}]",
                    required=BoundaryReference._fields, text=("name",))
            for i, item in enumerate(
                _array(data["boundaries"], f"{source}.boundaries"))]
    try:  # the constructor checks the values; the file goes in front
        return RunConfig(constants=constants, earth=earth,
                         p_g_override=p_g_override, boundaries=boundaries)
    except NonPhysicalValueError as exc:
        raise ConfigError(f"{source}.{exc}") from exc


def read_schedule_json(path) -> CavitySchedule:
    """Parse a cavity schedule JSON; errors name the offending segment."""
    data = read_json(path)
    try:
        fields = CavitySchedule._fields  # segments, then the numbers
        _check_keys(data, fields, "schedule", required=fields)
        segments = []
        for i, seg in enumerate(_array(data["segments"], "segments")):
            where = f"segment {i}"
            _check_keys(seg, ScheduleSegment._fields, where,
                        required=ScheduleSegment._fields)
            kind, params = seg["kind"], seg["params"]
            try:
                param_keys = segment_params(kind)  # names the params to read
                _check_keys(params, param_keys, f"{where}.params",
                            required=param_keys)
                segments.append(ScheduleSegment(
                    _number(seg, "t_start", where),
                    _number(seg, "t_end", where), kind,
                    tuple(_number(params, k, f"{where}.params")
                          for k in param_keys)))
            except ScheduleError as exc:
                raise ScheduleError(f"{where}: {exc}") from exc
        return CavitySchedule(segments, *(  # the numbers, in field order
            _number(data, key, "schedule") for key in fields[1:]))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def resolve_config(path_flag) -> RunConfig:
    """Config from the --config flag, the environment, or defaults (in that order)."""
    path = path_flag or os.environ.get(ENV_CONFIG)
    if path:
        return parse_config(read_json(path, ConfigError), source=path)
    return RunConfig()
