"""Every record type keeps the behaviour it had as a frozen dataclass.

Result records are named tuples; the validated domain types are
``core.Record`` classes. Each must keep its field names in order and its
defaults, build from positional and keyword arguments alike, compare and
hash as before, and refuse attribute assignment.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from geopotent import (
    DEFAULT_CONSTANTS,
    AnomalySignal,
    AnomalySource,
    BoundaryReference,
    CavitySchedule,
    DensityTrend,
    DetectabilityRow,
    EarthParameters,
    FieldSample,
    FieldTable,
    GradPResult,
    HomogeneityBoundReport,
    InversionResult,
    PhysicalConstants,
    PotentialBreakdown,
    PulseSample,
    PulseTable,
    RadialProfile,
    ScheduleSegment,
    SensitivityPair,
    UniformSphere,
)
from geopotent.config import DEFAULT_BOUNDARIES, RunConfig, parse_config
from geopotent.errors import ConfigError, NonPhysicalValueError

SEGMENT = ScheduleSegment(0.0, 10.0, "constant", (500.0,))
EARTH = (6.371e6, 5.9737e24, 5515.0, 7910.0)

# class: (field names, defaults by name, values, values that differ)
RECORDS = {
    PhysicalConstants: (
        ("gamma",), {"gamma": 6.6743e-11}, (6.6743e-11,), (6.7e-11,)),
    UniformSphere: (("mass", "radius"), {}, (1e12, 500.0), (2e12, 500.0)),
    EarthParameters: (
        ("mean_radius", "mass", "mean_density",
         "surface_first_cosmic_velocity"),
        dict(zip(("mean_radius", "mass", "mean_density",
                  "surface_first_cosmic_velocity"), EARTH)),
        EARTH, (6.4e6,) + EARTH[1:]),
    RadialProfile: (
        ("radii", "densities", "pressures"), {},
        ((0.0, 1.0, 2.0, 3.0), (4.0, 3.0, 2.0, 1.0), (4.0, 3.0, 2.0, 1.0)),
        ((0.0, 1.0, 2.0, 3.0), (4.0, 3.0, 2.0, 1.0), (4.0, 3.0, 2.0, 0.0))),
    PotentialBreakdown: (
        ("u_surface", "equipotential_surface", "compression_potential"), {},
        (1.0, 2.0, 0.5), (1.0, 2.0, 0.0)),
    InversionResult: (
        ("r0", "depth", "trend"), {},
        (3.5e6, 2.8e6, DensityTrend.DECREASING_OUTWARD),
        (3.5e6, 2.8e6, DensityTrend.UNIFORM)),
    AnomalySource: (
        ("depth", "radius", "density_contrast"), {},
        (5000.0, 500.0, -2700.0), (5000.0, 500.0, 2700.0)),
    ScheduleSegment: (
        ("t_start", "t_end", "kind", "params"), {},
        (0.0, 10.0, "constant", (500.0,)), (0.0, 10.0, "constant", (600.0,))),
    CavitySchedule: (
        ("segments", "source_mass", "observer_radius",
         "host_density_contrast"), {},
        ((SEGMENT,), 1e12, 5000.0, -2700.0), ((SEGMENT,), 1e12, 6000.0, -2700.0)),
    BoundaryReference: (
        ("name", "radius", "layer_half_thickness"), {},
        ("CMB", 3.48e6, 1.5e5), ("ICB", 3.48e6, 1.5e5)),
    RunConfig: (
        ("constants", "earth", "p_g_override", "boundaries"),
        {"constants": DEFAULT_CONSTANTS, "earth": EarthParameters(),
         "p_g_override": None, "boundaries": DEFAULT_BOUNDARIES},
        (PhysicalConstants(6.7e-11), EarthParameters(), 1e11, ()),
        (PhysicalConstants(6.7e-11), EarthParameters(), 2e11, ())),
    GradPResult: (
        ("radius_at_max", "pressure_at_max", "gradient_magnitude"), {},
        (1.0, 2.0, 3.0), (1.0, 2.0, 4.0)),
    HomogeneityBoundReport: (
        ("integral_side", "uniform_side", "holds", "relative_gap"), {},
        (1.0, 2.0, True, -0.5), (1.0, 2.0, False, -0.5)),
    SensitivityPair: (
        ("k1", "k2", "ratio"), {}, (1.0, 2.0, 0.5), (1.0, 4.0, 0.25)),
    AnomalySignal: (
        ("delta_u", "delta_g", "delta_v_s", "relative_u", "relative_g"), {},
        (1.0, 2.0, 3.0, 4.0, 5.0), (1.0, 2.0, 3.0, 4.0, 6.0)),
    DetectabilityRow: (
        ("offset", "relative_u", "relative_g", "advantage", "delta_u",
         "delta_g", "delta_v_s"), {},
        (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)),
    PulseSample: (
        ("t", "source_radius", "potential", "delta_u", "delta_g", "delta_v_s"),
        {}, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (1.0, 2.0, 3.0, 4.0, 5.0, 7.0)),
    FieldSample: (
        ("radius", "potential", "gravity", "equipotential_velocity",
         "kinetic_potential"), {},
        (1.0, 2.0, 3.0, 4.0, 5.0), (1.0, 2.0, 3.0, 4.0, 6.0)),
    PulseTable: (
        PulseSample._fields, {}, ((1.0, 2.0),) * 6, ((1.0, 3.0),) * 6),
    FieldTable: (
        FieldSample._fields, {}, (np.array([1.0, 2.0]),) * 5,
        (np.array([1.0, 3.0]),) * 5),
}

# eq=False dataclasses that defined __eq__ but not __hash__
UNHASHABLE = (PulseTable, FieldTable)


def same(stored, value):
    if isinstance(stored, np.ndarray):
        return np.array_equal(stored, value)
    return stored == value


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_its_dataclass_behaviour(cls):
    names, defaults, values, other = RECORDS[cls]
    assert cls._fields == names

    # positional and keyword construction give the same record
    record = cls(*values)
    assert all(same(getattr(record, n), v) for n, v in zip(names, values))
    assert cls(**dict(zip(names, values))) == record
    assert record == cls(*values)
    assert record != cls(*other)
    assert not record != cls(*values)

    # the same defaults: trailing fields with a default may be left out,
    # and a field without one may not
    required = [n for n in names if n not in defaults]
    assert names[:len(required)] == tuple(required)
    built = cls(*values[:len(required)])
    assert all(getattr(built, n) == defaults[n] for n in defaults)
    if required:
        with pytest.raises(TypeError):
            cls(*values[:len(required) - 1])

    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values))
        assert len({record, cls(*values)}) == 1

    # repr in the dataclass layout
    fields = ", ".join(f"{n}={getattr(record, n)!r}" for n in names)
    assert repr(record) == f"{cls.__name__}({fields})"

    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    assert all(same(getattr(record, n), v) for n, v in zip(names, values))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_copies_pickles_and_deletes_nothing(cls):
    names, _, values, _ = RECORDS[cls]
    record = cls(*values)
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        delattr(record, names[0])


@pytest.mark.parametrize("cls", [c for c in RECORDS if c not in UNHASHABLE
                                 and not issubclass(c, tuple)],
                         ids=lambda cls: cls.__name__)
def test_domain_record_is_not_a_tuple(cls):
    names, _, values, _ = RECORDS[cls]
    record = cls(*values)
    assert record != tuple(values)
    assert list(record._asdict()) == list(names)
    assert all(same(v, getattr(record, n))
               for n, v in record._asdict().items())


def test_validating_named_tuples_check_replace_too():
    breakdown = PotentialBreakdown(1.0, 2.0, 0.5)
    with pytest.raises(NonPhysicalValueError):
        breakdown._replace(u_surface=-1.0)
    result = InversionResult(3.5e6, 2.8e6, DensityTrend.UNIFORM)
    with pytest.raises(NonPhysicalValueError):
        result._replace(r0=-math.inf)


@pytest.mark.parametrize("fields, message", [
    ({"earth": EarthParameters(mean_radius=1e-170)},
     "earth: u_surface must be positive and finite, got 0.0"),
    ({"constants": PhysicalConstants(1e300),
      "earth": EarthParameters(mass=1e30)},
     "earth: u_surface must be positive and finite, got inf"),
    # the OutOfDomainError of the surface background, as an input error
    ({"earth": EarthParameters(mean_radius=1e-170, mean_density=1e300)},
     "earth: the square of the mean radius 1e-170 m underflows to 0"),
    ({"p_g_override": -5.0}, "p_g_override must be positive"),
    ({"p_g_override": math.nan}, "p_g_override must be positive"),
    ({"p_g_override": 0.0}, "p_g_override must be positive"),
    ({"p_g_override": math.inf}, "p_g_override must be positive"),
    ({"boundaries": ("CMB",)},
     "boundaries[0] must be a BoundaryReference, got 'CMB'")],
    ids=["tiny_radius", "huge_gamma_mass", "zero_r_squared", "negative_p_g",
         "nan_p_g", "zero_p_g", "inf_p_g", "boundary_name"])
def test_run_config_checks_itself(fields, message):
    # a config built in code meets the checks a config file gets
    with pytest.raises(NonPhysicalValueError) as err:
        RunConfig(**fields)
    assert type(err.value) is NonPhysicalValueError
    assert str(err.value) == message


@pytest.mark.parametrize("data", [
    {"earth": {"mean_radius": 1e-170}},
    {"constants": {"gamma": 1e300}, "earth": {"mass": 1e30}},
    {"earth": {"mean_radius": 1e-170, "mean_density": 1e300}},
    {"p_g_override": -5.0},
    {"p_g_override": 0.0}],
    ids=["tiny_radius", "huge_gamma_mass", "zero_r_squared", "negative_p_g",
         "zero_p_g"])
def test_config_file_gets_the_constructor_message(data):
    # a file that holds the same values fails with the constructor's
    # message, prefixed with the file's name
    fields = {"p_g_override": data.get("p_g_override")}
    if "constants" in data:
        fields["constants"] = PhysicalConstants(**data["constants"])
    if "earth" in data:
        fields["earth"] = EarthParameters(**data["earth"])
    with pytest.raises(NonPhysicalValueError) as built:
        RunConfig(**fields)
    with pytest.raises(ConfigError) as parsed:
        parse_config(data, source="cfg.json")
    assert str(parsed.value) == f"cfg.json.{built.value}"


def test_run_config_stores_boundaries_as_a_tuple():
    cmb = BoundaryReference("CMB", 3.48e6, 1.5e5)
    config = RunConfig(boundaries=[cmb])
    assert config.boundaries == (cmb,)
    assert hash(config) == hash(RunConfig(boundaries=(cmb,)))
