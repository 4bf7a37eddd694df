"""The profile CSV reader: one columnar pass, and a fault scan.

Blank lines are skipped and the body is read in one columnar pass; only
a body holding a row that is not 3 numbers is scanned line by line, to
word that row. The reader must read the floats and report the errors of
a plain per-line reader.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geopotent import RadialProfile, cli
from geopotent.cli import PROFILE_HEADER, main, read_profile_csv
from geopotent.errors import InputError

from conftest import PREM_CSV

SPECIAL_CELLS = ("nan", "inf", "-inf", "NaN", " Infinity ", "1_0", "1__0",
                 "0x10", "", "1e", "--1", "1\x00")
BLANK_LINES = ("", " ", "\t ")


def cell_forms(value):
    """Texts that ``float`` reads as `value`."""
    forms = [repr(value), f"{value:.17e}", f"{value:E}"]
    if value.is_integer() and abs(value) < 1e15:
        forms += [str(int(value)), f"{int(value):_}"]
    return st.sampled_from(forms).flatmap(lambda text: st.sampled_from(
        [text, f" {text}", f"{text}  ", f"\t{text} "]))


def rarely(draw):
    """True about 1 time in 80; hypothesis draws the bounds 0, 79 often."""
    return draw(st.integers(0, 79)) == 41


@st.composite
def profile_texts(draw):
    """A profile CSV, mostly valid, with cells in many textual forms."""
    n = draw(st.integers(4, 12))
    steps = st.one_of(st.floats(1e-3, 1e6),
                      st.integers(1, 10**6).map(float))
    radii = [draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))]
    for step in draw(st.lists(steps, min_size=n - 1, max_size=n - 1)):
        radii.append(radii[-1] + step)
    densities = draw(st.lists(st.floats(1e-3, 2e4), min_size=n, max_size=n))
    pressures = [draw(st.floats(0.0, 1e12))]
    for factor in draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1,
                                max_size=n - 1)):
        pressures.append(pressures[-1] * factor)
    lines = [PROFILE_HEADER]
    for row in zip(radii, densities, pressures):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
        cells = [draw(st.sampled_from(SPECIAL_CELLS)) if rarely(draw)
                 else draw(cell_forms(value)) for value in row]
        if rarely(draw):  # a row of 2 or 4 cells
            cells = cells[:2] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def per_line_read(path):
    """A plain per-line reader: skip blanks, ``float`` each cell, then
    validate, with a sample index read as a line number."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    columns, linenos = ([], [], []), []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 3 comma-separated "
                             f"values, got {len(parts)}")
        try:
            values = [float(part) for part in parts]
        except ValueError:
            raise InputError(
                f"{path}:{lineno}: non-numeric value in {line!r}") from None
        for column, value in zip(columns, values):
            column.append(value)
        linenos.append(lineno)
    try:
        return RadialProfile(*columns)
    except InputError as exc:
        line = f":{linenos[exc.index]}" if exc.index is not None else ""
        raise InputError(f"{path}{line}: {exc}") from None


def outcome(read, path):
    """The columns read as ``float.hex`` strings, or the error message."""
    try:
        profile = read(path)
    except InputError as exc:
        return str(exc)
    return [list(map(float.hex, col))
            for col in (profile.radii, profile.densities, profile.pressures)]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=profile_texts())
def test_columnar_pass_matches_the_per_line_loop(text, tmp_path):
    path = tmp_path / "drawn.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = outcome(read_profile_csv, str(path))
    assert fast == outcome(per_line_read, str(path))


ROWS = ["0,13000,3.6e11", "1e6,12000,3.3e11", "2e6,11000,3e11",
        "3e6,10000,2e11", "4e6,5000,1e11", "6.371e6,3000,0"]


def csv_text(*rows, sep="\n"):
    return PROFILE_HEADER + "\n" + sep.join(rows) + "\n"


def swap(i, row):
    return ROWS[:i] + [row] + ROWS[i + 1:]


NON_MONOTONE = ("radii must be strictly increasing; sample 3 has "
                "r = 1500000.0 after 2000000.0")

# stderr after "geopotent: error: <path>", one entry per malformed class
MALFORMED = {
    "bad_header": ("radius,rho,p\n" + "\n".join(ROWS) + "\n",
                   ":1: bad header 'radius,rho,p'; expected "
                   "'radius_m,density_kg_m3,pressure_pa'"),
    "two_cells": (csv_text(*swap(3, "3e6,10000")),
                  ":5: expected 3 comma-separated values, got 2"),
    "four_cells": (csv_text(*swap(3, "3e6,10000,2e11,1")),
                   ":5: expected 3 comma-separated values, got 4"),
    "two_then_four_cells": (
        csv_text(*ROWS[:2], "2e6,11000", "3e6,10000,2e11,1", *ROWS[4:]),
        ":4: expected 3 comma-separated values, got 2"),
    "non_numeric": (csv_text(*swap(3, "bogus,10000,2e11")),
                    ":5: non-numeric value in 'bogus,10000,2e11'"),
    "non_numeric_pressure_above_a_non_numeric_radius": (
        csv_text(*ROWS[:2], "2e6,11000,x", ROWS[3], "y,5000,1e11", ROWS[5]),
        ":4: non-numeric value in '2e6,11000,x'"),
    "non_numeric_after_a_non_monotone_row": (
        csv_text(*swap(3, "1.5e6,10000,2e11")[:4], "4e6,5000,z", ROWS[5]),
        ":6: non-numeric value in '4e6,5000,z'"),
    "blank_lines_before_a_bad_row": (
        PROFILE_HEADER + "\n\n  \n" + "\n".join(swap(3, "3e6,x,2e11")) + "\n",
        ":7: non-numeric value in '3e6,x,2e11'"),
    "form_feed_separated_rows": (
        csv_text(*swap(3, "1.5e6,10000,2e11"), sep="\x0c"),
        f":5: {NON_MONOTONE}"),
    "non_monotone": (csv_text(*swap(3, "1.5e6,10000,2e11")),
                     f":5: {NON_MONOTONE}"),
    "negative_first_radius": (csv_text(*swap(0, "-1,13000,3.6e11")),
                              ":2: first radius must be >= 0, got -1.0"),
    "non_finite": (csv_text(*swap(3, "3e6,inf,2e11")),
                   ":5: density is not finite at sample 3"),
    "pressure_rise": (csv_text(*swap(3, "3e6,10000,4e11")),
                      ":5: pressure rises with radius at sample 3: "
                      "300000000000.0 -> 400000000000.0 exceeds slack 0.50%"),
    "empty_body": (PROFILE_HEADER + "\n", ": profile is empty"),
    "fewer_than_4_rows": (csv_text(*ROWS[:3]),
                          ": profile needs at least 4 samples, got 3"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_file_error(kind, fmt, tmp_path, capsys):
    text, message = MALFORMED[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    for command in ("profile", "direct"):
        assert main([command, "--profile", str(path), "--format", fmt]) == 2
        assert capsys.readouterr() == (
            "", f"geopotent: error: {path}{message}\n")


def test_blank_lines_still_parse(tmp_path):
    blank, clean = tmp_path / "blank.csv", tmp_path / "clean.csv"
    blank.write_text(PROFILE_HEADER + "\n\n" + "\n\n".join(ROWS) + "\n \n")
    clean.write_text(csv_text(*ROWS))
    profile = read_profile_csv(str(blank))
    assert list(profile.radii) == [0.0, 1e6, 2e6, 3e6, 4e6, 6.371e6]
    assert profile == read_profile_csv(str(clean))


def test_well_formed_files_never_call_the_fault_scan(monkeypatch, tmp_path):
    def fault_scan(path, body, linenos):
        raise AssertionError("the fault scan was called")

    monkeypatch.setattr(cli, "_bad_row", fault_scan)
    profile = read_profile_csv(PREM_CSV)
    assert len(profile) == 20 and profile.radii[0] == 0.0
    blank = tmp_path / "blank.csv"
    blank.write_text(PROFILE_HEADER + "\n \n" + "\n\t\n".join(ROWS) + "\n")
    assert list(read_profile_csv(str(blank)).radii) == [
        0.0, 1e6, 2e6, 3e6, 4e6, 6.371e6]
