import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopotent import PulseTable
from geopotent.cli import (
    PROFILE_HEADER,
    PULSE_COLUMNS,
    PULSE_HEADER,
    PULSE_MAX_SAMPLES,
    Table,
    _fmt,
    entry,
    main,
    render_csv,
    render_json,
)
from geopotent.config import load_config
from geopotent.errors import ConfigError, DomainError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

GOLDEN_CASES = {
    "direct.csv": ["direct", "--config", "tests/fixtures/earth_config.json"],
    "direct.json": ["direct", "--config", "tests/fixtures/earth_config.json",
                    "--format", "json"],
    "inverse.csv": ["inverse", "--u-inf", "111652000",
                    "--config", "tests/fixtures/earth_config.json"],
    "inverse.json": ["inverse", "--u-inf", "111652000",
                     "--config", "tests/fixtures/earth_config.json",
                     "--format", "json"],
    "profile.csv": ["profile", "--profile", "tests/fixtures/prem20.csv"],
    "anomaly.csv": ["anomaly", "--depth", "5000", "--radius", "500",
                    "--density-contrast", "-2700", "--offsets", "5000,10000",
                    "--u0", "6.258e7", "--g0", "9.823",
                    "--u-inf", "11.1652e7"],
    "pulse.csv": ["pulse", "--schedule",
                  "tests/fixtures/growth_schedule.json",
                  "--times", "0,43200,64800,86400"],
    "pulse.json": ["pulse", "--schedule",
                   "tests/fixtures/growth_schedule.json",
                   "--times", "0,43200,64800,86400", "--format", "json"],
}


def run_to_file(argv, out_path):
    rc = main(argv + ["--out", str(out_path)])
    with open(out_path, "rb") as fh:
        return rc, fh.read()


def parse_csv_report(text):
    """Split a CSV report into (preamble_dict, field_dict, tables)."""
    meta, fields, tables = {}, {}, []
    section = None
    for line in text.splitlines():
        if line.startswith("# "):
            if "=" in line:
                key, value = line[2:].split("=", 1)
                meta[key] = value
            continue
        cells = line.split(",")
        if cells[0] == "field":
            section = "fields"
            continue
        if section == "fields" and len(cells) == 2:
            fields[cells[0]] = cells[1]
            continue
        if section != "table" or not tables or \
                len(cells) != len(tables[-1]["columns"]):
            tables.append({"columns": cells, "rows": []})
            section = "table"
            continue
        tables[-1]["rows"].append(cells)
    return meta, fields, tables


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_matches_frozen_output(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        rc, produced = run_to_file(GOLDEN_CASES[name], tmp_path / name)
        assert rc == 0
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert produced == fh.read()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_stable_across_runs(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        _, first = run_to_file(GOLDEN_CASES[name], tmp_path / "a")
        _, second = run_to_file(GOLDEN_CASES[name], tmp_path / "b")
        assert first == second


class TestFormatConsistency:
    @pytest.mark.parametrize("csv_name,json_name", [
        ("direct.csv", "direct.json"), ("inverse.csv", "inverse.json")])
    def test_csv_values_are_rounded_json_values(self, csv_name, json_name,
                                                tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        _, csv_bytes = run_to_file(GOLDEN_CASES[csv_name], tmp_path / "r.csv")
        _, json_bytes = run_to_file(GOLDEN_CASES[json_name], tmp_path / "r.json")
        _, fields, _ = parse_csv_report(csv_bytes.decode())
        report = json.loads(json_bytes)
        for key, cell in fields.items():
            value = report["result"][key]
            if isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == float(f"{value:.10g}")

    def test_pulse_rows_consistent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        _, csv_bytes = run_to_file(GOLDEN_CASES["pulse.csv"], tmp_path / "p.csv")
        _, json_bytes = run_to_file(GOLDEN_CASES["pulse.json"], tmp_path / "p.json")
        report = json.loads(json_bytes)
        lines = [l for l in csv_bytes.decode().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == PULSE_HEADER
        for line, row in zip(lines[1:], report["rows"]):
            for cell, key in zip(line.split(","), PULSE_HEADER.split(",")):
                assert float(cell) == float(f"{row[key]:.10g}")


def table_report(columns, rows):
    return {"command": "anomaly", "tables": [{
        "name": "t", "columns": columns,
        "rows": Table(tuple(columns), tuple(zip(*rows)))}]}


class TestRenderCsv:
    # Columns of finite floats are formatted a column at a time; _fmt is
    # the per-cell rule they must agree with.
    def test_ten_digits_up_to_the_last_value_that_reads_back(self):
        below = 1.7976931344999998e308
        assert below == math.nextafter(1.7976931345e308, 0.0)
        text = render_csv(table_report(
            ["a", "b", "c"], [[below, 1.7976931345e308, -below],
                              [1.0, below, 2.5]]))
        assert text.splitlines()[-2:] == [
            "1.797693134e+308,1.7976931345e+308,-1.797693134e+308",
            "1,1.797693134e+308,2.5"]

    def test_first_non_finite_cell_in_row_major_order_is_reported(self):
        values = [[0.0, 1.0, 2.0, 3.0, math.nan, 5.0],
                  [0.5, 1.0, math.inf, 3.0, 4.0, 5.0]]
        report = {"command": "pulse",
                  "rows": Table(PULSE_COLUMNS, tuple(zip(*values)))}
        with pytest.raises(DomainError, match="nan") as err:
            render_csv(report)
        assert "inf" not in str(err.value)

    def test_strings_and_bools_keep_the_per_cell_rule(self):
        columns = ["boundary", "radius_m", "offset_m", "within_layer"]
        text = render_csv(table_report(columns, [
            ["cmb", 3480000.0, -86700.25, True],
            ["icb", 1221500.0, 2345000.0, False]]))
        assert text.splitlines()[-3:] == [
            "boundary,radius_m,offset_m,within_layer",
            "cmb,3480000,-86700.25,true",
            "icb,1221500,2345000,false"]

    def test_columns_match_the_per_cell_rule(self):
        rng = random.Random(5)
        rows = [[math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1024))
                 for _ in range(3)] for _ in range(300)]
        rows.append([0.0, -0.0, 5e-324])
        text = render_csv(table_report(["a", "b", "c"], rows))
        assert text.splitlines()[-len(rows):] == [
            ",".join(map(_fmt, row)) for row in rows]


LIMIT = 1.7976931345e308  # the smallest float that 10 digits read as inf

# floats of any exponent, and the edges of the 10-digit rule
FLOATS = st.one_of(
    st.builds(math.ldexp,
              st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-1074, 1024)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16,
                     math.nextafter(LIMIT, 0.0), LIMIT,
                     math.nextafter(LIMIT, math.inf), -LIMIT]))
CELLS = st.one_of(FLOATS, st.integers(), st.booleans(), st.text())
NAMES = st.one_of(st.text(), st.sampled_from(
    ["%s", "%r %%", 'say "hi"', "back\\slash", 'Mohó "core"', "a,b"]))


@st.composite
def tables(draw, cells=CELLS):
    """A Table whose columns hold floats only or any mix of cells."""
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 8))
    data = tuple(
        tuple(draw(st.lists(draw(st.sampled_from([FLOATS, cells])),
                            min_size=n, max_size=n)))
        for _ in names)
    return Table(tuple(names), data)


def plain(value):
    """`value` with each Table replaced by its list of row dicts."""
    if isinstance(value, Table):
        return [dict(zip(value.columns, row)) for row in zip(*value.data)]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


class TestRowTemplates:
    @settings(max_examples=150, deadline=None)
    @given(tables(cells=FLOATS))
    def test_csv_float_template_matches_the_per_cell_rule(self, table):
        for col in table.data:
            for value in col:
                assert "%.10g" % value == "{:.10g}".format(value)
        text = render_csv({"command": "pulse", "rows": table})
        assert text == "\n".join(
            ["# geopotent pulse", ",".join(table.columns),
             *(",".join(map(_fmt, row)) for row in zip(*table.data))]) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_csv_mixed_columns_take_the_per_cell_rule(self, table):
        report = {"command": "anomaly", "tables": [
            {"name": "t", "columns": list(table.columns), "rows": table}]}
        assert render_csv(report) == "\n".join(
            ["# geopotent anomaly", ",".join(table.columns),
             *(",".join(map(_fmt, row)) for row in zip(*table.data))]) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(NAMES, tables()), max_size=3), tables(),
           FLOATS)
    def test_json_matches_json_dumps(self, named, series, gamma):
        for report in (
                {"command": "anomaly", "constants": {"gamma": gamma},
                 "tables": [{"name": name, "columns": list(table.columns),
                             "rows": table} for name, table in named]},
                {"command": "pulse", "inputs": {}, "rows": series}):
            assert render_json(report) == json.dumps(
                plain(report), indent=2) + "\n"

    @pytest.mark.parametrize("render", [render_csv, render_json])
    @pytest.mark.parametrize("first", [PULSE_COLUMNS[0], "boundary"])
    def test_first_non_finite_cell_is_named(self, render, first):
        # one text column sends the second table down the per-cell path
        values = [["a", 1.0, 2.0, 3.0, -math.inf, 5.0],
                  ["b", 1.0, math.nan, 3.0, 4.0, 5.0]]
        if first == PULSE_COLUMNS[0]:
            values = [[0.0, *row[1:]] for row in values]
        columns = (first, *PULSE_COLUMNS[1:])
        report = {"command": "pulse",
                  "rows": Table(columns, tuple(zip(*values)))}
        with pytest.raises(DomainError, match="-inf") as err:
            render(report)
        assert "nan" not in str(err.value)


class TestReportTables:
    NAME = 'Mohó "core"'

    def run(self, tmp_path, capsys, boundaries, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"boundaries": boundaries}))
        assert main(argv + ["--config", str(cfg)]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["inverse", "--u-inf", "111652000"],
        ["profile", "--profile", "tests/fixtures/prem20.csv"]])
    def test_boundary_names_render_byte_identically(self, argv, tmp_path,
                                                    capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        boundaries = [{"name": self.NAME, "radius": 3.48e6,
                       "layer_half_thickness": 1.5e5}]
        out = self.run(tmp_path, capsys, boundaries, argv + ["--format",
                                                            "json"])
        report = json.loads(out)
        assert report["tables"][0]["rows"][0]["boundary"] == self.NAME
        assert out == json.dumps(report, indent=2) + "\n"
        lines = self.run(tmp_path, capsys, boundaries, argv).splitlines()
        row = report["tables"][0]["rows"][0]
        assert lines[-1] == ",".join(map(_fmt, row.values()))
        assert lines[-1].startswith(self.NAME + ",3480000,")

    @pytest.mark.parametrize("argv", [
        ["inverse", "--u-inf", "111652000"],
        ["profile", "--profile", "tests/fixtures/prem20.csv"]])
    def test_empty_table(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        out = self.run(tmp_path, capsys, [], argv + ["--format", "json"])
        report = json.loads(out)
        assert report["tables"][0]["rows"] == []
        assert out == json.dumps(report, indent=2) + "\n"
        lines = self.run(tmp_path, capsys, [], argv).splitlines()
        assert lines[-1] == ",".join(report["tables"][0]["columns"])


class TestDirect:
    def test_reproduces_reported_u_infinity(self, capsys):
        assert main(["direct", "--p-g", "2.7230e11"]) == 0
        _, fields, _ = parse_csv_report(capsys.readouterr().out)
        assert abs(float(fields["u_infinity_j_kg"]) / 11.1652e7 - 1.0) < 0.01

    def test_profile_pressure_source(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(["direct", "--profile", "tests/fixtures/prem20.csv"]) == 0
        meta, fields, _ = parse_csv_report(capsys.readouterr().out)
        assert meta["inputs.p_g_source"] == "profile_grad_p_max"
        assert float(meta["inputs.p_g"]) == 1.704092e11

    def test_missing_pressure_source(self, capsys):
        assert main(["direct"]) == 2
        assert "pressure source" in capsys.readouterr().err

    @pytest.mark.parametrize("p_g", ["nan", "inf"])
    def test_non_finite_pressure_is_input_error(self, p_g, capsys):
        assert main(["direct", "--p-g", p_g]) == 2
        err = capsys.readouterr().err
        assert "p_g must be positive" in err and "Traceback" not in err

    def test_flag_beats_config_override(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(["direct", "--config", "tests/fixtures/earth_config.json",
                     "--p-g", "1.36e11"]) == 0
        meta, _, _ = parse_csv_report(capsys.readouterr().out)
        assert meta["inputs.p_g_source"] == "flag"
        assert float(meta["inputs.p_g"]) == 1.36e11


class TestInverse:
    def test_reported_value(self, capsys):
        assert main(["inverse", "--u-inf", "11.1652e7"]) == 0
        _, fields, tables = parse_csv_report(capsys.readouterr().out)
        assert float(fields["r0_m"]) == pytest.approx(3.5710e6, rel=1e-3)
        assert fields["trend"] == "decreasing_outward"
        cmb = next(r for r in tables[0]["rows"] if r[0] == "CMB")
        assert cmb[3] == "true"

    def test_homogeneous_identity_run(self, capsys):
        assert main(["inverse", "--u-inf", "6.258e7"]) == 0
        _, fields, _ = parse_csv_report(capsys.readouterr().out)
        assert float(fields["r0_m"]) == pytest.approx(6.371e6, rel=1e-4)

    def test_exact_homogeneous_value_classified_uniform(self, capsys):
        gm = 6.6743e-11 * 5.9737e24
        assert main(["inverse", "--u-inf", repr(gm / 6.371e6)]) == 0
        _, fields, _ = parse_csv_report(capsys.readouterr().out)
        assert fields["trend"] == "uniform"

    def test_negative_rejected(self, capsys):
        assert main(["inverse", "--u-inf", "-1"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_overflowing_r0_is_domain_error(self, capsys):
        assert main(["inverse", "--u-inf", "1e-300"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err and "inf" in captured.err


class TestProfileCommand:
    def test_fixture_report(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(["profile", "--profile", "tests/fixtures/prem20.csv"]) == 0
        _, fields, tables = parse_csv_report(capsys.readouterr().out)
        assert float(fields["mean_density_kg_m3"]) == pytest.approx(5515.0,
                                                                    rel=0.01)
        assert fields["homogeneity_holds"] == "false"
        icb = next(r for r in tables[0]["rows"] if r[0] == "ICB")
        assert float(icb[2]) == pytest.approx(1.05, abs=0.05)

    def test_malformed_header_names_expected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("radius,rho,p\n0,1,1\n")
        assert main(["profile", "--profile", str(bad)]) == 2
        err = capsys.readouterr().err
        assert PROFILE_HEADER in err
        assert ":1:" in err

    def test_row_errors_carry_line_numbers(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(PROFILE_HEADER
                       + "\n0,5515,10\n1e6,5515,9\nbogus,5515,8\n2e6,5515,7\n")
        assert main(["profile", "--profile", str(bad)]) == 2
        assert ":4:" in capsys.readouterr().err

    def test_non_monotonic_row_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(PROFILE_HEADER
                       + "\n0,5515,10\n2e6,5515,9\n1e6,5515,8\n3e6,5515,7\n")
        assert main(["profile", "--profile", str(bad)]) == 2
        assert ":4:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["profile", "--profile", "no_such.csv"]) == 2

    def test_line_number_after_blank_lines(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(PROFILE_HEADER + "\n\n\n0,5515,10\n2e6,5515,9\n"
                       "1e6,5515,8\n3e6,5515,7\n")
        assert main(["profile", "--profile", str(bad)]) == 2
        assert f"{bad}:6: radii must be strictly increasing" in \
            capsys.readouterr().err


class TestAnomalyCommand:
    def test_rows_and_crossover(self, capsys):
        assert main(["anomaly", "--depth", "5000", "--radius", "500",
                     "--density-contrast", "-2700",
                     "--offsets", "1000,5000"]) == 2  # 1000 < depth
        capsys.readouterr()
        assert main(["anomaly", "--depth", "5000", "--radius", "500",
                     "--density-contrast", "-2700",
                     "--offsets", "5000,10000"]) == 0
        _, _, tables = parse_csv_report(capsys.readouterr().out)
        rows = tables[0]["rows"]
        columns = tables[0]["columns"]
        ratio = columns.index("k_ratio")
        dvs = columns.index("delta_v_s_m_s")
        assert float(rows[0][ratio]) == pytest.approx(5.0, rel=1e-12)
        assert float(rows[1][ratio]) == pytest.approx(10.0, rel=1e-12)
        assert float(rows[0][dvs]) > 0.0

    def test_unburied_source_rejected(self, capsys):
        assert main(["anomaly", "--depth", "400", "--radius", "500",
                     "--density-contrast", "-2700", "--offsets", "5000"]) == 2

    def test_domain_error_exit_code(self, capsys):
        assert main(["anomaly", "--depth", "1000", "--radius", "999",
                     "--density-contrast", "1e12", "--offsets", "1000"]) == 3
        assert "domain error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--g0", "inf"), ("--u0", "nan"), ("--u-inf", "inf"),
        ("--g0", "0"), ("--u0", "-1")])
    def test_non_physical_background_is_input_error(self, flag, value,
                                                    capsys):
        assert main(["anomaly", "--depth", "5000", "--radius", "500",
                     "--density-contrast", "-2700", "--offsets", "5000",
                     flag, value]) == 2
        err = capsys.readouterr().err
        assert "must be positive and finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [
        ["--offsets", "5000", "--g0", "1e-320"],  # relative_g overflows
        ["--offsets", "5000", "--u0", "1e-320"],  # relative_u overflows
        ["--offsets", "1e308"],                   # delta_g underflows to 0
        ["--offsets", "5000", "--radius", "1e-200"],  # mass underflows to 0
        ["--depth", "1e300", "--radius", "1e299",     # radius**3 overflows
         "--density-contrast", "1e300", "--offsets", "2e300"],
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_result_is_domain_error(self, extra, fmt, capsys):
        argv = ["anomaly", "--depth", "5000", "--radius", "500",
                "--density-contrast", "-2700", "--format", fmt] + extra
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "domain error" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra, message", [
        (["--depth", "1e300", "--radius", "1e299",
          "--density-contrast", "1e300", "--offsets", "2e300"],
         "anomaly: OverflowError: Numerical result out of range"),
        (["--depth", "5000", "--radius", "1e-200",
          "--density-contrast", "-2700", "--offsets", "5000"],
         "anomaly: ZeroDivisionError: float division by zero"),
    ], ids=["overflow", "zero-division"])
    def test_arithmetic_error_names_command_and_type(self, extra, message,
                                                     capsys):
        assert main(["anomaly"] + extra) == 3
        err = capsys.readouterr().err
        assert err == f"geopotent: domain error: {message}\n"
        assert "(34," not in err


class TestPulseCommand:
    def test_exact_header_after_preamble(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(["pulse", "--schedule",
                     "tests/fixtures/growth_schedule.json",
                     "--num-samples", "5"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert lines[0] == PULSE_HEADER
        assert len(lines) == 6

    def test_schedule_error_names_segment(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "source_mass": 1e12, "observer_radius": 5000.0,
            "host_density_contrast": -2700.0,
            "segments": [
                {"t_start": 0, "t_end": 10, "kind": "constant",
                 "params": {"radius": 500.0}},
                {"t_start": 20, "t_end": 30, "kind": "constant",
                 "params": {"radius": 500.0}},
            ]}))
        assert main(["pulse", "--schedule", str(bad)]) == 2
        assert capsys.readouterr().err.count("segment 1") == 1

    def test_unknown_segment_kind(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "source_mass": 1e12, "observer_radius": 5000.0,
            "host_density_contrast": -2700.0,
            "segments": [{"t_start": 0, "t_end": 10, "kind": "wobble",
                          "params": {"radius": 500.0}}]}))
        assert main(["pulse", "--schedule", str(bad)]) == 2
        assert "segment 0" in capsys.readouterr().err

    @staticmethod
    def write_schedule(tmp_path, edit):
        """Write the growth fixture schedule after `edit(schedule)`."""
        with open(os.path.join(ROOT, "tests", "fixtures",
                               "growth_schedule.json")) as fh:
            schedule = json.load(fh)
        edit(schedule)
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule))
        return path

    @pytest.mark.parametrize("change, message", [
        ({"t_end": 43000.0}, "t_end must exceed t_start"),
        ({"params": {"radius_start": 500.0, "radius_end": -1.0}},
         "radii must be positive, got (500.0, -1.0)"),
        ({"t_start": 50000.0}, "starts at 50000.0, previous segment ends "
                               "at 43200.0; segments must be contiguous"),
        ({"params": {"radius_start": 500.0, "radius_end": 5000.0}},
         "radius reaches 5000.0, observer at 5000.0 must stay outside the "
         "source"),
    ], ids=["reversed_times", "negative_radius", "gap", "radius_at_observer"])
    def test_single_fault_names_segment(self, change, message, tmp_path,
                                        capsys):
        path = self.write_schedule(
            tmp_path, lambda s: s["segments"][1].update(change))
        assert main(["pulse", "--schedule", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"geopotent: error: {path}: segment 1: {message}\n")

    def test_segment_faults_come_before_schedule_faults(self, tmp_path,
                                                        capsys):
        # segment 0 reaches the observer, segment 1 has a negative radius:
        # each segment checks itself as it is read, before the schedule
        # checks its segments against each other and the observer
        def edit(schedule):
            schedule["segments"][0]["params"]["radius"] = 5000.0
            schedule["segments"][1]["params"]["radius_end"] = -1.0
        path = self.write_schedule(tmp_path, edit)
        assert main(["pulse", "--schedule", str(path)]) == 2
        assert "segment 1: radii must be positive" in capsys.readouterr().err

    def test_times_outside_span_rejected(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(["pulse", "--schedule",
                     "tests/fixtures/growth_schedule.json",
                     "--times", "0,1e9"]) == 2

    @pytest.mark.parametrize("where, value", [
        ("top", "1e12"), ("top", True), ("t_start", "0"),
        ("params", "500"), ("params", None)])
    def test_schedule_values_must_be_json_numbers(self, where, value,
                                                  tmp_path, capsys):
        with open(os.path.join(ROOT, "tests", "fixtures",
                               "growth_schedule.json")) as fh:
            schedule = json.load(fh)
        if where == "top":
            schedule["source_mass"] = value
        elif where == "t_start":
            schedule["segments"][0]["t_start"] = value
        else:
            schedule["segments"][0]["params"]["radius"] = value
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule))
        assert main(["pulse", "--schedule", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be a number" in err

    def test_num_samples_ends_exactly_at_span_end(self, tmp_path, capsys):
        # the last uniform time t_start + span*24/24 rounds one ulp past
        # t_end here
        t_start, t_end = -432.50272317966005, 5161.532111187979
        assert t_start + (t_end - t_start) * 24 / 24 > t_end
        path = tmp_path / "one_segment.json"
        path.write_text(json.dumps({
            "source_mass": 1e12, "observer_radius": 5000.0,
            "host_density_contrast": -2700.0,
            "segments": [{"t_start": t_start, "t_end": t_end,
                          "kind": "constant", "params": {"radius": 500.0}}]}))
        assert main(["pulse", "--schedule", str(path), "--num-samples", "25",
                     "--format", "json"]) == 0
        times = [row["t_s"] for row in json.loads(capsys.readouterr().out)["rows"]]
        assert len(times) == 25
        assert times[0] == t_start and times[-1] == t_end
        assert times == sorted(times)

    @pytest.mark.parametrize("segment, key", [
        (None, "observer_radius"), (0, "params"), (1, "radius_end")])
    def test_schedule_missing_key_named(self, segment, key, tmp_path,
                                        capsys):
        with open(os.path.join(ROOT, "tests", "fixtures",
                               "growth_schedule.json")) as fh:
            schedule = json.load(fh)
        if segment is None:
            del schedule[key]
        elif key == "params":
            del schedule["segments"][segment][key]
        else:
            del schedule["segments"][segment]["params"][key]
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule))
        assert main(["pulse", "--schedule", str(path)]) == 2
        err = capsys.readouterr().err
        assert "missing key(s) in" in err and key in err

    def test_num_samples_at_ceiling_accepted(self, capsys, monkeypatch):
        # the series is stubbed out: a real run at the ceiling takes ~2 s
        counts = []

        def count(schedule, times, **kwargs):
            counts.append(len(times))
            return PulseTable([], [], [], [], [], [])

        monkeypatch.chdir(ROOT)
        monkeypatch.setattr("geopotent.cli.evaluate_schedule", count)
        assert main(["pulse", "--schedule",
                     "tests/fixtures/growth_schedule.json",
                     "--num-samples", str(PULSE_MAX_SAMPLES)]) == 0
        assert counts == [PULSE_MAX_SAMPLES]

    def test_num_samples_above_ceiling_rejected(self, capsys, monkeypatch):
        # 1e8 samples would take gigabytes; the flag check must fail before
        # the sample times or the series are built
        def never(*args, **kwargs):
            raise AssertionError("series built for a rejected sample count")

        monkeypatch.chdir(ROOT)
        monkeypatch.setattr("geopotent.cli.evaluate_schedule", never)
        assert main(["pulse", "--schedule",
                     "tests/fixtures/growth_schedule.json",
                     "--num-samples", "100000000"]) == 2
        assert str(PULSE_MAX_SAMPLES) in capsys.readouterr().err


class TestConfigHandling:
    def test_env_var_supplies_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_g_override": 1.5e11}))
        monkeypatch.setenv("GEOPOTENT_CONFIG", str(cfg))
        assert main(["direct"]) == 0
        meta, _, _ = parse_csv_report(capsys.readouterr().out)
        assert float(meta["inputs.p_g"]) == 1.5e11

    def test_flag_wins_over_env(self, tmp_path, capsys, monkeypatch):
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text(json.dumps({"p_g_override": 1.5e11}))
        flag_cfg = tmp_path / "flag.json"
        flag_cfg.write_text(json.dumps({"p_g_override": 2.5e11}))
        monkeypatch.setenv("GEOPOTENT_CONFIG", str(env_cfg))
        assert main(["direct", "--config", str(flag_cfg)]) == 0
        meta, _, _ = parse_csv_report(capsys.readouterr().out)
        assert float(meta["inputs.p_g"]) == 2.5e11

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_g_override": 1e11, "typo_key": 1}))
        assert main(["direct", "--config", str(cfg)]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_boundary_missing_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"boundaries": [{"name": "CMB",
                                                   "radius": 3.48e6}]}))
        assert main(["direct", "--config", str(cfg), "--p-g", "1e11"]) == 2
        err = capsys.readouterr().err
        assert "missing key(s)" in err and "layer_half_thickness" in err

    @pytest.mark.parametrize("literal", [
        "1" + "0" * 400, "NaN", "Infinity", "-Infinity", "1e400"],
        ids=["huge_int", "nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("where", ["config", "schedule"])
    def test_numbers_must_be_finite(self, where, literal, tmp_path, capsys):
        path = tmp_path / f"{where}.json"
        if where == "config":
            key, data = "p_g_override", {"p_g_override": "@"}
            argv = ["direct", "--p-g", "1e11", "--config", str(path)]
        else:
            with open(os.path.join(ROOT, "tests", "fixtures",
                                   "growth_schedule.json")) as fh:
                data = json.load(fh)
            key, data["source_mass"] = "source_mass", "@"
            argv = ["pulse", "--schedule", str(path)]
        path.write_text(json.dumps(data).replace('"@"', literal))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{key} must be a number" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", [
        "a,b\n# earth.mass=1", "CMB\r", None, 5, {"x": [1]}],
        ids=["comma_and_newline", "carriage_return", "null", "number",
             "object"])
    def test_boundary_name_must_be_a_plain_string(self, name, tmp_path,
                                                  capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"boundaries": [
            {"name": "CMB", "radius": 3.48e6, "layer_half_thickness": 1.5e5},
            {"name": name, "radius": 1.2215e6, "layer_half_thickness": 1e5}]}))
        assert main(["inverse", "--u-inf", "111652000",
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", (
            f"geopotent: error: {cfg}.boundaries[1]: boundary name must be a "
            f"string without a comma, CR or LF, got {name!r}\n"))

    def test_inconsistent_gm_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"earth": {"mass": 5.9737e24,
                                             "gm": 4.2e14}}))
        assert main(["direct", "--config", str(cfg), "--p-g", "1e11"]) == 2

    def test_config_sets_output_format(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_g_override": 1e11,
                                   "output_format": "json"}))
        assert main(["direct", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "direct"


class TestUnreadableFiles:
    @pytest.mark.parametrize("argv, path", [
        (["inverse", "--u-inf", "1e8", "--out", "tests/no_such_dir/x.csv"],
         "tests/no_such_dir/x.csv"),
        (["inverse", "--u-inf", "1e8", "--out", "tests/fixtures"],
         "tests/fixtures"),
        (["profile", "--profile", "tests/fixtures"], "tests/fixtures"),
        (["profile", "--profile", "tests/fixtures/not_utf8.csv"],
         "tests/fixtures/not_utf8.csv"),
        (["pulse", "--schedule", "tests/no_such.json"], "tests/no_such.json"),
        (["pulse", "--schedule", "tests/fixtures/not_utf8.csv"],
         "tests/fixtures/not_utf8.csv"),
        (["direct", "--p-g", "1e11", "--config", "tests/no_such.json"],
         "tests/no_such.json"),
        (["direct", "--p-g", "1e11", "--config",
          "tests/fixtures/not_utf8.csv"], "tests/fixtures/not_utf8.csv"),
    ])
    def test_input_error_names_path(self, argv, path, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert path in err and "Traceback" not in err

    @pytest.mark.parametrize("path", [
        "tests/no_such.json", "tests/fixtures", "tests/fixtures/not_utf8.csv"])
    def test_config_reader_raises_config_error(self, path, monkeypatch):
        monkeypatch.chdir(ROOT)
        with pytest.raises(ConfigError, match=path):
            load_config(path)


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "geopotent", "direct", "--p-g", "2.723e11"],
            capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 0
        assert "u_infinity_j_kg" in proc.stdout

    @pytest.mark.parametrize("argv, code", [
        (["inverse", "--u-inf", "111652000"], 0),
        (["direct", "--p-g", "nan"], 2)])
    def test_entry_exits_with_main_code(self, argv, code, capsys,
                                        monkeypatch):
        monkeypatch.delenv("GEOPOTENT_CONFIG", raising=False)
        monkeypatch.setattr(sys, "argv", ["geopotent", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code == main(argv)

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "geopotent", "unknowncmd"],
            capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 2
