import json
import math
import os
import pathlib
import random
import subprocess
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geopotent.cli
from geopotent import (
    AnomalySource,
    BackgroundState,
    BoundaryReference,
    EarthParameters,
    PulseTable,
    detectability_report,
    evaluate_schedule,
    surface_background,
)
from geopotent.cli import (
    PROFILE_HEADER,
    PULSE_COLUMNS,
    PULSE_MAX_SAMPLES,
    Table,
    _fmt,
    _table,
    entry,
    main,
    render_csv,
    render_json,
)
from geopotent.config import read_schedule_json, resolve_config
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
    "profile.json": ["profile", "--profile", "tests/fixtures/prem20.csv",
                     "--format", "json"],
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
    # runs of equal rows in every held segment, and time on each segment end
    "pulse_runs.csv": ["pulse", "--schedule",
                       "tests/fixtures/mixed_schedule.json",
                       "--num-samples", "41"],
    "pulse_runs.json": ["pulse", "--schedule",
                        "tests/fixtures/mixed_schedule.json",
                        "--num-samples", "41", "--format", "json"],
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

    def test_delta_v_s_cells_are_exact(self):
        # sqrt(2*(b - du)) - sqrt(2*b) in 60-digit Decimal, from the
        # program's b = u_infinity - u0 and its delta_u: CSV cells are
        # that value to 10 digits, JSON cells within one ulp of it
        def exact(du, base):
            with localcontext() as ctx:
                ctx.prec = 60
                b, d = Decimal(base), Decimal(du)
                return float((2 * (b - d)).sqrt() - (2 * b).sqrt())

        with open(os.path.join(GOLDEN, "pulse.json")) as fh:
            rows = json.load(fh)["rows"]
        background = surface_background(EarthParameters())
        base = background.u_infinity - background.u0
        pulse = [exact(row["delta_u_j_kg"], base) for row in rows]
        for row, value in zip(rows, pulse):
            assert abs(row["delta_v_s_m_s"] - value) <= math.ulp(value)
        anomaly = detectability_report(
            AnomalySource(5000.0, 500.0, -2700.0), [5000.0, 10000.0],
            BackgroundState(6.258e7, 9.823, 11.1652e7))
        base = 11.1652e7 - 6.258e7
        for name, values in (
                ("pulse.csv", pulse),
                ("anomaly.csv", [exact(row.delta_u, base) for row in anomaly])):
            with open(os.path.join(GOLDEN, name)) as fh:
                _, _, tables = parse_csv_report(fh.read())
            column = tables[-1]["columns"].index("delta_v_s_m_s")
            assert [row[column] for row in tables[-1]["rows"]] == [
                f"{value:.10g}" for value in values]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_stable_across_runs(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        _, first = run_to_file(GOLDEN_CASES[name], tmp_path / "a")
        _, second = run_to_file(GOLDEN_CASES[name], tmp_path / "b")
        assert first == second


class TestFormatConsistency:
    @pytest.mark.parametrize("csv_name,json_name", [
        ("direct.csv", "direct.json"), ("inverse.csv", "inverse.json"),
        ("profile.csv", "profile.json")])
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
            elif isinstance(value, bool):
                assert cell == json.dumps(value)
            else:
                assert float(cell) == float(f"{value:.10g}")

    def test_pulse_rows_consistent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        _, csv_bytes = run_to_file(GOLDEN_CASES["pulse.csv"], tmp_path / "p.csv")
        _, json_bytes = run_to_file(GOLDEN_CASES["pulse.json"], tmp_path / "p.json")
        report = json.loads(json_bytes)
        lines = [l for l in csv_bytes.decode().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == ",".join(PULSE_COLUMNS)
        for line, row in zip(lines[1:], report["rows"]):
            for cell, key in zip(line.split(","), PULSE_COLUMNS):
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


@st.composite
def run_tables(draw):
    """A Table held as runs, and the same Table with its runs expanded."""
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    lengths = draw(st.lists(st.integers(1, 4), max_size=6))
    cells = st.one_of(CELLS, st.sampled_from([math.nan, math.inf, -math.inf]))
    first = draw(st.lists(draw(st.sampled_from([FLOATS, cells])),
                          min_size=sum(lengths), max_size=sum(lengths)))
    runs = [draw(st.lists(draw(st.sampled_from([FLOATS, cells])),
                          min_size=len(lengths), max_size=len(lengths)))
            for _ in names[1:]]
    expanded = [[cell for cell, n in zip(col, lengths) for _ in range(n)]
                for col in runs]
    return (Table(tuple(names), (tuple(first), *map(tuple, runs)),
                  runs=tuple(lengths)),
            Table(tuple(names), (tuple(first), *map(tuple, expanded))))


def rendered(render, report):
    """The text `render` gives `report`, or the message of its DomainError."""
    try:
        return render(report)
    except DomainError as exc:
        return f"DomainError: {exc}"


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

    @settings(max_examples=300, deadline=None)
    @given(run_tables())
    @pytest.mark.parametrize("render", [render_csv, render_json])
    def test_runs_render_as_their_expansion(self, render, tables):
        # the text of the expanded rows, or the first non-finite cell in
        # their row-major order
        held, expanded = tables
        rows = list(zip(*expanded.data))
        bad = [f"DomainError: report cell rows.{name} is not finite: {cell!r}"
               for row in rows for name, cell in zip(expanded.columns, row)
               if isinstance(cell, float) and not math.isfinite(cell)]
        if bad:
            want = bad[0]
        elif render is render_csv:
            want = "\n".join(["# geopotent pulse", ",".join(expanded.columns),
                              *(",".join(map(_fmt, row)) for row in rows),
                              ""])
        else:
            want = json.dumps(plain({"command": "pulse", "rows": expanded}),
                              indent=2) + "\n"
        assert rendered(render, {"command": "pulse", "rows": held}) == want

    @pytest.mark.parametrize("render, slow", [(render_csv, "_fmt"),
                                              (render_json, "_json_cell")])
    def test_a_run_column_that_is_not_fast_is_formatted_once_per_run(
            self, render, slow, monkeypatch):
        table = Table(("t", "label"), ((0.0, 1.0, 2.0, 3.0, 4.0), ("a", "b")),
                      runs=(3, 2))
        real = getattr(geopotent.cli, slow)
        calls = []

        def counted(value, where=""):
            calls.append(where)
            return real(value, where)
        monkeypatch.setattr(geopotent.cli, slow, counted)
        render({"command": "pulse", "rows": table})
        assert calls.count("rows.label") == 2

    def test_columns_whose_magnitudes_sum_past_the_limit(self):
        # each cell is finite and below LIMIT, but the column's sum of
        # magnitudes is not: the per-cell path writes the same text
        half = math.nextafter(LIMIT, 0.0)
        table = Table(("a", "b"), ((half, -half, 1.0), (1e308, 1e308, 2.0)))
        report = {"command": "pulse", "rows": table}
        assert render_csv(report).splitlines()[2:] == [
            "1.797693134e+308,1e+308", "-1.797693134e+308,1e+308", "1,2"]
        assert render_json(report) == json.dumps(plain(report),
                                                 indent=2) + "\n"

    @pytest.mark.parametrize("render", [render_csv, render_json])
    @pytest.mark.parametrize("first", [PULSE_COLUMNS[0], "boundary"])
    def test_first_non_finite_cell_is_named(self, render, first):
        # row-major order meets the -inf before the nan, though the nan's
        # column comes first; the first column holds floats or text
        values = [["a", 1.0, 2.0, 3.0, -math.inf, 5.0],
                  ["b", 1.0, math.nan, 3.0, 4.0, 5.0]]
        if first == PULSE_COLUMNS[0]:
            values = [[0.0, *row[1:]] for row in values]
        columns = (first, *PULSE_COLUMNS[1:])
        report = {"command": "pulse",
                  "rows": Table(columns, tuple(zip(*values)))}
        with pytest.raises(DomainError) as err:
            render(report)
        assert str(err.value) == \
            "report cell rows.delta_g_m_s2 is not finite: -inf"

    @pytest.mark.parametrize("render", [render_csv, render_json])
    def test_non_finite_cell_is_named_by_its_section_or_table(self, render):
        report = {"command": "anomaly", "inputs": {"u0": 1.0}, "tables": [
            _table("signals", {"label": ["a", "b"], "k1": [1.0, math.nan]})]}
        with pytest.raises(DomainError) as err:
            render(report)
        assert str(err.value) == "report cell signals.k1 is not finite: nan"
        report["inputs"]["u0"] = math.inf
        with pytest.raises(DomainError) as err:
            render(report)
        assert str(err.value) == "report cell inputs.u0 is not finite: inf"


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_phi_g_is_domain_error(self, fmt, tmp_path, capsys):
        # p_g and rho_g are positive and finite; p_g / rho_g is not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"earth": {"mean_density": 1e-10}}))
        assert main(["direct", "--p-g", "1e300", "--config", str(cfg),
                     "--format", fmt]) == 3
        assert capsys.readouterr() == ("", "geopotent: domain error: phi_g = "
                                       "1e+300 / 1e-10 overflows the float "
                                       "range\n")

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


# Finite profiles whose numerics overflow: densities and pressures near
# 1e300, 1e-300 m knot gaps under a 1.7e308 Pa pressure, and a body whose
# volume underflows
EXTREME_PROFILES = {
    "huge_values": ["0,1e300,1e300", "1e6,9e299,9e299", "2e6,8e299,8e299",
                    "3e6,7e299,7e299"],
    "tiny_gaps": ["0,13000,1.7e308", "1e-300,12000,1e308",
                  "2e-300,11000,1e307", "6.371e6,3000,0"],
    # the homogeneity terms hold inf and -inf
    "inf_minus_inf": ["0.0,1.461323978307312e+306,3",
                      "0.6266681744477031,6.721879136322771e+307,2",
                      "0.807207630616892,1.4159081731331236e+307,1",
                      "2.658075869097086,6.457404100416946e+306,0"],
    "tiny_body": ["0,5515,3", "3e-111,5515,2", "6e-111,5515,1",
                  "1e-110,5515,0"],
    "constant_pressure": ["0,5515,1e9", "1e6,5515,1e9", "2e6,5515,1e9",
                          "3e6,5515,1e9"],
    # the uniform side of the homogeneity bound underflows to 0
    "tiny_density": ["0,1e-316,3", "1e6,1e-316,2", "2e6,1e-316,1",
                     "6.371e6,1e-316,0"],
    # M(1.5) * 998.5 in a homogeneity term overflows
    "huge_inner_term": ["0,3e307,3", "0.5,3e307,2", "1.5,1,1", "1000,1,0"],
}

# the one stderr line of `profile` on each: a failing profile numeric
# names the file, then the radius; a report cell names the cell
EXTREME_ERRORS = {
    "huge_values":
        "{path}: enclosed mass at r = 1000000.0 m is not finite: nan",
    "tiny_gaps": "{path}: "
        "the equilibrium gravity at r = 3480000.0 m is not finite: inf",
    "inf_minus_inf": "{path}: "
        "enclosed mass at r = 0.807207630616892 m is not finite: -inf",
    "tiny_body":
        "{path}: the volume of a body of radius 1e-110 m underflows to 0",
    "constant_pressure":
        "{path}: pressure is constant; the gradient has no maximum",
    "tiny_density": "{path}: the uniform-sphere potential of a body of "
        "radius 6371000.0 m underflows to 0",
    "huge_inner_term": "{path}: "
        "the surface potential term from r = 1.5 m is not finite: inf",
}


def extreme_error(tmp_path, kind):
    """The stderr line of `profile` on the EXTREME_PROFILES `kind`."""
    message = EXTREME_ERRORS[kind].format(path=tmp_path / f"{kind}.csv")
    return f"geopotent: domain error: {message}"


def run_module(argv, tmp_path, kind):
    """`python -m geopotent argv --profile <the EXTREME_PROFILES kind>`."""
    path = tmp_path / f"{kind}.csv"
    path.write_text(PROFILE_HEADER + "\n" + "\n".join(EXTREME_PROFILES[kind])
                    + "\n")
    return subprocess.run(
        [sys.executable, "-m", "geopotent", *argv, "--profile", str(path)],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})


class TestProfileCommand:
    @pytest.mark.parametrize("kind", sorted(EXTREME_PROFILES))
    def test_overflow_is_one_domain_error_line(self, kind, tmp_path):
        proc = run_module(["profile"], tmp_path, kind)
        assert (proc.returncode, proc.stdout) == (3, "")
        [line] = proc.stderr.splitlines()
        assert line == extreme_error(tmp_path, kind)

    @pytest.mark.parametrize("kind", sorted(EXTREME_PROFILES))
    def test_json_reports_the_same_error(self, kind, tmp_path):
        proc = run_module(["profile", "--format", "json"], tmp_path, kind)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", extreme_error(tmp_path, kind) + "\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_core_gravity_names_the_file(self, fmt, tmp_path,
                                                      capsys):
        # a subnormal mass outside the core boundary at 2.5 m
        path = tmp_path / "subnormal_shell.csv"
        path.write_text("\n".join([
            PROFILE_HEADER, "0,1e4,3", "1,1e4,2", "2,1e-320,1",
            "3,1e-320,0"]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"boundaries": [
            {"name": "core", "radius": 2.5, "layer_half_thickness": 0.1}]}))
        assert main(["profile", "--profile", str(path), "--config", str(cfg),
                     "--format", fmt]) == 3
        assert capsys.readouterr() == ("", (
            f"geopotent: domain error: {path}: the equilibrium gravity at "
            "r = 2.5 m is not finite: inf\n"))

    def test_dense_core_keeps_the_mass_outside_the_cmb(self, tmp_path,
                                                        capsys):
        # M_total - M(CMB) once cancelled to 0 under a 1e100 kg/m^3 core;
        # the shells above the CMB are summed instead
        path = tmp_path / "dense_core.csv"
        path.write_text("\n".join([
            PROFILE_HEADER, "0,1e100,3.6e11", "7e5,13000,3.5e11",
            "4e6,5000,1e11", "6.371e6,3000,0"]) + "\n")
        assert main(["profile", "--profile", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "CMB,3480000,5.810053204" in out.splitlines()

    def test_direct_names_the_constant_pressure_file(self, tmp_path):
        proc = run_module(["direct"], tmp_path, "constant_pressure")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", extreme_error(tmp_path, "constant_pressure") + "\n")

    def test_direct_reads_p_g_across_tiny_gaps(self, tmp_path):
        proc = run_module(["direct", "--format", "json"], tmp_path,
                          "tiny_gaps")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["inputs"]["p_g"] == 1.7e308

    @pytest.mark.parametrize("k", range(17))
    def test_boundaries_below_the_first_knot_are_left_out(self, k, tmp_path,
                                                          capsys):
        # PREM-20 without its first k rows: the pressure below the first
        # knot is unknown, so the table lists the default boundaries at or
        # above it (none from k = 8, which starts above the CMB)
        header, *rows = (pathlib.Path(ROOT) / "tests" / "fixtures"
                         / "prem20.csv").read_text().splitlines()
        path = tmp_path / f"trim{k}.csv"
        path.write_text("\n".join([header, *rows[k:]]) + "\n")
        first = float(rows[k].split(",")[0])
        expected = [name for name, radius in (("CMB", 3.48e6),
                                              ("ICB", 1.2215e6))
                    if radius >= first]
        assert main(["profile", "--profile", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        _, _, tables = parse_csv_report(out)
        assert [row[0] for row in tables[0]["rows"]] == expected
        assert main(["profile", "--profile", str(path), "--format",
                     "json"]) == 0
        [table] = json.loads(capsys.readouterr().out)["tables"]
        assert table["name"] == "core_equilibrium"
        assert [row["boundary"] for row in table["rows"]] == expected

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
        ["--depth", "1e300", "--radius", "1e100",     # mass overflows to inf
         "--density-contrast", "1e300", "--offsets", "2e300"],
        ["--depth", "1e-170", "--radius", "1e-171",   # distance^2 underflows
         "--density-contrast", "1", "--offsets", "1e-170"],
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_result_is_domain_error(self, extra, fmt, capsys):
        argv = ["anomaly", "--depth", "5000", "--radius", "500",
                "--density-contrast", "-2700", "--format", fmt] + extra
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "domain error" in err and "Traceback" not in err
        assert "ZeroDivisionError" not in err

    @pytest.mark.parametrize("extra, offset", [
        (["--offsets", "1e308"], "1e+308"),
        (["--offsets", "5000", "--radius", "1e-200"], "5000.0")])
    def test_underflowing_delta_g_is_named(self, extra, offset, capsys):
        argv = ["anomaly", "--depth", "5000", "--radius", "500",
                "--density-contrast", "-2700"] + extra
        assert main(argv) == 3
        assert capsys.readouterr() == ("", (
            f"geopotent: domain error: delta_g / g0 underflows to 0 at "
            f"offset {offset} m; the advantage relative_u / relative_g is "
            f"undefined\n"))

    def test_arithmetic_error_names_command_and_type(self, capsys,
                                                     monkeypatch):
        # no input reaches a ZeroDivisionError any more; raise one
        def divide(*args):
            return 1.0 / 0.0

        monkeypatch.setattr("geopotent.cli.detectability_report", divide)
        assert main(["anomaly", "--depth", "5000", "--radius", "500",
                     "--density-contrast", "-2700", "--offsets", "5000"]) == 3
        assert capsys.readouterr().err == (
            "geopotent: domain error: anomaly: ZeroDivisionError: float "
            "division by zero\n")

    def test_errno_overflow_names_command_and_type(self, capsys,
                                                   monkeypatch):
        # no input reaches a float ** overflow any more; raise the one it
        # gave, whose str() is "(34, '...')"
        def overflow(*args):
            return 1e299 ** 3

        monkeypatch.setattr("geopotent.cli.detectability_report", overflow)
        assert main(["anomaly", "--depth", "5000", "--radius", "500",
                     "--density-contrast", "-2700", "--offsets", "5000"]) == 3
        err = capsys.readouterr().err
        assert err == ("geopotent: domain error: anomaly: OverflowError: "
                       "Numerical result out of range\n")
        assert "(34," not in err

    def test_radius_whose_cube_overflows(self, capsys):
        assert main(["anomaly", "--depth", "1e104", "--radius", "1e103",
                     "--density-contrast", "-2700", "--offsets", "1e104"]) == 2
        assert capsys.readouterr() == ("", (
            "geopotent: error: radius 1e+103 is too large: its cube "
            "overflows the float range\n"))


class TestPulseCommand:
    def test_exact_header_after_preamble(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(["pulse", "--schedule",
                     "tests/fixtures/growth_schedule.json",
                     "--num-samples", "5"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        assert lines[0] == ",".join(PULSE_COLUMNS)
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

    # a list is unhashable, so the kind check must not look it up in a dict
    @pytest.mark.parametrize("kind", ["wobble", ["linear"]])
    def test_unknown_segment_kind(self, kind, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "source_mass": 1e12, "observer_radius": 5000.0,
            "host_density_contrast": -2700.0,
            "segments": [{"t_start": 0, "t_end": 10, "kind": kind,
                          "params": {"radius": 500.0}}]}))
        assert main(["pulse", "--schedule", str(bad)]) == 2
        assert capsys.readouterr() == ("", (
            f"geopotent: error: {bad}: segment 0: unknown kind {kind!r}, "
            f"expected one of ('constant', 'linear', 'coalesce_step')\n"))

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

    @pytest.mark.parametrize("kind, params, name", [
        ("constant", {"radius": 1e110}, "radius"),
        ("linear", {"radius_start": 1.0, "radius_end": 1e110}, "radius_end"),
        ("coalesce_step", {"radius_1": 1e110, "radius_2": 1e110},
         "radius_1"),
    ])
    def test_radius_whose_cube_overflows_names_segment(self, kind, params,
                                                       name, tmp_path,
                                                       capsys):
        # with the observer this far out, no radius reaches it
        def edit(schedule):
            schedule["observer_radius"] = 1e300
            schedule["segments"][1].update(kind=kind, params=params)
        path = self.write_schedule(tmp_path, edit)
        assert main(["pulse", "--schedule", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"geopotent: error: {path}: segment 1: {name} 1e+110 is too "
            f"large: its cube overflows the float range\n"))

    @pytest.mark.parametrize("times", [["--times", "0,5"],
                                       ["--times", "0,50000"], []],
                             ids=["before_it", "in_it", "grid"])
    @pytest.mark.parametrize("kind, params", [
        ("coalesce_step", {"radius_1": 1e-110, "radius_2": 1e-110}),
        ("linear", {"radius_start": 1e100, "radius_end": 1e-300}),
    ], ids=["coalesce_step", "linear"])
    def test_radius_that_rounds_to_0_names_segment(self, kind, params, times,
                                                   tmp_path, capsys):
        # the merged volume underflows to 0, or the linear end rounds to
        # 0.0; the schedule is rejected whether or not a time reaches it
        def edit(schedule):
            schedule["observer_radius"] = 1e101
            schedule["segments"][1].update(kind=kind, params=params)
        path = self.write_schedule(tmp_path, edit)
        assert main(["pulse", "--schedule", str(path), *times]) == 2
        assert capsys.readouterr() == ("", (
            f"geopotent: error: {path}: segment 1: radius falls to 0.0; a "
            f"cavity radius must stay positive\n"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("contrast", [1e300, -1e300])
    def test_non_finite_delta_names_the_cell(self, contrast, fmt, tmp_path,
                                             capsys):
        # the mass deficit overflows to inf, so every delta is inf - inf
        path = self.write_schedule(
            tmp_path, lambda s: s.update(host_density_contrast=contrast))
        assert main(["pulse", "--schedule", str(path), "--format", fmt]) == 3
        assert capsys.readouterr() == ("", (
            "geopotent: domain error: report cell rows.delta_u_j_kg is not "
            "finite: nan\n"))

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

    @pytest.mark.parametrize("segments, message", [
        ({}, "segments must be an array"), ([], "schedule has no segments")],
        ids=["object", "empty"])
    def test_schedule_segments_named(self, segments, message, tmp_path,
                                     capsys):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({
            "source_mass": 1e12, "observer_radius": 5000.0,
            "host_density_contrast": -2700.0, "segments": segments}))
        assert main(["pulse", "--schedule", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"geopotent: error: {path}: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["pulse", "--schedule", "tests/fixtures/growth_schedule.json",
         "--times", "0,a"],
        ["anomaly", "--depth", "5000", "--radius", "500",
         "--density-contrast", "-2700", "--offsets", "0,a"]],
        ids=["times", "offsets"])
    def test_non_numeric_list_flag_named(self, argv, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            f"geopotent: error: {argv[-2]} must be a comma-separated list "
            f"of numbers, got '0,a'\n"))

    def test_empty_times_rejected(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(["pulse", "--schedule",
                     "tests/fixtures/growth_schedule.json",
                     "--times", ""]) == 2
        assert capsys.readouterr() == (
            "", "geopotent: error: --times is empty\n")

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

    @pytest.mark.parametrize("spans, flags, message", [
        ([(-1e308, 1e308)], ["--times=-1e308,0,5e307"], "segment 0: span"),
        ([(-1e308, 1e308)], [], "segment 0: span"),
        ([(-1e308, 1e308)], ["--times", "0,1e308"], "segment 0: span"),
        ([(-1e308, 0.0), (0.0, 1e308)], [], "schedule span"),
    ], ids=["times", "num_samples", "times_at_end", "two_segments"])
    def test_span_past_the_float_range_rejected(self, spans, flags, message,
                                                tmp_path, capsys):
        # t_end - t_start is inf: a linear segment would read its radius
        # at (t - t_start) / inf, and the uniform grid would hold nan
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(self.linear_schedule(spans)))
        assert main(["pulse", "--schedule", str(path), *flags]) == 2
        assert capsys.readouterr() == ("", (
            f"geopotent: error: {path}: {message} [-1e+308, 1e+308] is too "
            f"long: t_end - t_start overflows the float range\n"))

    def test_num_samples_grid_past_the_float_range_rejected(self, tmp_path,
                                                            capsys):
        # span * 999 overflows, and most of the grid would clamp to t_end;
        # 100 samples still fit
        path = tmp_path / "long.json"
        path.write_text(json.dumps(self.linear_schedule([(0.0, 1e306)])))
        argv = ["pulse", "--schedule", str(path), "--format", "json"]
        assert main(argv + ["--num-samples", "1000"]) == 2
        assert capsys.readouterr() == ("", (
            "geopotent: error: --num-samples 1000 over the schedule span "
            "[0.0, 1e+306] overflows the float range; pass --times "
            "instead\n"))
        assert main(argv + ["--num-samples", "100"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        times = [row["t_s"] for row in rows]
        assert len(set(times)) == 100 and times[-1] == 1e306
        assert rows[-1]["source_radius_m"] == pytest.approx(200.0)

    @staticmethod
    def linear_schedule(spans):
        """A schedule of linear 100 -> 200 m segments over `spans`."""
        return {"source_mass": 1e12, "observer_radius": 5000.0,
                "host_density_contrast": -2700.0,
                "segments": [{"t_start": a, "t_end": b, "kind": "linear",
                              "params": {"radius_start": 100.0,
                                         "radius_end": 200.0}}
                             for a, b in spans]}

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


def random_schedule_file(rng, path):
    """A schedule of 2 to 9 segments of every kind, written to `path`."""
    segments, t = [], 0.0
    for _ in range(rng.randint(2, 9)):
        kind = rng.choice(["constant", "linear", "coalesce_step"])
        names = {"constant": ["radius"],
                 "linear": ["radius_start", "radius_end"],
                 "coalesce_step": ["radius_1", "radius_2"]}[kind]
        end = t + rng.choice([1.0, 7.5, rng.uniform(1.0, 1e4)])
        segments.append({"t_start": t, "t_end": end, "kind": kind,
                         "params": {name: rng.uniform(100.0, 2000.0)
                                    for name in names}})
        t = end
    path.write_text(json.dumps({
        "source_mass": rng.choice([1e12, 3.7e15]), "observer_radius": 5000.0,
        "host_density_contrast": rng.choice([-2700.0, 2700.0, -1e4]),
        "segments": segments}))
    ends = [seg["t_start"] for seg in segments] + [t]
    return ends


def per_row_reference(text, fmt, table):
    """`text` with its rows written by the per-row template over the
    per-sample table `table`: ``%.10g`` per cell for CSV, as every cell
    here is a finite float below the 10-digit limit, and the rows of
    ``json.dumps(..., indent=2)`` for JSON."""
    rows = list(table)
    if fmt == "csv":
        assert all(abs(cell) < LIMIT for row in rows for cell in row)
        head = text[:text.index(",".join(PULSE_COLUMNS))]
        return "\n".join([head + ",".join(PULSE_COLUMNS),
                          *(",".join(["%.10g"] * 6) % row for row in rows),
                          ""])
    report = json.loads(text)
    report["rows"] = [dict(zip(PULSE_COLUMNS, row)) for row in rows]
    return json.dumps(report, indent=2) + "\n"


class TestPulseRuns:
    """The pulse writer formats each run's cells once; what it writes is
    what the per-row template writes over the expanded table."""

    def test_random_schedules_write_the_per_row_bytes(self, tmp_path,
                                                      capsys):
        rng = random.Random(34)
        longest = 0
        for case in range(40):
            path = tmp_path / f"schedule{case}.json"
            ends = random_schedule_file(rng, path)
            # repeated times, times on segment ends, and times between
            pool = ends + [rng.uniform(ends[0], ends[-1]) for _ in range(8)]
            times = [rng.choice(pool) for _ in range(rng.randint(1, 30))]
            table = evaluate_schedule(read_schedule_json(str(path)),
                                      sorted(times))
            longest = max(longest, *table.runs()[1])
            for fmt in ("csv", "json"):
                assert main(["pulse", "--schedule", str(path), "--times",
                             ",".join(map(repr, times)),
                             "--format", fmt]) == 0
                out = capsys.readouterr().out
                assert out == per_row_reference(out, fmt, table)
        assert longest > 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_run_cell_past_the_float_range_is_named(self, fmt, tmp_path,
                                                      capsys):
        # the linear run is finite; the radius of the constant run is so
        # small that its potential overflows to inf
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({
            "source_mass": 1e300, "observer_radius": 5000.0,
            "host_density_contrast": -2700.0,
            "segments": [
                {"t_start": 0.0, "t_end": 10.0, "kind": "linear",
                 "params": {"radius_start": 500.0, "radius_end": 1000.0}},
                {"t_start": 10.0, "t_end": 20.0, "kind": "constant",
                 "params": {"radius": 1e-300}}]}))
        assert main(["pulse", "--schedule", str(path), "--times",
                     "0,5,12,15,18", "--format", fmt]) == 3
        assert capsys.readouterr() == ("", (
            "geopotent: domain error: report cell rows.potential_j_kg is "
            "not finite: inf\n"))


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

    @pytest.mark.parametrize("data, message", [
        ({"earth": []}, ".earth must be an object"),
        ({"p_g_override": -1}, ".p_g_override must be positive"),
        ({"p_g_override": 0}, ".p_g_override must be positive"),
        ({"boundaries": {}}, ".boundaries must be an array")],
        ids=["earth", "negative_p_g", "zero_p_g", "boundaries"])
    def test_malformed_block_named(self, data, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["inverse", "--u-inf", "111652000",
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr() == (
            "", f"geopotent: error: {cfg}{message}\n")

    def test_invalid_json_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"p_g_override": ')
        assert main(["inverse", "--u-inf", "111652000",
                     "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"geopotent: error: {cfg}: invalid JSON: ")
        assert len(err.splitlines()) == 1

    def test_boundary_missing_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"boundaries": [{"name": "CMB",
                                                   "radius": 3.48e6}]}))
        assert main(["direct", "--config", str(cfg), "--p-g", "1e11"]) == 2
        err = capsys.readouterr().err
        assert "missing key(s)" in err and "layer_half_thickness" in err

    @pytest.mark.parametrize("gamma", [0, -1])
    def test_bad_gamma_names_the_file(self, gamma, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"constants": {"gamma": gamma}}))
        assert main(["direct", "--p-g", "1e11", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", (
            f"geopotent: error: {cfg}.constants: gamma must be positive "
            f"and finite, got {float(gamma)!r}\n"))

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
        "a,b\n# earth.mass=1", "CMB\r", None, 5, {"x": [1]},
        "a\u2028# earth.mass=1", "a\x0cb", "a\x85b", "a\x1eb"],
        ids=["comma_and_newline", "carriage_return", "null", "number",
             "object", "line_separator", "form_feed", "next_line",
             "record_separator"])
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
            f"string without a comma or line break, got {name!r}\n"))

    @pytest.mark.parametrize("earth, detail", [
        ({"mean_density": 1e300, "mean_radius": 1e10, "mass": 1e30},
         "u_surface must be positive and finite, got inf"),
        # g0 = gamma*M/R^2 with R^2 underflowing to 0
        ({"mean_density": 1e300, "mean_radius": 1e-170},
         "the square of the mean radius 1e-170 m underflows to 0")],
        ids=["overflow", "zero_r_squared"])
    @pytest.mark.parametrize("argv", [
        ["direct", "--p-g", "1e11"],
        ["pulse", "--schedule", "tests/fixtures/growth_schedule.json"],
        ["inverse", "--u-inf", "111652000"]],
        ids=["direct", "pulse", "inverse"])
    def test_earth_whose_surface_terms_fail_names_the_file(
            self, argv, earth, detail, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"earth": earth}))
        assert main(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr() == (
            "", f"geopotent: error: {cfg}.earth: {detail}\n")

    def test_gm_key_rejected(self, tmp_path, capsys):
        # gamma * mass is computed from constants.gamma and earth.mass
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"earth": {"mass": 5.9737e24,
                                             "gm": 4.2e14}}))
        assert main(["direct", "--config", str(cfg), "--p-g", "1e11"]) == 2
        assert capsys.readouterr().err.startswith(
            f"geopotent: error: unknown key(s) in {cfg}.earth: gm; ")

    @pytest.mark.parametrize("flag", [[], ["--out", "-"]],
                             ids=["none", "flag"])
    def test_dash_out_writes_stdout(self, flag, tmp_path, capsys,
                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(["inverse", "--u-inf", "111652000",
                     "--config", str(cfg)] + flag) == 0
        out, err = capsys.readouterr()
        assert out.startswith("# geopotent inverse\n") and err == ""
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("key, value", [
        ("output_format", "csv"), ("output_path", "-")])
    def test_output_keys_rejected(self, key, value, tmp_path, capsys):
        # the output is chosen by --format and --out alone
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_g_override": 1e11, key: value}))
        assert main(["direct", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == (
            "", f"geopotent: error: unknown key(s) in {cfg}: {key}; allowed: "
                "boundaries, constants, earth, p_g_override\n")


# Single faults in the schedule and config fixtures: (file, key path to the
# faulty value, the JSON literal put there or None to delete the key, the
# error line with {path} for the file's path).
NUMBER_FIELDS = [
    ("schedule", ("source_mass",), "{path}: schedule.source_mass"),
    ("schedule", ("observer_radius",), "{path}: schedule.observer_radius"),
    ("schedule", ("host_density_contrast",),
     "{path}: schedule.host_density_contrast"),
    ("schedule", ("segments", 0, "t_start"), "{path}: segment 0.t_start"),
    ("schedule", ("segments", 0, "t_end"), "{path}: segment 0.t_end"),
    ("schedule", ("segments", 0, "params", "radius"),
     "{path}: segment 0.params.radius"),
    ("schedule", ("segments", 1, "params", "radius_end"),
     "{path}: segment 1.params.radius_end"),
    ("config", ("constants", "gamma"), "{path}.constants.gamma"),
    *(("config", ("earth", key), f"{{path}}.earth.{key}")
      for key in EarthParameters._fields),
    ("config", ("p_g_override",), "{path}.p_g_override"),
    ("config", ("boundaries", 0, "radius"), "{path}.boundaries[0].radius"),
    ("config", ("boundaries", 0, "layer_half_thickness"),
     "{path}.boundaries[0].layer_half_thickness"),
]
SCHEDULE_KEYS = "allowed: host_density_contrast, observer_radius, segments, " \
                "source_mass"
READER_FAULTS = [
    *(("schedule", (key,), None,
       f"{{path}}: missing key(s) in schedule: {key}")
      for key in ("source_mass", "observer_radius", "host_density_contrast",
                  "segments")),
    *(("schedule", ("segments", 0, key), None,
       f"{{path}}: missing key(s) in segment 0: {key}")
      for key in ("t_start", "t_end", "kind", "params")),
    ("schedule", ("segments", 0, "params", "radius"), None,
     "{path}: missing key(s) in segment 0.params: radius"),
    ("schedule", ("segments", 1, "params", "radius_end"), None,
     "{path}: missing key(s) in segment 1.params: radius_end"),
    ("schedule", ("typo",), "1",
     f"{{path}}: unknown key(s) in schedule: typo; {SCHEDULE_KEYS}"),
    ("schedule", ("segments", 0, "typo"), "1",
     "{path}: unknown key(s) in segment 0: typo; allowed: kind, params, "
     "t_end, t_start"),
    ("schedule", ("segments", 0, "params", "typo"), "1",
     "{path}: unknown key(s) in segment 0.params: typo; allowed: radius"),
    ("schedule", ("segments", 0, "kind"), '"wobble"',
     "{path}: segment 0: unknown kind 'wobble', expected one of "
     "('constant', 'linear', 'coalesce_step')"),
    ("schedule", ("segments",), "{}", "{path}: segments must be an array"),
    ("schedule", ("segments", 0), "[]", "{path}: segment 0 must be an object"),
    ("schedule", ("segments", 0, "params"), "[]",
     "{path}: segment 0.params must be an object"),
    ("schedule", ("source_mass",), "-1",
     "{path}: source_mass must be positive and finite, got -1.0"),
    ("schedule", ("segments", 0, "t_end"), "-1",
     "{path}: segment 0: t_end must exceed t_start"),
    *(("config", ("boundaries", 0, key), None,
       f"missing key(s) in {{path}}.boundaries[0]: {key}")
      for key in BoundaryReference._fields),
    ("config", ("typo",), "1",
     "unknown key(s) in {path}: typo; allowed: boundaries, constants, "
     "earth, p_g_override"),
    ("config", ("constants", "typo"), "1",
     "unknown key(s) in {path}.constants: typo; allowed: gamma"),
    ("config", ("earth", "typo"), "1",
     "unknown key(s) in {path}.earth: typo; allowed: mass, mean_density, "
     "mean_radius, surface_first_cosmic_velocity"),
    ("config", ("boundaries", 0, "typo"), "1",
     "unknown key(s) in {path}.boundaries[0]: typo; allowed: "
     "layer_half_thickness, name, radius"),
    ("config", ("boundaries",), "{}", "{path}.boundaries must be an array"),
    ("config", ("constants",), "[]", "{path}.constants must be an object"),
    ("config", ("earth",), "[]", "{path}.earth must be an object"),
    ("config", ("boundaries", 0), "[]",
     "{path}.boundaries[0] must be an object"),
    ("config", ("constants", "gamma"), "0",
     "{path}.constants: gamma must be positive and finite, got 0.0"),
    ("config", ("earth", "mass"), "-1",
     "{path}.earth: mass must be positive and finite, got -1.0"),
    ("config", ("boundaries", 0, "layer_half_thickness"), "-1",
     "{path}.boundaries[0]: layer_half_thickness must be >= 0, got -1.0"),
    ("config", ("boundaries", 0, "name"), "5",
     "{path}.boundaries[0]: boundary name must be a string without a comma "
     "or line break, got 5"),
    ("config", ("p_g_override",), "-1", "{path}.p_g_override must be positive"),
    *((file, keys, literal, f"{where} must be a number, got {shown}")
      for file, keys, where in NUMBER_FIELDS
      for literal, shown in (('"1"', "'1'"), ("true", "True"),
                             ("1e400", "inf"))),
]


class TestReaderMessages:
    @pytest.mark.parametrize(
        "file, keys, literal, message", READER_FAULTS,
        ids=[f"{f[0]}-{'.'.join(map(str, f[1]))}-{f[2]}"
             for f in READER_FAULTS])
    def test_single_fault_message(self, file, keys, literal, message,
                                  tmp_path, capsys):
        fixture = {"schedule": "growth_schedule.json",
                   "config": "earth_config.json"}[file]
        with open(os.path.join(ROOT, "tests", "fixtures", fixture)) as fh:
            data = json.load(fh)
        node = data
        for key in keys[:-1]:
            node = node[key]
        if literal is None:
            del node[keys[-1]]
        else:
            node[keys[-1]] = "@"
        path = tmp_path / f"{file}.json"
        path.write_text(json.dumps(data).replace('"@"', literal or ""))
        flag = "--schedule" if file == "schedule" else "--config"
        argv = ["pulse"] if file == "schedule" else ["inverse", "--u-inf",
                                                      "111652000"]
        assert main(argv + [flag, str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"geopotent: error: {message.replace('{path}', str(path))}\n")


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
            resolve_config(path)


class TestQuotedPaths:
    """The report quotes the --profile and --schedule paths in its
    preamble, so a path with a line break would add a preamble line."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", [
        "x\n# earth.mass=1.csv", "x\r.csv", "x\u2028y.csv", "x\x0cy.csv"],
        ids=["newline", "carriage_return", "line_separator", "form_feed"])
    @pytest.mark.parametrize("command, flag, fixture", [
        ("profile", "--profile", "prem20.csv"),
        ("pulse", "--schedule", "growth_schedule.json")])
    def test_line_break_in_path_rejected(self, command, flag, fixture, name,
                                         fmt, tmp_path, capsys):
        path = tmp_path / name
        with open(os.path.join(ROOT, "tests", "fixtures", fixture), "rb") as fh:
            path.write_bytes(fh.read())
        out = tmp_path / "report.txt"
        assert main([command, flag, str(path), "--format", fmt,
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            f"geopotent: error: {flag} path must not hold a line break, "
            f"got {str(path)!r}\n"))
        assert not out.exists()


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
        # entry() leaves OPENBLAS_NUM_THREADS as the user set it
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setattr(sys, "argv", ["geopotent", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code == main(argv)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "geopotent", "unknowncmd"],
            capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 2


def fresh(statements, **env):
    """Run `statements` in a new interpreter with `env` added to the
    environment, less OPENBLAS_NUM_THREADS and GEOPOTENT_CONFIG; return
    the JSON object on its last stdout line."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GEOPOTENT_CONFIG")}
    proc = subprocess.run(
        [sys.executable, "-c", statements], cwd=ROOT, capture_output=True,
        text=True, check=True,
        env={**base, "PYTHONPATH": os.path.join(ROOT, "src"), **env})
    return json.loads(proc.stdout.splitlines()[-1])


# `python -m geopotent profile ...`, then what the process holds at its end
PROFILE_RUN = """
import json, os, runpy, sys
sys.argv = ["geopotent", "profile", "--profile", "tests/fixtures/prem20.csv"]
try:
    runpy.run_module("geopotent", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "numpy": "numpy" in sys.modules,
                  "threads": len(os.listdir("/proc/self/task"))
                             if os.path.isdir("/proc/self/task") else None}))
"""


class TestBlasThreads:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task to count OS threads")
    def test_profile_run_has_one_thread_and_no_numpy(self):
        assert fresh(PROFILE_RUN) == {"code": 0, "openblas": None,
                                      "numpy": False, "threads": 1}

    def test_users_value_is_kept(self):
        run = fresh(PROFILE_RUN, OPENBLAS_NUM_THREADS="2")
        assert (run["code"], run["openblas"]) == (0, "2")

    def test_library_leaves_the_environment_alone(self):
        run = fresh(
            "import json, os\n"
            "before = dict(os.environ)\n"
            "import geopotent\n"
            "geopotent.sample_field(geopotent.UniformSphere.from_mass_radius("
            "5.9737e24, 6.371e6), [0.0, 3.0e6, 1.0e7])\n"
            "print(json.dumps(dict(os.environ) == before))\n")
        assert run is True
