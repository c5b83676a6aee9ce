"""Command-line interface: output formats, exit codes, config handling."""
import contextlib
import csv
import io
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskauctions import cli, make_distribution, parse_mechanism
from riskauctions.cli import MAX_GRID, build_parser, main
from riskauctions.numerics import MAX_EXACT_N


def run(argv):
    """Invoke the CLI in-process, capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if e.code is not None else 0
    return code, out.getvalue(), err.getvalue()


class TestDist:
    def test_uniform_table(self):
        code, out, _ = run(["dist", "uniform:0,1", "--grid", "4"])
        assert code == 0
        assert out == ("q,revenue,price,cdf_at_price\r\n"
                       "0.25,0.1875,0.75,0.75\r\n"
                       "0.5,0.25,0.5,0.5\r\n"
                       "0.75,0.1875,0.25,0.25\r\n"
                       "1,0,0,0\r\n")

    def test_no_negative_zero(self):
        code, out, _ = run(["dist", "exponential:1", "--grid", "4"])
        assert code == 0
        assert out.split("\r\n")[4] == "1,0,0,0"
        fields = [f for row in csv.reader(io.StringIO(out)) for f in row]
        assert "-0" not in fields

    def test_svg(self):
        code, out, _ = run(["dist", "uniform:0,1", "--grid", "50",
                            "--format", "svg"])
        assert code == 0
        assert out.startswith("<svg ")
        assert "polyline" in out
        assert out.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("command", ["dist", "frontier"])
    def test_huge_grid_rejected_up_front(self, command):
        # 10^11 grid points would take 745 GiB; nothing of that size may be built
        tracemalloc.start()
        try:
            code, out, err = run([command, "uniform:0,1", "--grid", "100000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == f"error: grid must be at most {MAX_GRID}\n"
        assert peak < 16 * 2 ** 20

    def test_rows_stream_to_the_output(self, tmp_path):
        # 50,000 rows held as text took 23 MiB; streamed, the arrays take 3
        tracemalloc.start()
        try:
            code, _, _ = run(["dist", "uniform:0,1", "--grid", "50000",
                              "--out", str(tmp_path / "dist.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2 ** 20

    def test_bad_spec_exits_2(self):
        code, _, err = run(["dist", "frob:1"])
        assert code == 2
        assert "unknown distribution kind" in err

    # curves ending at R(1) = 0 whose last price, taken from the left end of
    # the last segment, rounds to -2.2e-16
    @pytest.mark.parametrize("spec", [
        "left-triangle:0.025", "left-triangle:0.068", "left-triangle:0.162",
        "irregular-example:0.068", "irregular-example:0.07"])
    def test_curves_ending_at_zero_revenue(self, spec):
        code, _, err = run(["dist", spec])
        assert code == 0, err
        code, out, err = run(["frontier", spec])
        assert code == 0, err
        assert "nan" not in out.lower()


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOAT_CELLS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(float_from_bits),  # NaN payloads included
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),
    st.floats(-1e-300, 1e-300),  # subnormals
    st.floats(allow_nan=True, allow_infinity=True))


@given(st.integers(1, 8).flatmap(lambda cols: st.lists(
           st.lists(FLOAT_CELLS, min_size=cols, max_size=cols), min_size=1, max_size=30)),
       st.integers(1, 7))
def test_block_format_is_fmt_cell_by_cell(rows, block_rows):
    table = np.array(rows, dtype=float)
    want = "".join(",".join(cli._fmt(x) for x in row) + "\r\n" for row in table.tolist())
    with mock.patch.object(cli, "CSV_BLOCK_ROWS", block_rows):
        assert "".join(cli._csv_blocks(table)) == want


def one_fmt_per_cell(table):
    """The rows through csv.writer, one _fmt call per cell: the route the
    block formatter replaced."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(
        [cli._fmt(x) for x in row] for row in table.tolist())
    yield buf.getvalue()


@pytest.mark.parametrize("grid", [1, 100, 1000])
@pytest.mark.parametrize("spec", ["uniform:0,1", "exponential:2.5", "left-triangle:0.01",
                                  "irregular-example:0.07",
                                  "revenue-curve:0:0;0.3:0.6;1:0.8"])
@pytest.mark.parametrize("command", ["dist", "frontier"])
def test_tables_match_one_fmt_per_cell(command, spec, grid):
    got = run([command, spec, "--grid", str(grid)])
    with mock.patch.object(cli, "_csv_blocks", one_fmt_per_cell):
        want = run([command, spec, "--grid", str(grid)])
    assert got[0] == 0 and got == want


class TestPrice:
    def test_unlimited_only(self):
        code, out, _ = run(["price", "uniform:0,1"])
        assert code == 0
        assert out == "p_star=0.5\nq_star=0.5\nhedge_unlimited=0.25\n"

    def test_limited_and_reserve(self):
        code, out, _ = run(["price", "uniform:0,1", "--n", "2", "--k", "1",
                            "--utility", "power:0.5"])
        assert code == 0
        assert out == ("p_star=0.5\nq_star=0.5\nhedge_unlimited=0.25\n"
                       "hedge_limited=0.53125\nr_u_star=0.333333333333\n")

    def test_utility_spec_rejected_as_distribution(self):
        code, _, err = run(["price", "linear"])
        assert code == 2
        assert "malformed distribution spec" in err


class TestEval:
    def test_exact_row(self):
        code, out, _ = run(["eval", "--mech", "vcg:1,0", "--dist",
                            "uniform:0,1", "--n", "2"])
        assert code == 0
        assert out == (
            "mechanism,dist,n,k,utility,method,mean_utility,ci_halfwidth,"
            "benchmark,ratio\r\n"
            '"vcg:1,0","uniform:0,1",2,1,linear,exact,'
            "0.333333333333,0,0.416666666667,0.8\r\n")

    def test_monte_carlo_row(self):
        # reserved multi-unit VCG is exact; only n > MAX_EXACT_N samples
        def row(n, samples):
            code, out, err = run(["eval", "--mech", "vcg:2,0.3", "--dist",
                                  "uniform:0,1", "--n", str(n), "--samples",
                                  str(samples), "--seed", "2"])
            assert code == 0, err
            return next(csv.reader(io.StringIO(out.split("\r\n")[1])))

        exact = row(5, 20000)
        assert exact[5] == "exact" and exact[7] == "0"
        mc = row(MAX_EXACT_N + 1, 1000)
        assert mc[5] == "monte_carlo"
        assert float(mc[7]) > 0

    def test_large_supply_is_exact(self):
        # n!/(600! 599!) overflows a float; the value is the closed form
        # of TestVcgExact.test_large_n_closed_form
        code, out, err = run(["eval", "--mech", "vcg:600,0.5", "--dist", "uniform:0,1",
                              "--n", "1200", "--samples", "1000"])
        assert code == 0, err
        row = next(csv.reader(io.StringIO(out.split("\r\n")[1])))
        assert row[5] == "exact"
        assert float(row[6]) == pytest.approx(299.875104080, rel=1e-11)

    def test_huge_n_is_memory_bounded(self):
        # one 1000 x 20000 draw alone would take 153 MiB
        tracemalloc.start()
        try:
            code, _, err = run(["eval", "--mech", "posted:0.5,2", "--dist", "uniform:0,1",
                                "--n", "20000", "--samples", "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 256 * 2 ** 20

    def test_missing_required_flag(self):
        code, _, err = run(["eval", "--dist", "uniform:0,1", "--n", "2"])
        assert code == 2
        assert "--mech" in err

    def test_too_few_samples(self):
        code, _, err = run(["eval", "--mech", "posted:0.5,1", "--dist",
                            "uniform:0,1", "--n", "2", "--samples", "10"])
        assert code == 2
        assert "at least 1000" in err

    def test_svg_not_supported(self):
        code, _, err = run(["eval", "--mech", "posted:0.5,1", "--dist",
                            "uniform:0,1", "--n", "2", "--format", "svg"])
        assert code == 2
        assert "svg output applies to dist and frontier only" in err

    # a well-formed spec whose price cannot be resolved reports why
    @pytest.mark.parametrize("mech,dist,reason", [
        ("hedge:20000,5", "uniform:0,1", "limited to n <= 10000"),
        ("opt-single:linear", "irregular-example:0.01", "needs a regular distribution"),
    ])
    def test_derived_price_errors_are_not_parse_errors(self, mech, dist, reason):
        code, out, err = run(["eval", "--mech", mech, "--dist", dist])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and reason in err
        assert "malformed" not in err

    # the best reserve sits on the top atom, and at the bottom of the support
    @pytest.mark.parametrize("dist,reserve", [("left-triangle:0.05", 20.0),
                                              ("uniform:0.8,1.5", 0.8)])
    def test_opt_single_reserve(self, dist, reserve):
        m, _ = parse_mechanism("opt-single:linear", make_distribution(dist))
        assert m.reserve == reserve
        code, out, err = run(["eval", "--mech", "opt-single:linear", "--dist", dist])
        assert (code, err) == (0, "")
        _, want, _ = run(["eval", "--mech", f"vcg:1,{reserve!r}", "--dist", dist])
        rows = [r[1:] for r in csv.reader(io.StringIO(out))]
        assert rows == [r[1:] for r in csv.reader(io.StringIO(want))]

    def test_malformed_mechanism_spec(self):
        code, _, err = run(["eval", "--mech", "hedge:x,2", "--dist", "uniform:0,1"])
        assert code == 2
        assert err.startswith("error: malformed mechanism spec: 'hedge:x,2'")


class TestLemmas:
    def test_single_check_to_file(self, tmp_path):
        p = tmp_path / "tail.csv"
        code, out, _ = run(["lemmas", "tail", "--seed", "3", "--samples",
                            "2000", "--out", str(p)])
        assert code == 0
        assert out == ""
        data = p.read_bytes()
        assert data.startswith(b"name,passed,claimed_bound,observed,margin,"
                               b"instances_checked,worst_instance\r\n")
        assert b'"tail[uniform:0,1|t=2,n=2]",true,0.25,0.444444444444' in data

    def test_reruns_are_byte_identical(self):
        a = run(["lemmas", "tail", "--seed", "3", "--samples", "2000"])
        b = run(["lemmas", "tail", "--seed", "3", "--samples", "2000"])
        assert a == b and a[0] == 0

    def test_failed_check_exits_1(self):
        code, out, _ = run(["lemmas", "virtual-utility-monotone", "--dist",
                            "irregular-example:0.01", "--samples", "2000"])
        assert code == 1
        rows = out.strip().split("\r\n")[1:]
        assert any(",false," in r for r in rows)
        assert any(",true," in r for r in rows)

    def test_point_mass_with_a_breakpoint(self):
        # every segment of this curve is constant-price (no density): it
        # must report what the two-point form of the same point mass reports
        def rows(spec):
            code, out, err = run(["lemmas", "virtual-utility-monotone", "--dist", spec])
            assert code == 0, err
            return [r.replace(spec, "SPEC") for r in out.strip().split("\r\n")[1:]]

        got = rows("revenue-curve:0:0;0.5:0.5;1:1")
        assert got == rows("revenue-curve:0:0;1:1")
        assert all(",true,0,0,0," in r for r in got) and len(got) == 3

    def test_unknown_selection(self):
        code, _, err = run(["lemmas", "nope", "--samples", "2000"])
        assert code == 2
        assert "unknown check 'nope'" in err
        assert "half-bound" in err

    def test_all_runs_clean(self):
        code, out, _ = run(["lemmas", "all", "--samples", "20000",
                            "--seed", "1"])
        assert code == 0
        rows = out.strip().split("\r\n")[1:]
        assert len(rows) >= 11
        assert all(",true," in r for r in rows)


class TestFrontier:
    def test_csv_table(self):
        code, out, _ = run(["frontier", "uniform:0,1", "--grid", "4"])
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0].startswith("price,sale_prob,ratio_linear,")
        assert lines[0].endswith(",ratio_capped:0.1,min_ratio")
        assert lines[1] == "0,1,0,0,0,0,0,0,0,0,0,0,0,0"
        assert lines[-1].startswith("0.75,0.25,0.75,")

    def test_no_negative_zero(self):
        code, out, _ = run(["frontier", "exponential:1", "--grid", "4"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][:3] == ["0", "1", "0"]
        assert "-0" not in [f for row in rows for f in row]

    @pytest.mark.parametrize("cmd", ["frontier", "dist"])
    def test_out_file_matches_stdout(self, cmd, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run([cmd, "exponential:2", "--grid", "300"])
        assert code == 0 and out.count("\r\n") > 300
        assert run([cmd, "exponential:2", "--grid", "300", "--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == out.encode()

    def test_family_flag(self):
        code, out, _ = run(["frontier", "uniform:0,1", "--grid", "4",
                            "--family", "linear"])
        assert code == 0
        assert out.split("\r\n")[0] == "price,sale_prob,ratio_linear,min_ratio"

    def test_svg(self):
        code, out, _ = run(["frontier", "uniform:0,1", "--grid", "60",
                            "--format", "svg"])
        assert code == 0
        assert "polyline" in out and out.startswith("<svg ")


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("seed = 3\nsamples = 2000\n")
        assert run(["lemmas", "tail", "--config", str(cfg)]) == \
            run(["lemmas", "tail", "--seed", "3", "--samples", "2000"])

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("seed = 3\nsamples = 2000\n")
        assert run(["lemmas", "tail", "--config", str(cfg), "--seed", "5"]) \
            == run(["lemmas", "tail", "--seed", "5", "--samples", "2000"])

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("zebra = 1\n")
        code, _, err = run(["lemmas", "tail", "--config", str(cfg)])
        assert code == 2
        assert "unknown config keys: zebra" in err

    def test_missing_file_rejected(self, tmp_path):
        code, _, err = run(["lemmas", "tail", "--config",
                            str(tmp_path / "nope.ini")])
        assert code == 2
        assert "cannot read config file" in err


class TestReproduce:
    def test_table_passes(self):
        code, out, _ = run(["reproduce", "--samples", "20000", "--seed", "1"])
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "name,instance,claimed,computed,passed"
        assert len(lines) == 18
        assert all(line.endswith(",true") for line in lines[1:])
        names = {line.split(",")[0] for line in lines[1:]}
        assert {"hedge-unlimited-floor", "frontier-maximin",
                "vickrey-vs-optimal", "tail-quarter-tight",
                "allocation-bracket"} <= names

    def test_identity_rows_do_not_depend_on_the_seed(self):
        # both sides of the identity are exact, so no row samples
        for argv in (["reproduce"], ["lemmas", "virtual-utility-identity"]):
            a, b = run(argv + ["--seed", "7"]), run(argv + ["--seed", "8"])
            assert a == b and a[0] == 0
        assert "virtual-utility-quarter,\"uniform:0,1 vcg:1,0.5 linear n=1\",0.25,0.25,true" \
            in run(["reproduce"])[1]


class TestUsageErrors:
    def test_unknown_flag(self):
        code, _, _ = run(["dist", "uniform:0,1", "--zebra"])
        assert code == 2

    def test_no_subcommand(self):
        code, _, _ = run([])
        assert code == 2


class TestInternalError:
    def test_crash_exits_3_without_traceback(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "frontier_search", boom)
        code, out, err = run(["frontier", "uniform:0,1", "--grid", "4"])
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"

    def test_value_errors_still_exit_2(self, monkeypatch):
        def bad(*args, **kwargs):
            raise ValueError("bad value")

        monkeypatch.setattr(cli, "frontier_search", bad)
        assert run(["frontier", "uniform:0,1"]) == (2, "", "error: bad value\n")


class TestParserReuse:
    COMMANDS = [
        ["dist", "uniform:0,1", "--zebra"],
        ["dist", "left-triangle:0.1", "--grid", "7"],
        ["eval", "--mech", "vcg:1,0.2", "--dist", "exponential:1", "--n", "3"],
        ["lemmas", "tail"],
    ]

    def test_one_parser_serves_every_call(self):
        assert build_parser() is build_parser()
        first = {}
        for argv in self.COMMANDS:
            build_parser.cache_clear()
            first[tuple(argv)] = run(argv)
        assert first[tuple(self.COMMANDS[0])][0] == 2
        parser = build_parser()
        for argv in self.COMMANDS + self.COMMANDS[::-1]:
            assert run(argv) == first[tuple(argv)], argv
        assert build_parser() is parser
