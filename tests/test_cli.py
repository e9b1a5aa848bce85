import json
import subprocess
import sys

import pytest

from finpow import (
    LatticeModelParams,
    Window,
    approximate_element,
    dispersion_integral_element,
    lattice_spec,
    local_solve,
    periodic_policy,
)
from finpow import driver
from finpow.cli import _parse_windows, main
from finpow.driver import MAX_DIM

LATTICE_CONFIG = '{"kind": "lattice", "a": 1.0, "b": 1.0}'
BANDED_C0_CONFIG = (
    '{"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-1.0, 2.0, -1.0],'
    ' "envelope": {"c": 0.0, "norm_bound": 4.0}}'
)


@pytest.fixture
def lattice_config(tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(LATTICE_CONFIG)
    return str(path)


@pytest.fixture
def lattice_overflow_config(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text('{"kind": "lattice", "a": 1.0, "b": 1e308}')
    return str(path)


@pytest.fixture
def no_truncation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a window was truncated")

    monkeypatch.setattr(driver, "truncate", refuse)


@pytest.fixture
def banded_c0_config(tmp_path):
    path = tmp_path / "banded.json"
    path.write_text(BANDED_C0_CONFIG)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApprox:
    def test_alpha_one_off_diagonal(self, capsys, lattice_config):
        code, out, _ = run_cli(
            capsys, "approx", lattice_config,
            "--alpha", "1", "--m", "0", "--n", "1", "--tol", "1e-9",
        )
        assert code == 0
        record = json.loads(out)
        assert record["bound"] == 0.0
        assert abs(record["value"][0] + 1.0) <= 1e-15 and record["value"][1] == 0.0
        # at the window [-3, 3] the value is exact
        code, out, _ = run_cli(
            capsys, "table", lattice_config,
            "--alpha", "1", "--m", "0", "--n", "1", "--windows", "3",
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[2:4] == ["-1", "0"]

    def test_inverse_sqrt_matches_integral(self, capsys, lattice_config):
        code, out, _ = run_cli(
            capsys, "approx", lattice_config,
            "--alpha", "-0.5", "--m", "0", "--n", "0", "--tol", "1e-6",
        )
        assert code == 0
        record = json.loads(out)
        assert record["bound"] <= 1e-6
        reference = dispersion_integral_element(LatticeModelParams(1.0, 1.0), -0.5, 0, 0)
        assert abs(record["value"][0] - reference) <= record["bound"]

    @pytest.mark.parametrize("alpha", ["50.5", "100.5"])
    def test_large_alpha_matches_the_dense_table(self, capsys, lattice_config, alpha):
        code, out, _ = run_cli(
            capsys, "approx", lattice_config,
            "--alpha", alpha, "--m", "0", "--n", "0", "--tol", "1e-6",
        )
        assert code == 0
        record = json.loads(out)
        code, out, _ = run_cli(
            capsys, "table", lattice_config,
            "--alpha", alpha, "--m", "0", "--n", "0",
            "--windows", f"{record['P']}:{record['Q']}",
        )
        assert code == 0
        dense = float(out.splitlines()[1].split(",")[2])
        assert abs(record["value"][0] - dense) <= 1e-10 * abs(dense)

    def test_printed_record_reproduces_library_certificate(self, capsys, lattice_config):
        code, out, _ = run_cli(
            capsys, "approx", lattice_config,
            "--alpha", "0.5", "--m", "1", "--n", "0", "--tol", "1e-4",
        )
        assert code == 0
        record = json.loads(out)
        params = LatticeModelParams(1.0, 1.0)
        cert = approximate_element(
            lattice_spec(params), periodic_policy(params), 0.5, 1, 0, 1e-4
        )
        assert record == cert.to_record()

    def test_divergent_premise_exit_3(self, capsys, banded_c0_config):
        code, out, err = run_cli(
            capsys, "approx", banded_c0_config,
            "--alpha", "-1", "--m", "0", "--n", "0", "--tol", "1e-6",
        )
        assert code == 3
        assert out == ""
        assert "c = 0" in err

    @pytest.mark.parametrize("m,n,value", [("0", "0", 1), ("0", "1", 0)])
    def test_power_zero_with_c_zero_exit_0(self, capsys, banded_c0_config, m, n, value):
        # C(0, j) = 0 past j = 0: the series is the identity and its tail is
        # 0 at every depth, though x = 1
        code, out, err = run_cli(
            capsys, "approx", banded_c0_config,
            "--alpha", "0", "--m", m, "--n", n, "--tol", "1e-6",
        )
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["value"] == [value, 0]
        assert (record["bound"], record["j_pq"]) == (0, 1)
        code, out, err = run_cli(
            capsys, "table", banded_c0_config,
            "--alpha", "0", "--m", m, "--n", n, "--windows", "2,5",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",0") for row in rows)

    @pytest.mark.parametrize("m,n,out", [("0", "0", 0), ("3", "-2", 3)])
    def test_non_finite_stencil_exit_3(self, capsys, tmp_path, m, n, out):
        # JSON's Infinity passes the config's number checks; banded_spec
        # rejects it, so every subcommand exits 3 before any output
        config = tmp_path / "inf.json"
        config.write_text(
            '{"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-1.0, Infinity, -1.0],'
            ' "envelope": {"c": 1.0, "norm_bound": 4.0}}'
        )
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("0,1.0,0.0\n")
        for argv in (
            ["approx", str(config), "--alpha", "-0.5", "--m", m, "--n", n, "--tol", "1e-6"],
            ["table", str(config), "--alpha", "-0.5", "--m", m, "--n", n, "--windows", "4,8"],
            ["solve", str(config), "--rhs", str(rhs), "--out", str(out), "--tol", "1e-6"],
        ):
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 3, argv
            assert stdout == ""
            assert err == (
                "error: invalid banded spec: stencil offset 0 has the non-finite value inf\n"
            )

    @pytest.mark.parametrize(
        "alpha,tol",
        [("nan", "1e-6"), ("inf", "1e-6"), ("0.5", "-1"), ("0.5", "nan"), ("0.5", "inf")],
    )
    def test_non_finite_or_negative_input_exit_3(self, capsys, lattice_config, alpha, tol):
        code, out, err = run_cli(
            capsys, "approx", lattice_config,
            "--alpha", alpha, "--m", "0", "--n", "0", "--tol", tol,
        )
        assert code == 3
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "alpha,tol,extra",
        [("441.5", "1e-6", []), ("-2000", "1e-6", []), ("440.5", "1e-300", ["--max-dim", "65"])],
    )
    def test_overflowing_bound_exit_3(self, capsys, lattice_config, alpha, tol, extra):
        code, out, err = run_cli(
            capsys, "approx", lattice_config,
            "--alpha", alpha, "--m", "0", "--n", "0", "--tol", tol, *extra,
        )
        assert code == 3
        assert out == ""
        assert "overflows" in err

    def test_not_converged_exit_2_with_best(self, capsys, lattice_config):
        code, out, err = run_cli(
            capsys, "approx", lattice_config,
            "--alpha", "-0.5", "--m", "0", "--n", "0",
            "--tol", "1e-30", "--max-dim", "65",
        )
        assert code == 2
        record = json.loads(out)
        assert record["P"] == 32
        assert record["bound"] > 1e-30
        assert "not converged" in err


class TestTable:
    def test_csv_shape_and_determinism(self, capsys, lattice_config):
        argv = (
            "table", lattice_config,
            "--alpha", "0.5", "--m", "0", "--n", "0", "--windows", "4,8,16,32",
        )
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        code, second, _ = run_cli(capsys, *argv)
        assert first == second
        lines = first.strip().splitlines()
        assert lines[0] == "P,Q,value_re,value_im,j_pq,bound"
        assert len(lines) == 5
        bounds = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(late < early for early, late in zip(bounds, bounds[1:]))

    def test_reevaluates_an_approx_record_window(self, capsys, lattice_config):
        # the far element's window does not contain the origin
        code, out, _ = run_cli(
            capsys, "approx", lattice_config,
            "--alpha", "-0.5", "--m", "5000", "--n", "5001", "--tol", "1e-12",
        )
        assert code == 0
        record = json.loads(out)
        assert record["P"] < 0
        code, out, _ = run_cli(
            capsys, "table", lattice_config,
            "--alpha", "-0.5", "--m", "5000", "--n", "5001",
            "--windows", f"{record['P']}:{record['Q']}",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert [int(row[0]), int(row[1]), int(row[4])] == [
            record["P"], record["Q"], record["j_pq"]
        ]
        # the table keeps the dense evaluation and its two tails; approx
        # sweeps the same depth with one tail
        assert float(row[5]) == 2.0 * record["bound"]
        value = complex(float(row[2]), float(row[3]))
        assert abs(value - complex(*record["value"])) <= 3.0 * record["bound"]

    def test_asymmetric_window_token(self, capsys, lattice_config):
        code, out, _ = run_cli(
            capsys, "table", lattice_config,
            "--alpha", "1", "--m", "0", "--n", "0", "--windows", "3:5",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert (row[0], row[1]) == ("3", "5")

    def test_error_rows_keep_csv_shape(self, capsys, lattice_config):
        # the element (6, 0) lies outside the first window only
        code, out, err = run_cli(
            capsys, "table", lattice_config,
            "--alpha", "-1", "--m", "6", "--n", "0", "--windows", "4,8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1] == "4,4,nan,nan,nan,nan"
        row = lines[2].split(",")
        assert row[:2] == ["8", "8"]
        assert "nan" not in row
        assert int(row[4]) > 0 and 0.0 < float(row[5]) < float("inf")
        assert "failed" in err
        assert "outside window" in err

    def test_window_off_the_origin_in_messages(self, capsys, lattice_config):
        code, out, err = run_cli(
            capsys, "table", lattice_config,
            "--alpha", "-0.5", "--m", "0", "--n", "0", "--windows=-4882:5118",
        )
        assert code == 0
        assert out == "P,Q,value_re,value_im,j_pq,bound\n-4882,5118,nan,nan,nan,nan\n"
        assert err == (
            "# window [4882, 5118] failed: element (0, 0) lies outside window [4882, 5118]\n"
        )

    @pytest.mark.parametrize(
        "config, alpha, message",
        [
            ("lattice", "nan", "alpha must be finite"),
            ("lattice", "1e7", "overflows"),
            ("banded_c0", "-1", "diverges"),
        ],
    )
    def test_premise_failure_exit_3_before_any_window(
        self, capsys, lattice_config, banded_c0_config, no_truncation, config, alpha, message
    ):
        path = lattice_config if config == "lattice" else banded_c0_config
        code, out, err = run_cli(
            capsys, "table", path,
            "--alpha", alpha, "--m", "0", "--n", "0", "--windows", "4,8",
        )
        assert code == 3
        assert out == ""
        assert message in err


class TestSolve:
    def test_lattice_green_function(self, capsys, lattice_config, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("# unit impulse\n0,1.0,0.0\n")
        code, out, _ = run_cli(
            capsys, "solve", lattice_config,
            "--rhs", str(rhs), "--out", "0,1,2", "--tol", "1e-8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,value_re,value_im,bound"
        params = LatticeModelParams(1.0, 1.0)
        oracle = local_solve(
            lattice_spec(params), periodic_policy(params), {0: 1.0}, [0, 1, 2], 1e-8
        )
        for line in lines[1:]:
            idx_str, re_str, im_str, bound_str = line.split(",")
            value, bound = oracle[int(idx_str)]
            assert float(re_str) == value.real
            assert float(im_str) == value.imag
            assert float(bound_str) == bound

    def test_negative_out_indices(self, capsys, lattice_config, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("0,1.0,0.0\n")
        code, out, _ = run_cli(
            capsys, "solve", lattice_config,
            "--rhs", str(rhs), "--out", "-1,0,1", "--tol", "1e-7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-1", "0", "1"]
        # the Green's function of the symmetric stencil is even in the index
        minus_one = float(lines[1].split(",")[1])
        plus_one = float(lines[3].split(",")[1])
        assert minus_one == pytest.approx(plus_one, rel=1e-12)

    def test_singular_exit_3(self, capsys, banded_c0_config, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("0,1.0,0.0\n")
        code, out, err = run_cli(
            capsys, "solve", banded_c0_config,
            "--rhs", str(rhs), "--out", "0", "--tol", "1e-6",
        )
        assert code == 3
        assert out == ""
        assert "c = 0" in err

    def test_envelope_excluding_a_rayleigh_quotient_exit_3(self, capsys, tmp_path):
        # the symbol 3 - 2 cos(theta) reaches down to 1, below the declared c = 2
        config = tmp_path / "wrong.json"
        config.write_text(
            '{"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-1.0, 3.0, -1.0],'
            ' "envelope": {"c": 2.0, "norm_bound": 5.0}}'
        )
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("0,1.0,0.0\n")
        code, out, err = run_cli(
            capsys, "solve", str(config), "--rhs", str(rhs), "--out", "0", "--tol", "1e-8",
        )
        assert code == 3
        assert out == ""
        assert "Rayleigh quotient" in err

    def test_negative_tol_exit_3(self, capsys, lattice_config, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("0,1.0,0.0\n")
        code, out, err = run_cli(
            capsys, "solve", lattice_config,
            "--rhs", str(rhs), "--out", "0", "--tol", "-1",
        )
        assert code == 3
        assert out == ""
        assert "tol" in err

    @pytest.mark.parametrize("lines", ["0,nan,0\n", "0,1e308,0\n1,1e308,0\n"])
    def test_non_finite_rhs_exit_3(self, capsys, lattice_config, tmp_path, lines):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text(lines)
        code, out, err = run_cli(
            capsys, "solve", lattice_config,
            "--rhs", str(rhs), "--out", "0", "--tol", "1e-6",
        )
        assert code == 3
        assert out == ""
        assert "rhs must be finite" in err

    def test_malformed_rhs_exit_3(self, capsys, lattice_config, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("0,1.0\n")
        code, _, err = run_cli(
            capsys, "solve", lattice_config,
            "--rhs", str(rhs), "--out", "0", "--tol", "1e-6",
        )
        assert code == 3
        assert "index,re,im" in err


class TestExample:
    def test_error_column_decreases(self, capsys):
        code, out, _ = run_cli(
            capsys, "example",
            "--a", "1", "--b", "1", "--alpha", "-0.5", "--sizes", "33,65",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,value,reference,abs_error,bound"
        assert len(lines) == 3
        errors = [float(line.split(",")[3]) for line in lines[1:]]
        bounds = [float(line.split(",")[4]) for line in lines[1:]]
        assert errors[1] <= errors[0]
        assert all(err <= b for err, b in zip(errors, bounds))

    def test_invalid_parameters_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "example",
            "--a", "0", "--b", "1", "--alpha", "0.5", "--sizes", "33",
        )
        assert code == 3
        assert "a > 0" in err

    @pytest.mark.parametrize(
        "alpha, message", [("nan", "alpha must be finite"), ("9999999.5", "overflows")]
    )
    def test_premise_failure_exit_3_before_quadrature(self, capsys, monkeypatch, alpha, message):
        def no_quadrature(*args):
            raise AssertionError("the dispersion quadrature ran")

        monkeypatch.setattr("finpow.cli.dispersion_integral_element", no_quadrature)
        code, out, err = run_cli(
            capsys, "example", "--a", "1", "--b", "1", "--alpha", alpha, "--sizes", "9,17",
        )
        assert code == 3
        assert out == ""
        assert message in err

    def test_even_size_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "example",
            "--a", "1", "--b", "1", "--alpha", "0.5", "--sizes", "34",
        )
        assert code == 3
        assert "odd" in err


class TestLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--alpha", "0.5", "--m", "0", "--n", "0", "--tol", "1e-6"],
            ["table", "--alpha", "0.5", "--m", "0", "--n", "0", "--windows", "4"],
            ["solve", "--rhs", "RHS", "--out", "0", "--tol", "1e-6"],
        ],
    )
    def test_lattice_norm_overflow_exit_3(
        self, capsys, tmp_path, lattice_overflow_config, argv
    ):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("0,1.0,0.0\n")
        argv = [argv[0], lattice_overflow_config, *argv[1:]]
        code, out, err = run_cli(capsys, *[str(rhs) if a == "RHS" else a for a in argv])
        assert code == 3
        assert out == ""
        assert "a + 4b" in err

    def test_example_norm_overflow_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "example", "--a", "1", "--b", "1e308", "--alpha", "0.5", "--sizes", "5",
        )
        assert code == 3
        assert out == ""
        assert "a + 4b" in err

    @pytest.mark.parametrize("windows", ["1025", "4,1025", "2:2047", "20000"])
    def test_table_window_above_limit_exit_3(
        self, capsys, lattice_config, no_truncation, windows
    ):
        code, out, err = run_cli(
            capsys, "table", lattice_config,
            "--alpha", "0.5", "--m", "0", "--n", "0", "--windows", windows,
        )
        assert code == 3
        assert out == ""
        assert f"limit {MAX_DIM}" in err

    def test_window_at_limit_accepted(self):
        assert [w.dim for w in _parse_windows("1024,2:2046")] == [MAX_DIM, MAX_DIM]

    @pytest.mark.parametrize("sizes", ["2051", "5,2051", "100000000001"])
    def test_example_size_above_limit_exit_3(self, capsys, no_truncation, sizes):
        code, out, err = run_cli(
            capsys, "example", "--a", "1", "--b", "1", "--alpha", "0.5", "--sizes", sizes,
        )
        assert code == 3
        assert out == ""
        assert f"limit {MAX_DIM}" in err

    def test_example_failure_prints_no_rows(self, capsys):
        # the quadrature passes at alpha = 330.5, the series guard does not
        code, out, err = run_cli(
            capsys, "example", "--a", "1", "--b", "1", "--alpha", "330.5", "--sizes", "5",
        )
        assert code == 3
        assert out == ""
        assert "overflows" in err


class TestUsageAndConfig:
    def test_unknown_flag_exit_3(self, capsys, lattice_config):
        code, _, err = run_cli(capsys, "approx", lattice_config, "--frobnicate")
        assert code == 3
        assert err != ""

    def test_missing_field_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "banded", "offsets": [0], "stencil": [1.0]}')
        code, _, err = run_cli(
            capsys, "approx", str(path),
            "--alpha", "1", "--m", "0", "--n", "0", "--tol", "1e-9",
        )
        assert code == 3
        assert "envelope" in err

    def test_invalid_json_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(
            capsys, "approx", str(path),
            "--alpha", "1", "--m", "0", "--n", "0", "--tol", "1e-9",
        )
        assert code == 3
        assert "JSON" in err

    def test_periodic_boundary_on_banded_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"kind": "banded", "offsets": [0], "stencil": [2.0],'
            ' "envelope": {"c": 2.0, "norm_bound": 2.0},'
            ' "boundary": {"kind": "periodic"}}'
        )
        code, _, err = run_cli(
            capsys, "approx", str(path),
            "--alpha", "1", "--m", "0", "--n", "0", "--tol", "1e-9",
        )
        assert code == 3
        assert "periodic" in err

    def test_corner_boundary_config(self, capsys, tmp_path):
        # fixed corner entries match only the window they name
        path = tmp_path / "corners.json"
        path.write_text(
            '{"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-1.0, 3.0, -1.0],'
            ' "envelope": {"c": 1.0, "norm_bound": 5.0},'
            ' "boundary": {"kind": "corners", "entries": [[-4, 4, -1.0, 0.0]]}}'
        )
        code, out, _ = run_cli(
            capsys, "table", str(path),
            "--alpha", "1", "--m", "0", "--n", "0", "--windows", "4",
        )
        assert code == 0
        row = out.strip().splitlines()[1]
        assert float(row.split(",")[2]) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "config, message",
        [
            ('{"kind": "banded", "offsets": [0], "stencil": [2.0], "envelope": [2.0, 2.0]}',
             "field 'envelope' in banded config must be an object"),
            ('{"kind": "lattice", "a": 1.0, "b": 1.0, "boundary": "periodic"}',
             "field 'boundary' must be an object"),
            ('{"kind": "lattice", "a": 1.0, "b": 1.0,'
             ' "boundary": {"kind": "corners", "entries": {"0": 1.0}}}',
             "field 'boundary.entries' must be a list"),
            ('{"kind": "lattice", "a": 1.0, "b": 1.0,'
             ' "boundary": {"kind": "corners", "entries": [[-4, 4, -1.0]]}}',
             "must be [i, j, re, im]"),
            ('{"kind": "lattice", "a": 1.0, "b": 1.0,'
             ' "boundary": {"kind": "corners", "entries": [[-4.0, 4, -1.0, 0.0]]}}',
             "boundary entry indices must be integers"),
            ('{"kind": "lattice", "a": 1.0, "b": 1.0, "boundary": {"kind": "mirror"}}',
             "unknown boundary kind 'mirror'"),
            ('{"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-1.0, 3.0],'
             ' "envelope": {"c": 1.0, "norm_bound": 5.0}}',
             "field 'stencil' must be a list matching 'offsets'"),
            # JSON booleans are no indices: false and true are not read as 0 and 1
            ('{"kind": "banded", "offsets": [false, true, -1], "stencil": [3.0, -1.0, -1.0],'
             ' "envelope": {"c": 1.0, "norm_bound": 5.0}}',
             "field 'offsets' must be a list of integers"),
            ('{"kind": "lattice", "a": 1.0, "b": 1.0,'
             ' "boundary": {"kind": "corners", "entries": [[-4, true, -1.0, 0.0]]}}',
             "field 'boundary.entries'"),
        ],
        ids=[
            "envelope_not_object", "boundary_not_object", "entries_not_list",
            "entry_not_four", "entry_index_not_int", "unknown_boundary", "short_stencil",
            "offset_boolean", "entry_index_boolean",
        ],
    )
    def test_config_error_named(self, capsys, tmp_path, config, message):
        path = tmp_path / "bad.json"
        path.write_text(config)
        for argv in (
            ["approx", "--tol", "1e-9"],
            ["table", "--windows", "4"],
        ):
            code, out, err = run_cli(
                capsys, argv[0], str(path), "--alpha", "1", "--m", "0", "--n", "0", *argv[1:]
            )
            assert code == 3
            assert out == ""
            assert message in err

    def test_unreadable_config_exit_3(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "approx", str(tmp_path / "missing.json"),
            "--alpha", "1", "--m", "0", "--n", "0", "--tol", "1e-9",
        )
        assert code == 3
        assert out == ""
        assert "cannot read config" in err

    def test_empty_window_list_exit_3(self, capsys, lattice_config, no_truncation):
        code, out, err = run_cli(
            capsys, "table", lattice_config,
            "--alpha", "1", "--m", "0", "--n", "0", "--windows", ",",
        )
        assert code == 3
        assert out == ""
        assert "must list at least one window" in err

    def test_bad_out_list_exit_3(self, capsys, lattice_config, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("0,1.0,0.0\n")
        code, out, err = run_cli(
            capsys, "solve", lattice_config, "--rhs", str(rhs), "--out", "0,x", "--tol", "1e-6",
        )
        assert code == 3
        assert out == ""
        assert "bad index list '0,x'" in err

    def test_unreadable_rhs_exit_3(self, capsys, lattice_config, tmp_path):
        code, out, err = run_cli(
            capsys, "solve", lattice_config,
            "--rhs", str(tmp_path / "missing.txt"), "--out", "0", "--tol", "1e-6",
        )
        assert code == 3
        assert out == ""
        assert "cannot read rhs file" in err

    def test_module_entry_point(self, lattice_config):
        def run_module(*argv):
            return subprocess.run(
                [sys.executable, "-m", "finpow", *argv, lattice_config,
                 "--alpha", "1", "--m", "0", "--n", "1"],
                capture_output=True,
                text=True,
            )

        result = run_module("approx", "--tol", "1e-9")
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["bound"] == 0.0
        assert abs(record["value"][0] + 1.0) <= 1e-15 and record["value"][1] == 0.0
        result = run_module("table", "--windows", "3")
        assert result.returncode == 0
        assert result.stdout.splitlines()[1].split(",")[2:4] == ["-1", "0"]
