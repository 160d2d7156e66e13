import io
import json
import math
import warnings

import numpy as np
import pytest

from ushrink import simulate
from ushrink.cli import UsageError, main, parse_args, read_dataset

TWO_BY_FIVE = "2,0,0,0,0\n0,2,0,0,0\n"


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(TWO_BY_FIVE)
    return str(path)


@pytest.fixture
def cov_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "cov.csv"
    np.savetxt(path, rng.normal(size=(6, 3)), delimiter=",")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseArgs:
    def test_normal_mean_defaults(self):
        config = parse_args(["normal-mean", "--input", "d.csv"])
        assert config.subcommand == "normal-mean"
        assert config.input_path == "d.csv"
        assert config.c is None  # filled from the sample size at run time

    def test_cov_shrink_flags(self):
        config = parse_args(
            ["cov-shrink", "--input", "d.csv", "--tau", "1", "--variant", "degen"]
        )
        assert config.tau == 1.0
        assert config.variant == "degen"

    def test_simulate_reps_floor(self, capsys, monkeypatch):
        # refused by run_experiment before any replication is drawn
        monkeypatch.setattr(simulate, "sample", None)
        code, out, err = run_cli(capsys, "simulate", "--experiment",
                                 "mean-improvement", "--reps", "50")
        assert code == 1
        assert out == ""
        assert err == "error: need reps >= 100, got 50\n"

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["normal-mean", "--input", "d.csv", "--wat", "1"])

    def test_conflicting_precomputed_eval_point(self):
        with pytest.raises(UsageError, match="eval-point"):
            parse_args(
                ["mean-shrink", "--input", "g.csv", "--kernel", "precomputed",
                 "--eval-point", "0,0"]
            )

    def test_dual_needs_landmarks(self):
        with pytest.raises(UsageError, match="landmarks"):
            parse_args(["mean-shrink", "--input", "d.csv", "--target", "dual"])

    def test_bad_c(self):
        with pytest.raises(UsageError, match="--c"):
            parse_args(["normal-mean", "--input", "d.csv", "--c", "2.5"])

    @pytest.mark.parametrize("flag", ["--eval-point", "--target-coeffs"])
    def test_float_list_checked_while_parsing(self, flag):
        with pytest.raises(UsageError, match=flag):
            parse_args(["mean-shrink", "--input", "d.csv", flag, "1,abc"])


class TestNormalMeanCommand:
    def test_explicit_c_one(self, capsys, data_csv):
        code, out, _ = run_cli(capsys, "normal-mean", "--input", data_csv,
                               "--c", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 0.5
        assert payload["estimate"] == [0.5, 0.5, 0.0, 0.0, 0.0]

    def test_default_c_from_sample_size(self, capsys, data_csv):
        # n = 2 gives the damping constant (2n-2)/(3n-1) = 0.4
        code, out, _ = run_cli(capsys, "normal-mean", "--input", data_csv)
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == 0.4
        assert payload["estimate"] == [0.8, 0.8, 0.0, 0.0, 0.0]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "normal-mean", "--input",
                               str(tmp_path / "absent.csv"))
        assert code == 1
        assert "absent.csv" in err

    def test_json_roundtrip_exact(self, capsys, cov_csv):
        # serialized floats must reproduce the computed values bit for bit
        from ushrink import default_c, mu_check_c
        from ushrink.cli import read_dataset

        code, out, _ = run_cli(capsys, "normal-mean", "--input", cov_csv)
        payload = json.loads(out)
        data = read_dataset(cov_csv)
        expected = mu_check_c(data, default_c(len(data)))
        assert payload["alpha"] == expected.report.alpha
        assert payload["s2"] == expected.s2
        assert payload["estimate"] == expected.estimate.tolist()
        assert json.loads(json.dumps(payload)) == payload


class TestCovShrinkCommand:
    def test_too_few_rows(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("1,0\n-1,0\n0.5,1\n")
        code, _, err = run_cli(capsys, "cov-shrink", "--input", str(path))
        assert code == 1
        assert "n >= 4" in err

    def test_json_output(self, capsys, cov_csv):
        code, out, _ = run_cli(capsys, "cov-shrink", "--input", cov_csv,
                               "--tau", "1", "--variant", "degen")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["variant"] == "degenerate"
        assert len(payload["shrunk"]) == 3

    def test_csv_output(self, capsys, cov_csv):
        code, out, _ = run_cli(capsys, "cov-shrink", "--input", cov_csv,
                               "--output", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)
        float(rows[0][0])

    def test_byte_identical_reruns(self, capsys, cov_csv):
        _, first, _ = run_cli(capsys, "cov-shrink", "--input", cov_csv)
        _, second, _ = run_cli(capsys, "cov-shrink", "--input", cov_csv)
        assert first == second


class TestMeanShrinkCommand:
    def test_linear_report(self, capsys, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("1,0\n-1,0\n")
        code, out, _ = run_cli(capsys, "mean-shrink", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["alpha"] == 1.0
        assert payload["data_weights"] == [0.0, 0.0]

    def test_precomputed_gram(self, capsys, tmp_path):
        path = tmp_path / "gram.csv"
        np.savetxt(path, np.array([[1.0, -1.0], [-1.0, 1.0]]), delimiter=",")
        code, out, _ = run_cli(capsys, "mean-shrink", "--input", str(path),
                               "--kernel", "precomputed")
        assert code == 0
        assert json.loads(out)["report"]["delta_hat"] == 1.0

    def test_eval_point(self, capsys, cov_csv):
        code, out, _ = run_cli(capsys, "mean-shrink", "--input", cov_csv,
                               "--kernel", "gaussian", "--bandwidth", "2",
                               "--eval-point", "0,0,0")
        assert code == 0
        payload = json.loads(out)
        assert "eval_value" in payload

    def test_eval_point_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1,0\n-1,0\n0,1\n"))
        code, out, _ = run_cli(capsys, "mean-shrink", "--input", "-",
                               "--kernel", "gaussian", "--eval-point", "0,0")
        assert code == 0
        assert "eval_value" in json.loads(out)

    def test_dual_target(self, capsys, tmp_path, cov_csv):
        landmarks = tmp_path / "landmarks.csv"
        landmarks.write_text("0,0,0\n1,1,1\n")
        code, out, _ = run_cli(
            capsys, "mean-shrink", "--input", cov_csv, "--kernel", "gaussian",
            "--target", "dual", "--landmarks", str(landmarks),
            "--target-coeffs", "0.5,0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["target_weights"]) == 2


    def test_dual_target_dimension_mismatch(self, capsys, tmp_path):
        data, landmarks = tmp_path / "data.csv", tmp_path / "landmarks.csv"
        data.write_text("1,0\n-1,0\n0,1\n")
        landmarks.write_text("0,0,0\n1,1,1\n")
        code, out, err = run_cli(
            capsys, "mean-shrink", "--input", str(data), "--kernel", "gaussian",
            "--target", "dual", "--landmarks", str(landmarks),
            "--target-coeffs", "0.5,0.5",
        )
        assert code == 1
        assert out == ""
        assert "mismatched dimensions 2 and 3" in err


class TestSimulateCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--experiment", "mean-improvement",
                               "--reps", "200", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "mean-improvement"
        assert len(payload["results"]) == 2

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--experiment", "mean-improvement",
                               "--reps", "200", "--seed", "3",
                               "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "config,estimator,n,d,reps,mse,stderr"
        assert len(lines) == 3

    @pytest.mark.parametrize("experiment, grid", [
        ("mean-improvement", "4,5,6"), ("oracle", "10,20,30"), ("consistency", "25,50"),
        ("consistency", "25,25,25"),
    ])
    def test_n_grid_only_for_consistency(self, capsys, monkeypatch, experiment, grid):
        # refused by run_experiment before any replication is drawn
        monkeypatch.setattr(simulate, "sample", None)
        code, out, err = run_cli(capsys, "simulate", "--experiment", experiment,
                                 "--n-grid", grid)
        assert code == 1
        assert out == ""
        assert err.startswith("error: n_grid")


class TestCheckCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["passed"] > 0
        assert len(payload["suites"]) == 3

    def test_enumeration_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv("USHRINK_ENUM_LIMIT", "5")
        code, _, err = run_cli(capsys, "check")
        assert code == 2
        assert "USHRINK_ENUM_LIMIT" in err


class TestReadDataset:
    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        assert np.array_equal(read_dataset(str(path)), [[1, 2], [3, 4]])

    def test_no_header(self, tmp_path):
        path = tmp_path / "nh.csv"
        path.write_text("1,2\n3,4\n")
        assert np.array_equal(read_dataset(str(path)), [[1, 2], [3, 4]])

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="malformed"):
            read_dataset(str(path))

    def test_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\n3,4\n"))
        assert np.array_equal(read_dataset("-"), [[1, 2], [3, 4]])

    def test_single_column(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1\n2\n3\n")
        assert read_dataset(str(path)).shape == (3, 1)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n  \nx,y\n\n1,2\n \t\n3,4\n\n")
        assert np.array_equal(read_dataset(str(path)), [[1, 2], [3, 4]])

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"x,y\r\n1,2\r\n\r\n3,4\r\n")
        assert np.array_equal(read_dataset(str(path)), [[1, 2], [3, 4]])

    def test_header_only(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("x,y\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_dataset(str(path))

    def test_blank_file(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n \n")
        with pytest.raises(ValueError, match="empty input"):
            read_dataset(str(path))

    # a UTF-8 byte-order mark, as some spreadsheet programs write it, must not
    # turn the first observation of a headerless file into a dropped header
    BOM_ROWS = "\ufeff1,2\n3,4\n5,6\n"

    def test_byte_order_mark_file(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text(self.BOM_ROWS, encoding="utf-8")
        assert np.array_equal(read_dataset(str(path)), [[1, 2], [3, 4], [5, 6]])

    def test_byte_order_mark_stdin_and_handle(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.BOM_ROWS))
        assert np.array_equal(read_dataset("-"), [[1, 2], [3, 4], [5, 6]])
        assert np.array_equal(read_dataset(io.StringIO(self.BOM_ROWS)),
                              [[1, 2], [3, 4], [5, 6]])

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bomh.csv"
        path.write_text("\ufeffx,y\n1,2\n3,4\n", encoding="utf-8")
        assert np.array_equal(read_dataset(str(path)), [[1, 2], [3, 4]])

    def test_byte_order_mark_keeps_every_observation(self, capsys, tmp_path):
        # n = 3 gives the damping constant (2n-2)/(3n-1) = 0.5; n = 2 gave 0.4
        path = tmp_path / "bom.csv"
        path.write_text(self.BOM_ROWS, encoding="utf-8")
        code, out, _ = run_cli(capsys, "normal-mean", "--input", str(path))
        assert code == 0
        assert json.loads(out)["c"] == 0.5


class TestPrecomputedCsv:
    # --kernel precomputed reads its file by read_dataset's rules
    @staticmethod
    def run(capsys, path, text):
        path.write_text(text)
        with warnings.catch_warnings():
            # a numpy warning would print on stderr before the error
            warnings.simplefilter("error")
            return run_cli(capsys, "mean-shrink", "--kernel", "precomputed",
                           "--input", str(path))

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        ("a,b\n\n", "no data rows"),
        ("1,0\n0,x\n", "malformed CSV"),
    ], ids=["empty", "header-only", "malformed"])
    def test_rejected_naming_the_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "g.csv"
        code, out, err = self.run(capsys, path, text)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: {message}")
        assert len(err.splitlines()) == 1

    def test_header_skipped(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path / "g.csv", "a,b\n1,0\n0,1\n")
        assert code == 0
        assert err == ""
        assert out == self.run(capsys, tmp_path / "plain.csv", "1,0\n0,1\n")[1]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("k1,k2\n2,1\n1,2\n"))
        code, out, _ = run_cli(capsys, "mean-shrink", "--kernel", "precomputed",
                               "--input", "-")
        assert code == 0
        assert json.loads(out)["n"] == 2


def test_out_path_writes_file(tmp_path, capsys, data_csv):
    out_file = tmp_path / "result.json"
    code = main(["normal-mean", "--input", data_csv, "--out", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_file.read_text())["alpha"] == 0.5


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_path_exits_1(tmp_path, capsys, data_csv, where):
    # the result is computed and then cannot be written: one error line and
    # README's exit code 1, not a traceback
    out_path = {"missing-directory": tmp_path / "nonexistent" / "x.json",
                "a-directory": tmp_path}[where]
    code, out, err = run_cli(capsys, "normal-mean", "--input", data_csv,
                             "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert err.count("\n") == 1


class TestNonFiniteInput:
    # a non-finite value must fail with exit 1, never produce NaN tokens
    # (which are not JSON) on stdout
    ROWS = "1,2,3\n{bad},1,2\n3,4,5\n1,1,1\n2,2,2\n"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["normal-mean"],
        ["cov-shrink"],
        ["mean-shrink"],
        ["mean-shrink", "--kernel", "gaussian"],
    ])
    def test_rejected(self, capsys, tmp_path, argv, bad):
        path = tmp_path / "x.csv"
        path.write_text(self.ROWS.format(bad=bad))
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    def test_precomputed_gram_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,nan\nnan,1\n")
        code, out, err = run_cli(capsys, "mean-shrink", "--kernel", "precomputed",
                                 "--input", str(path))
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    def test_exponential_overflow(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("100,100\n101,99\n99,100\n")
        code, out, err = run_cli(capsys, "mean-shrink", "--kernel", "exponential",
                                 "--input", str(path))
        assert code == 1
        assert out == ""
        assert "exponential" in err and "scale=1" in err
        # a scale that keeps exp(<x, y> / scale) finite succeeds
        code, out, _ = run_cli(capsys, "mean-shrink", "--kernel", "exponential",
                               "--scale", "1000", "--input", str(path))
        assert code == 0
        assert math.isfinite(json.loads(out)["report"]["delta_hat"])

    @pytest.mark.parametrize("scale", ["e160", "e80"])
    def test_covariance_overflow(self, capsys, tmp_path, scale):
        # at 1e160 Sigma_hat itself overflows; at 1e80 Sigma_hat is finite
        # but Tr[Sigma_hat]^2 and Tr[Sigma_hat^2] overflow
        rows = "1{s},2{s}\n-1{s},3{s}\n2{s},-1{s}\n0,1\n5{h},5{h}\n"
        exponent = int(scale[1:])
        path = tmp_path / "big.csv"
        path.write_text(rows.format(s=scale, h=f"e{exponent - 1}"))
        code, out, err = run_cli(capsys, "cov-shrink", "--input", str(path),
                                 "--output", "csv")
        assert code == 1
        assert out == ""
        assert "overflow" in err

    def test_precomputed_gram_overflow(self, capsys, tmp_path):
        # finite entries whose symmetrized sum overflows float64
        path = tmp_path / "g.csv"
        path.write_text("1e308,1e308,0\n1e308,1e308,0\n0,0,1\n")
        with warnings.catch_warnings():
            # a numpy RuntimeWarning would print on stderr before the error
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "mean-shrink", "--kernel",
                                     "precomputed", "--input", str(path))
        assert code == 1
        assert out == ""
        assert "overflow" in err and "JSON" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_normal_mean_overflow(self, capsys, tmp_path):
        # finite rows whose squared deviations and mean norm overflow float64
        path = tmp_path / "big.csv"
        path.write_text("1e200,2e200,3e200\n-1e200,3e200,1e200\n2e200,-1e200,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "normal-mean", "--input", str(path))
        assert code == 1
        assert out == ""
        assert "overflow" in err and "JSON" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("flags", [["--kernel", "gaussian", "--bandwidth", "inf"],
                                       ["--kernel", "exponential", "--scale", "inf"]])
    def test_infinite_kernel_parameter_rejected(self, capsys, data_csv, flags):
        # an infinite bandwidth or scale would give a Gram of ones
        code, out, err = run_cli(capsys, "mean-shrink", "--input", data_csv, *flags)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_non_finite_tau_rejected(self, capsys, cov_csv):
        code, out, err = run_cli(capsys, "cov-shrink", "--input", cov_csv,
                                 "--tau", "nan", "--output", "csv")
        assert code == 1
        assert out == ""
        assert "tau" in err

    def test_non_finite_flag_value_gives_no_invalid_json(self, capsys, data_csv):
        code, out, err = run_cli(capsys, "mean-shrink", "--input", data_csv,
                                 "--eval-point", "nan,0,0,0,0")
        assert code == 1
        assert out == ""
        assert "--eval-point" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_target_coeffs_rejected(self, capsys, bad):
        # rejected while parsing, before any input file is read
        code, out, err = run_cli(capsys, "mean-shrink", "--input", "missing.csv",
                                 "--target", "dual", "--landmarks", "missing.csv",
                                 "--target-coeffs", f"0.5,{bad}")
        assert code == 1
        assert out == ""
        assert "--target-coeffs" in err and "finite" in err
