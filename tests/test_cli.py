import json
import subprocess
import sys

import pytest

from tricap import fourier, load_point_set
from tricap.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cap_file(tmp_path, capsys):
    path = str(tmp_path / "cap.txt")
    code, _, _ = run_cli(capsys, "capset", "gen", "--n", "6", "--seed", "3", "--out", path)
    assert code == 0
    return path


class TestCapsetCommands:
    def test_gen_writes_loadable_set(self, cap_file):
        ps = load_point_set(cap_file)
        assert ps.n == 6
        assert ps.size > 0

    def test_gen_stdout_form_roundtrips(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "capset", "gen", "--n", "4", "--seed", "1")
        assert code == 0
        assert out.startswith("n=4\n")
        path = tmp_path / "echo.txt"
        path.write_text(out)
        assert load_point_set(path).n == 4

    def test_verify_pass(self, cap_file, capsys):
        code, out, _ = run_cli(capsys, "capset", "verify", cap_file)
        assert code == 0
        rep = json.loads(out)
        assert rep["is_capset"] is True
        assert rep["command"] == "capset verify"

    def test_verify_fails_on_line(self, tmp_path, capsys):
        path = tmp_path / "line.txt"
        path.write_text("n=3\n000\n111\n222\n")
        code, out, _ = run_cli(capsys, "capset", "verify", str(path))
        assert code == 2
        assert json.loads(out)["is_capset"] is False

    def test_max_small(self, capsys):
        code, out, _ = run_cli(capsys, "capset", "max", "--n", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["maximum"] == 4
        assert len(rep["witness"]) == 4

    def test_product(self, cap_file, tmp_path, capsys):
        out_path = str(tmp_path / "prod.txt")
        code, out, _ = run_cli(
            capsys, "capset", "product", cap_file, cap_file, "--out", out_path
        )
        assert code == 0
        assert json.loads(out)["is_capset"] is True
        assert load_point_set(out_path).n == 12


class TestReportsAndFormats:
    def test_json_reports_are_byte_stable(self, cap_file, capsys):
        _, out1, _ = run_cli(capsys, "spectrum", "extract", cap_file)
        _, out2, _ = run_cli(capsys, "spectrum", "extract", cap_file)
        assert out1 == out2

    def test_csv_format(self, cap_file, capsys):
        code, out, _ = run_cli(
            capsys, "structure", "levels", cap_file, "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "m_lo,m_hi,G_size,D_size,alpha_eff"

    def test_text_format(self, cap_file, capsys):
        code, out, _ = run_cli(
            capsys, "fourier", "plancherel", cap_file, "--format", "text"
        )
        assert code == 0
        assert "equal: True" in out

    def test_report_out_file(self, cap_file, tmp_path, capsys):
        rep_path = tmp_path / "rep.json"
        code, out, _ = run_cli(
            capsys, "fourier", "cubesum", cap_file, "--out", str(rep_path)
        )
        assert code == 0
        assert rep_path.read_text() == out


class TestExitCodes:
    def test_usage_error_is_one(self, cap_file, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 1
        assert run_cli(capsys, "capset", "verify", cap_file, "--threads", "2")[0] == 1
        assert run_cli(capsys, "capset", "gen", "--n", "x", "--seed", "0")[0] == 1
        assert run_cli(capsys)[0] == 1

    def test_missing_file_is_one(self, capsys):
        code, _, err = run_cli(capsys, "capset", "verify", "does-not-exist.txt")
        assert code == 1
        assert "does-not-exist" in err

    def test_guard_is_three(self, capsys):
        code, _, err = run_cli(capsys, "capset", "gen", "--n", "30", "--seed", "0")
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("command", ["plancherel", "cubesum"])
    def test_fourier_force_lifts_guard(self, cap_file, capsys, monkeypatch, command):
        monkeypatch.setattr(fourier, "TRANSFORM_GUARD_N", 4)  # cap_file has n = 6
        assert run_cli(capsys, "fourier", command, cap_file)[0] == 3
        assert run_cli(capsys, "fourier", command, cap_file, "--force")[0] == 0

    def test_martingale_needs_containment(self, cap_file, capsys):
        code, _, _ = run_cli(
            capsys, "structure", "martingale", cap_file,
            "--h", "100000", "--k", "010000",
        )
        assert code == 1


class TestPipelines:
    def test_spectrum_of_prefix(self, cap_file, capsys):
        code, out, _ = run_cli(
            capsys, "nullity-sim", "--input", f"spectrum-of:{cap_file}",
            "--d", "6", "--trials", "25", "--seed", "5",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["d"] == 6
        assert sum(rep["histogram"].values()) == 25

    def test_spectrum_flag_equivalent(self, cap_file, capsys):
        _, out1, _ = run_cli(
            capsys, "nullity-sim", "--input", f"spectrum-of:{cap_file}",
            "--d", "6", "--trials", "25", "--seed", "5",
        )
        _, out2, _ = run_cli(
            capsys, "nullity-sim", "--input", cap_file, "--spectrum",
            "--d", "6", "--trials", "25", "--seed", "5",
        )
        assert out1 == out2

    def test_selftest_subset(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--criteria", "8")
        assert code == 0
        rep = json.loads(out)
        assert rep["all_pass"] is True
        assert [c["id"] for c in rep["criteria"]] == [8]
        assert "criterion 8: PASS" in err

    def test_module_entry_point(self, cap_file):
        proc = subprocess.run(
            [sys.executable, "-m", "tricap", "capset", "verify", cap_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_capset"] is True
