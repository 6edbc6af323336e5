"""Command line interface: exit codes, output formats, determinism."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hopfmonad import cli, exactla, presentation, zoo
from hopfmonad.cli import main
from hopfmonad.exactla import FieldSpec


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "hopfmonad.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def sweedler_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pres") / "sweedler.json"
    path.write_text(json.dumps(zoo.build_sweedler(FieldSpec.rationals())))
    return str(path)


class TestExitCodes:
    def test_pass_is_zero(self, sweedler_file, capsys):
        assert main(["verify", sweedler_file]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out.replace("PASS", "")

    def test_axiom_failure_is_one(self, tmp_path, capsys):
        pres = zoo.build_sweedler(FieldSpec.rationals())
        pres["t0"] = ["1", "1", "1", "0"]  # corrupted counit
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(pres))
        assert main(["verify", str(path), "--checks", "axioms"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_schema_error_is_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1}))
        result = run_cli(["verify", str(path)])
        assert result.returncode == 2
        assert "input error" in result.stderr

    def test_unreadable_file_is_two(self):
        assert run_cli(["verify", "/nonexistent.json"]).returncode == 2

    def test_unwritable_output_is_two(self, tmp_path, capsys):
        assert main(["example", "kz2", "-o", str(tmp_path / "missing" / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("output error: ")

    @pytest.mark.parametrize("field", [FieldSpec.rationals(), FieldSpec.prime(7)],
                             ids=["Q", "GF7"])
    @pytest.mark.parametrize("where", ["unit", "antipode"])
    def test_zero_denominator_is_two(self, tmp_path, capsys, field, where):
        pres = zoo.build_sweedler(field)
        if where == "unit":
            pres["unit"][0] = "1/0"
        else:
            pres["antipode"]["element"][1][2] = "1/0"
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(pres))
        with pytest.raises(SystemExit) as exited:
            main(["verify", str(path)])
        assert exited.value.code == 2
        assert capsys.readouterr().err == \
            f"input error: {where}: zero denominator in '1/0'\n"

    @staticmethod
    def _double_z2_file(tmp_path, edit):
        pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2),
                                               FieldSpec.rationals(), "double_z2")
        edit(pres)
        path = tmp_path / "double_z2.json"
        path.write_text(json.dumps(pres))
        return str(path)

    def test_wrong_classical_drinfeld_fails_its_check(self, tmp_path, capsys):
        path = self._double_z2_file(
            tmp_path, lambda p: p["meta"].update(classical_drinfeld=["5"] * 4))
        assert main(["verify", path, "--checks", "quasitriangular"]) == 1
        out = capsys.readouterr().out
        assert "FAIL drinfeld.classical_match" in out
        assert "PASS drinfeld.square_of_antipode" in out

    @pytest.mark.parametrize("length", [1, 5])
    def test_classical_drinfeld_of_another_length_fails_its_check(self, tmp_path,
                                                                  capsys, length):
        path = self._double_z2_file(
            tmp_path, lambda p: p["meta"].update(classical_drinfeld=["1"] * length))
        assert main(["verify", path, "--checks", "quasitriangular"]) == 1
        assert "FAIL drinfeld.classical_match" in capsys.readouterr().out

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p["meta"].update(classical_drinfeld=["x", "0", "0", "1"]),
         "meta.classical_drinfeld[0]: Invalid literal for Fraction: 'x'"),
        (lambda p: p.__setitem__("twist", {"element": ["1", "0", "0", "0"]}),
         "twist element is not invertible"),
    ], ids=["classical-drinfeld-token", "twist-not-invertible"])
    def test_bad_quasitriangular_data_is_two(self, tmp_path, capsys, edit, message):
        path = self._double_z2_file(tmp_path, edit)
        with pytest.raises(SystemExit) as exited:
            main(["verify", path, "--checks", "quasitriangular"])
        assert exited.value.code == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_no_inverse_of_u_skips_the_square_of_antipode(self, tmp_path, capsys):
        path = self._double_z2_file(
            tmp_path, lambda p: p["rmatrix"]["element"][0].__setitem__(0, "2"))
        assert main(["verify", path, "--checks", "quasitriangular"]) == 1
        out = capsys.readouterr().out
        assert "FAIL drinfeld.inverse [needs the convolution inverse of R]" in out
        assert "SKIP drinfeld.square_of_antipode [needs the two-sided inverse of u]" in out
        assert "FAIL drinfeld.classical_match" in out

    def test_stock_module_over_failing_monad_gives_a_report(self, tmp_path, capsys):
        path = self._double_z2_file(tmp_path, lambda p: p["unit"].__setitem__(1, "1"))
        assert main(["verify", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL monad.unit_left" in out and "FAIL monad.unit_right" in out

    def test_stock_module_failing_its_laws_is_two(self, tmp_path, monkeypatch, capsys):
        path = self._double_z2_file(
            tmp_path, lambda p: p["stock_modules"][0]["action"][0].__setitem__(0, "5"))
        with pytest.raises(SystemExit) as exited:
            main(["verify", path])
        assert exited.value.code == 2
        assert capsys.readouterr().err == "input error: action fails the module laws\n"
        # a lawful stock module is loaded without a look at the monad axioms
        monkeypatch.setattr(presentation, "check_monad", None)
        valid = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2),
                                                FieldSpec.rationals(), "double_z2")
        assert presentation.load(valid).stock_modules

    def test_internal_error_is_three(self, monkeypatch, capsys):
        # an exact-arithmetic failure (here ChainOverflow) ends in a message
        monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", 10)
        assert main(["verify", "sweedler", "--checks", "axioms"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("error", [
        MemoryError(),
        MemoryError("Unable to allocate 1.28 GiB for an array with shape (13122, 13122)\n"
                    "and data type int64")])
    def test_out_of_memory_is_three(self, monkeypatch, capsys, error):
        # exhausting the host is an internal error on one line, not a verdict
        def exhausted(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "verify_model", exhausted)
        assert main(["verify", "sweedler", "--checks", "axioms"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: out of memory")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class TestOutputs:
    def test_json_structure(self, sweedler_file, capsys):
        main(["verify", sweedler_file, "--json", "--checks", "axioms"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "sweedler"
        assert payload["passed"] is True
        assert all({"check", "status"} <= set(c) for c in payload["checks"])

    def test_failure_carries_witness(self, tmp_path, capsys):
        pres = zoo.build_sweedler(FieldSpec.rationals())
        pres["mul"][1][1][0] = "0"  # g*g no longer the identity
        path = tmp_path / "mut.json"
        path.write_text(json.dumps(pres))
        main(["verify", str(path), "--json", "--checks", "axioms"])
        payload = json.loads(capsys.readouterr().out)
        bad = [c for c in payload["checks"] if c["status"] == "fail"]
        assert bad and "witness" in bad[0] and "blocks" in bad[0]["witness"]

    def test_builtin_example_names(self, capsys):
        assert main(["maschke", "ks3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_example_subcommand(self, tmp_path):
        out = tmp_path / "kz2.json"
        assert main(["example", "kz2", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["name"] == "kz2"

    def test_failed_axioms_skip_derived_suite(self, capsys):
        # the pair groupoid's counit is not comonoidal: the axioms fail, and
        # the suites that assume them are skipped, not raised
        assert main(["verify", "pair_groupoid", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        status = {c["check"]: c["status"] for c in payload["checks"]}
        assert status["comonoidal.counit_left"] == "fail"
        assert status["bimonad.counit_mult"] == "fail"
        for suite in ("derived", "hopfmodules", "maschke"):
            assert status[suite] == "skip"
        assert not any(c.startswith(("gamma.", "hopf_module.", "separable.", "maschke."))
                       for c in status)

    def test_nullary_failure_names_no_simple(self, capsys):
        # a law at no simple tuple has the empty key: the text line gives no
        # location, the JSON form keeps the empty list
        assert main(["report", "pair_groupoid"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "  FAIL bimonad.counit_mult" in lines
        assert "  FAIL comonoidal.counit_left at simple (0,0)" in lines
        assert main(["report", "pair_groupoid", "--json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert next(c for c in checks if c["check"] == "bimonad.counit_mult")["simple"] == []

    def test_drinfeld_reports_element(self, capsys):
        assert main(["drinfeld", "double_z2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # u = sum over group elements of (indicator g) ⊗ g^{-1}
        assert payload["info"]["drinfeld_element"] == ["1", "0", "0", "1"]


class TestDeterminism:
    def test_reports_byte_identical(self, sweedler_file):
        a = run_cli(["report", sweedler_file, "--json"])
        b = run_cli(["report", sweedler_file, "--json"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_seed_is_recorded(self, sweedler_file, capsys):
        main(["report", sweedler_file, "--json", "--seed", "7"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["info"]["seed"] == 7


class TestNumpyOnly:
    def test_verify_imports_no_scipy(self, tmp_path):
        # the sparse chain products are numpy index arithmetic: verifying the
        # 25-dim double of Z5, whose quasitriangular suite takes them, loads
        # no scipy module
        path = tmp_path / "double_z5_f11.json"
        path.write_text(json.dumps(zoo.build_drinfeld_double_group(
            zoo.cyclic_group_table(5), FieldSpec.prime(11), "double_z5_f11")))
        script = ("import sys\n"
                  "from hopfmonad.cli import main\n"
                  f"code = main(['verify', {str(path)!r}])\n"
                  "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
                  " file=sys.stderr)\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.stderr.strip() == "0 []"

    def test_numpy_is_the_only_dependency(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        deps = text.split("\ndependencies = [", 1)[1].split("]", 1)[0]
        assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]
