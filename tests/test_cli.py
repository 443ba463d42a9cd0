"""Command-line driver: output shapes, exit codes, JSON fidelity."""

import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import pytest

import quatext.cli
import quatext.conic
from quatext import (construct_h8, d4_construct, d4_verify, enumerate_d4,
                     enumerate_h8)
from quatext.cli import main
from quatext.serialize import decode_d4cert, decode_h8cert


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactor:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "factor", "520")
        assert code == 0 and err == ""
        assert out == "5 · 8 · 13\n"

    def test_negative_discriminant(self, capsys):
        code, out, _ = run(capsys, "factor", "-255")
        assert code == 0 and out == "-3 · 5 · 17\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "factor", "--json", "520")
        assert code == 0
        assert json.loads(out) == {"schema": "factorization/1", "d": "520",
                                   "parts": ["5", "8", "13"]}

    def test_not_fundamental(self, capsys):
        code, out, err = run(capsys, "factor", "20")
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestH8:
    def test_text_certificate(self, capsys):
        code, out, _ = run(capsys, "h8", "520")
        assert code == 0
        assert "H8 certificate for d = 520" in out
        assert "roles: d1 = 5, d2 = 8, d3 = 13; parameter a = 1" in out
        assert "conic points: (2, 3, 2), (1, 0, 1), (2, 1, 2)" in out
        assert "Galois class over Q(sqrt(520)): H8" in out
        assert "mu totally positive: yes" in out

    def test_uniqueness_note_for_prime_parts(self, capsys):
        _, out, _ = run(capsys, "h8", "-255")
        assert "unique extension of its kind" in out

    def test_no_note_for_composite_part(self, capsys):
        _, out, _ = run(capsys, "h8", "-420")
        assert "unique extension" not in out

    def test_no_splitting_quotes_condition(self, capsys):
        code, out, err = run(capsys, "h8", "40")
        assert code == 1 and out == ""
        assert "no H8-factorization" in err
        assert "three nontrivial coprime parts are required" in err

    def test_no_splitting_quotes_symbol(self, capsys):
        code, _, err = run(capsys, "h8", "105")
        assert code == 1
        assert "no H8-factorization" in err
        assert "(-15/7) != 1 for prime 7 of part -7" in err

    def test_partial_roles_rejected(self, capsys):
        code, _, err = run(capsys, "h8", "520", "--d1", "5", "--d2", "8")
        assert code == 2
        assert "--d1, --d2 and --d3 must be given together" in err

    def test_bad_parameter(self, capsys):
        code, _, err = run(capsys, "h8", "520", "--a", "3")
        assert code == 2
        assert "parameter 3 fails the symbol conditions" in err

    def test_forced_roles(self, capsys):
        code, out, _ = run(capsys, "h8", "520", "--d1", "8", "--d2", "13",
                           "--d3", "5", "--a", "1")
        assert code == 0
        assert "roles: d1 = 8, d2 = 13, d3 = 5" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "h8", "--json", "520")
        assert code == 0
        assert decode_h8cert(json.loads(out)) == construct_h8(enumerate_h8(520)[0])

    def test_json_multiple_splits(self, capsys):
        code, out, _ = run(capsys, "h8", "--json", "-1380")
        assert code == 0
        docs = json.loads(out)
        assert isinstance(docs, list) and len(docs) == 2
        parts = {tuple(doc["parts"]) for doc in docs}
        assert parts == {("-3", "5", "92"), ("-4", "5", "69")}


class TestD4:
    def test_text_certificate(self, capsys):
        code, out, _ = run(capsys, "d4", "680")
        assert code == 0
        assert "D4 certificate for d = 680" in out
        assert "pair: d1 = 8, d2 = 17; complement d3 = 5" in out
        assert "degenerate" not in out
        assert "norm: alpha * alpha' = 17 * (1)^2" in out
        assert "Galois class of the closure: D4" in out

    def test_degenerate_marked(self, capsys):
        _, out, _ = run(capsys, "d4", "136")
        assert "complement d3 = 1 (degenerate: d = d1 * d2)" in out

    def test_no_pair(self, capsys):
        code, _, err = run(capsys, "d4", "520")
        assert code == 1
        assert "no D4-factorization" in err

    def test_partial_pair_rejected(self, capsys):
        code, _, err = run(capsys, "d4", "680", "--d1", "8")
        assert code == 2
        assert "--d1 and --d2 must be given together" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "d4", "--json", "680")
        assert code == 0
        cert = decode_d4cert(json.loads(out))
        assert cert == d4_construct(enumerate_d4(680)[0])
        assert d4_verify(cert)


class TestTable2:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run(capsys, "table2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert all(": PASS (delta = " in line for line in lines[:9])
        assert lines[-1] == "all rows pass"
        for d in (3848, 2120, 1480, 520, -120, -255, -420, -455, -520):
            assert f"row d = {d}: PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "table2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "table2/1"
        assert doc["all_pass"] is True
        assert len(doc["rows"]) == 9
        assert all(row["pass"] for row in doc["rows"])

    def test_starved_search_reports_failure(self, capsys, monkeypatch):
        # --max-a is at least 1 and a = 1 fits every golden row, so the
        # search is starved by letting no candidate fit
        monkeypatch.setattr(quatext.conic, "parameter_conditions", lambda a, d1, d2: False)
        code, out, _ = run(capsys, "table2", "--max-a", "20")
        assert code == 3
        assert "FAIL" in out and "FAILURES above" in out


@pytest.mark.parametrize("argv", [["h8", "520"], ["table2"], ["scan", "500..530", "--h8"]])
@pytest.mark.parametrize("bound", ["0", "-5", "x"])
def test_parameter_bound_below_one_rejected_before_any_construction(
        capsys, monkeypatch, argv, bound):
    def no_construction(*args, **kwargs):
        raise AssertionError("a construction ran")

    monkeypatch.setattr(quatext.cli, "construct_h8", no_construction)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-a", bound])
    assert exc.value.code == 2
    assert "--max-a" in capsys.readouterr().err


class TestScan:
    def test_empty_window(self, capsys):
        code, out, err = run(capsys, "scan", "2..3", "--h8")
        assert code == 0 and out == "" and err == ""

    def test_text_survey(self, capsys):
        code, out, _ = run(capsys, "scan", "500..600", "--h8")
        assert code == 0
        assert "d = 520: 1 splitting" in out
        assert "(5, 8, 13): ok, class H8" in out

    def test_text_streams_each_d(self, monkeypatch):
        """Each d's block is on stdout before the next d is enumerated."""
        out = io.StringIO()
        seen = {}

        def enumerate_h8_spy(d):
            seen[d] = out.getvalue()
            return enumerate_h8(d)

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(quatext.cli, "enumerate_h8", enumerate_h8_spy)
        assert main(["scan", "-300..-100", "--h8"]) == 0
        assert seen[-255] == ""
        assert seen[-120].startswith("d = -255: 1 splitting\n  (-3, 5, 17): ok")
        assert "-120" not in seen[-120]
        assert out.getvalue().startswith(seen[-120])

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "scan", "-300..-100", "--h8")
        _, second, _ = run(capsys, "scan", "-300..-100", "--h8")
        assert first == second

    def test_json_h8_decodes(self, capsys):
        code, out, _ = run(capsys, "scan", "500..540", "--h8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "scanreport/1"
        assert (doc["lo"], doc["hi"], doc["mode"]) == ("500", "540", "h8")
        assert [r["d"] for r in doc["reports"]] == ["520"]
        entry = doc["reports"][0]["entries"][0]
        assert entry["ok"] is True and entry["error"] is None
        assert decode_h8cert(entry["certificate"]) == construct_h8(enumerate_h8(520)[0])

    def test_json_d4_decodes(self, capsys):
        code, out, _ = run(capsys, "scan", "100..200", "--d4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "d4"
        seen = 0
        for report in doc["reports"]:
            assert report["schema"] == "runreport/1"
            for entry in report["entries"]:
                assert entry["ok"] is True
                assert d4_verify(decode_d4cert(entry["certificate"]))
                seen += 1
        assert seen >= 1

    def test_invalid_range(self, capsys):
        code, _, err = run(capsys, "scan", "9..5", "--h8")
        assert code == 2 and "empty range" in err
        code, _, err = run(capsys, "scan", "abc", "--h8")
        assert code == 2 and "range must look like lo..hi" in err

    def test_mode_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "1..10"])
        assert exc.value.code == 2


REPO = Path(__file__).resolve().parent.parent

# The launcher pip writes for a console script (distlib's SCRIPT_TEMPLATE).
LAUNCHER = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {func}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def _prepend(env, key, entry, default=""):
    env[key] = os.pathsep.join(filter(None, [str(entry), env.get(key, default)]))


def checkout_env(bin_dir=None):
    """Environment for a child process that imports quatext from this checkout."""
    env = os.environ.copy()
    _prepend(env, "PYTHONPATH", REPO / "src")
    if bin_dir is not None:
        _prepend(env, "PATH", bin_dir, os.defpath)
    return env


def declared_script(name):
    """The ``module:function`` entry of ``[project.scripts]`` in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def write_launcher(bin_dir, name):
    module, func = declared_script(name).split(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(LAUNCHER.format(python=sys.executable, module=module,
                                      func=func))
    script.chmod(0o755)


def bdist_wheel_available():
    """pip builds a wheel only with the wheel package or setuptools >= 70.1."""
    if importlib.util.find_spec("wheel") is not None:
        return True
    try:
        major, minor = (int(p) for p in version("setuptools").split(".")[:2])
    except (PackageNotFoundError, ValueError):
        return False
    return (major, minor) >= (70, 1)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quatext.cli", "factor", "520"],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 0
        assert proc.stdout == "5 · 8 · 13\n"

    def test_closed_pipe_exits_quietly(self):
        """A reader that stops early, as `| head -n 8` does.  The output
        (about 540 kB) overflows the pipe, so the scan is still writing when
        the pipe closes."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "quatext.cli", "scan", "-2000..2000", "--d4", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env())
        lines = [proc.stdout.readline() for _ in range(8)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert lines[0] == b"{\n" and all(lines)
        assert "Traceback" not in err

    def test_console_script(self, tmp_path):
        write_launcher(tmp_path / "bin", "quatext")
        proc = subprocess.run(["quatext", "h8", "-255"],
                              capture_output=True, text=True,
                              env=checkout_env(tmp_path / "bin"))
        assert proc.returncode == 0
        assert "H8 certificate for d = -255" in proc.stdout

    @pytest.mark.skipif(not bdist_wheel_available(),
                        reason="pip needs bdist_wheel: install the wheel "
                               "package or setuptools >= 70.1")
    def test_pip_installed_script(self, tmp_path):
        project = tmp_path / "project"
        project.mkdir()
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(REPO / name, project)
        shutil.copytree(REPO / "src", project / "src")
        target = tmp_path / "target"
        subprocess.run(
            [sys.executable, "-m", "pip", "install", "--no-build-isolation",
             "--no-deps", "--no-index", "--no-cache-dir",
             "--target", str(target), str(project)],
            check=True)
        env = os.environ.copy()
        env["PYTHONPATH"] = str(target)
        proc = subprocess.run([str(target / "bin" / "quatext"), "h8", "-255"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "H8 certificate for d = -255" in proc.stdout
