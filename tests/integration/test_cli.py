"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import main


class TestList:
    def test_lists_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "adpcm-decode" in out
        assert "gsm" in out

    def test_json_output(self, capsys):
        assert main(["list", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in records}
        assert set(by_name) == {
            "adpcm-decode", "adpcm-encode", "gsm", "fir", "crc32",
            "g721", "mixer", "sha"}
        fir = by_name["fir"]
        assert fir["entry"] == "fir_filter"
        assert fir["default_n"] == 256
        assert fir["description"]
        assert by_name["gsm"]["paper_benchmark"] is True


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestIdentify:
    def test_identify_adpcm(self, capsys):
        code = main(["identify", "adpcm-decode", "--n", "32",
                     "--nin", "3", "--nout", "1",
                     "--limit", "200000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hot block" in out
        assert "cut of" in out

    def test_identify_reports_no_cut(self, capsys):
        # Nin=1/Nout=1 on fir: single ops only, none profitable.
        code = main(["identify", "fir", "--n", "16",
                     "--nin", "1", "--nout", "1"])
        out = capsys.readouterr().out
        assert "no profitable cut" in out or "cut of" in out


class TestSelect:
    @pytest.mark.parametrize("algo", ["iterative", "clubbing", "maxmiso"])
    def test_algorithms_run(self, capsys, algo):
        code = main(["select", "fir", "--n", "16", "--algo", algo,
                     "--nin", "4", "--nout", "2", "--ninstr", "4",
                     "--limit", "100000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_optimal_on_small_workload(self, capsys):
        code = main(["select", "fir", "--n", "16", "--algo", "optimal",
                     "--nin", "3", "--nout", "1", "--ninstr", "2",
                     "--limit", "200000"])
        assert code == 0
        assert "Optimal" in capsys.readouterr().out

    def test_area_constrained_roundtrip(self, capsys):
        code = main(["select", "fir", "--n", "16", "--algo", "area",
                     "--nin", "4", "--nout", "2", "--ninstr", "4",
                     "--area-budget", "2.0", "--limit", "100000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AreaConstrained(knapsack, 2 MAC)" in out
        assert "speedup" in out

    def test_area_greedy_method(self, capsys):
        code = main(["select", "fir", "--n", "16", "--algo", "area",
                     "--area-method", "greedy", "--limit", "100000"])
        assert code == 0
        assert "AreaConstrained(greedy" in capsys.readouterr().out


class TestCompare:
    def test_compare_row_has_all_four_algorithms(self, capsys):
        code = main(["compare", "crc32", "--n", "16",
                     "--nin", "4", "--nout", "2", "--ninstr", "8",
                     "--limit", "200000"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("Optimal", "Iterative", "Clubbing", "MaxMISO"):
            assert name in out
        # Every algorithm actually reported a result on this workload.
        assert out.count("speedup") == 4

    def test_compare_degrades_optimal_to_na_on_big_blocks(self, capsys):
        code = main(["compare", "fir", "--n", "16", "--max-nodes", "2",
                     "--nin", "3", "--nout", "1", "--ninstr", "2",
                     "--limit", "100000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Optimal" in out
        assert "n/a" in out                      # the guarded row
        assert out.count("speedup") == 3         # the other three ran


class TestAfu:
    def test_emits_verilog(self, capsys):
        code = main(["afu", "fir", "--n", "16", "--nin", "4",
                     "--nout", "2", "--ninstr", "1",
                     "--limit", "100000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "module ise0" in out
        assert "endmodule" in out


class TestIr:
    def test_dumps_ir(self, capsys):
        code = main(["ir", "fir", "--n", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "func fir_filter" in out
        assert "application fir" in out


class TestRun:
    def test_runs_baseline(self, capsys):
        code = main(["run", "fir", "--n", "16"])
        assert code == 0
        captured = capsys.readouterr()
        assert "fir n=16 (baseline)" in captured.out
        assert "steps:" in captured.out
        assert "verified: yes" in captured.out
        # Wall time is telemetry and must stay off stdout.
        assert "steps/s" in captured.err

    def test_backends_print_identical_stdout(self, capsys):
        outputs = {}
        for backend in ("walk", "compiled"):
            assert main(["run", "crc32", "--n", "12",
                         "--backend", backend]) == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["walk"] == outputs["compiled"]

    def test_run_rewritten(self, capsys):
        code = main(["run", "fir", "--n", "16", "--rewrite",
                     "--ninstr", "2", "--limit", "100000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rewritten:" in out
        assert "verified: yes" in out


class TestSweep:
    def test_grid_with_artifacts(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--workloads", "fir",
                     "--ports", "2x1,4x2", "--ninstr", "2,4",
                     "--algos", "iterative,maxmiso",
                     "--limit", "100000", "--n", "16", "--quiet",
                     "--json", str(json_path), "--csv", str(csv_path)])
        assert code == 0
        captured = capsys.readouterr()
        out = captured.out
        assert "Ninstr=2" in out and "Ninstr=4" in out
        assert "iterative" in out and "maxmiso" in out
        # Telemetry goes to stderr so stdout stays byte-identical
        # between cold and warm-started invocations.
        assert "grid points in" in captured.err
        assert "cache" in captured.err

        import json as jsonlib
        data = jsonlib.loads(json_path.read_text())
        assert data["meta"]["points"] == 2 * 2 * 2
        assert csv_path.read_text().startswith("workload,")

    def test_nin_nout_cross_product(self, capsys):
        code = main(["sweep", "--workloads", "fir",
                     "--nins", "2,3", "--nouts", "1",
                     "--ninstr", "2", "--algos", "maxmiso",
                     "--n", "16", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2    1" in out and "3    1" in out

    def test_no_cache_flag(self, capsys):
        code = main(["sweep", "--workloads", "fir", "--ports", "2x1",
                     "--ninstr", "2", "--algos", "maxmiso",
                     "--n", "16", "--quiet", "--no-cache"])
        assert code == 0
        assert "cache" not in capsys.readouterr().out

    def test_bad_ports_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "fir", "--ports", "whoops",
                  "--quiet"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["sweep", "--workloads", "nope", "--quiet"])

    def test_bad_ninstr_list_rejected(self):
        with pytest.raises(SystemExit, match="bad integer list"):
            main(["sweep", "--workloads", "fir", "--ninstr", "2;4",
                  "--quiet"])

    def test_all_workloads(self, capsys):
        code = main(["sweep", "--workloads", "all", "--ports", "2x1",
                     "--ninstr", "2", "--algos", "maxmiso", "--n", "8",
                     "--quiet", "--no-store"])
        assert code == 0
        out = capsys.readouterr().out
        from repro.workloads import WORKLOADS
        for name in WORKLOADS:
            assert name in out

    def test_workers_stdout_matches_serial(self, capsys):
        argv = ["sweep", "--workloads", "fir,crc32", "--ports", "2x1,4x2",
                "--ninstr", "2", "--algos", "iterative,area",
                "--limit", "100000", "--n", "16", "--quiet",
                "--no-store"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workloads", "fir", "--cluster", "2"],
        ["select", "fir", "--workers", "2"],
        ["speedup", "--workers", "2"],
    ])
    def test_removed_parallel_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)


class TestOversizeN:
    """An ``--n`` that overflows a workload's input arrays is a usage
    error: one ``<verb>: ...`` line and a non-zero exit, no traceback
    (sha's ``n`` counts 16-word blocks; its message buffer holds 64)."""

    @pytest.mark.parametrize("argv", [
        ["speedup", "--workloads", "sha", "--n", "128"],
        ["sweep", "--workloads", "sha", "--n", "128", "--ports", "4x2",
         "--algos", "maxmiso", "--quiet"],
    ], ids=["speedup", "sweep"])
    def test_rejected_without_traceback(self, argv, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--no-store"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{argv[0]}: ")
        assert "'sha'" in lines[0] and "n=128" in lines[0]
        assert "'msg'" in lines[0]


class TestStoreFlags:
    """Byte-identity across store modes plus the ``cache`` verb."""

    SELECT = ["select", "fir", "--n", "16", "--ninstr", "4",
              "--limit", "100000"]
    SWEEP = ["sweep", "--workloads", "fir", "--ports", "2x1,4x2",
             "--ninstr", "2,4", "--algos", "iterative,maxmiso",
             "--limit", "100000", "--n", "16", "--quiet"]

    def _stdout(self, capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("base_argv", [SELECT, SWEEP])
    def test_stdout_byte_identical_across_store_modes(self, capsys,
                                                      tmp_path,
                                                      base_argv):
        store = ["--store-dir", str(tmp_path / "store")]
        nostore = self._stdout(capsys, base_argv + ["--no-store"])
        cold = self._stdout(capsys, base_argv + store)
        warm = self._stdout(capsys, base_argv + store)
        assert nostore == cold == warm

    def test_identify_byte_identical_warm(self, capsys, tmp_path):
        argv = ["identify", "fir", "--n", "16", "--nin", "3",
                "--nout", "1", "--limit", "100000",
                "--store-dir", str(tmp_path)]
        cold = self._stdout(capsys, argv)
        warm = self._stdout(capsys, argv)
        assert cold == warm

    def test_speedup_byte_identical_warm(self, capsys, tmp_path):
        argv = ["speedup", "--workloads", "fir", "--n", "16",
                "--ninstr", "2", "--limit", "100000",
                "--store-dir", str(tmp_path)]
        cold = self._stdout(capsys, argv)
        warm = self._stdout(capsys, argv)
        assert cold == warm
        assert "yes" in warm            # bit-exact execution

    def test_cache_stats_clear_roundtrip(self, capsys, tmp_path):
        store = ["--store-dir", str(tmp_path)]
        self._stdout(capsys, self.SELECT + store)

        assert main(["cache", "stats"] + store) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "app" in out and "search" in out

        assert main(["cache", "stats", "--json"] + store) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["entries"] > 0
        assert record["kinds"]["app"] >= 1

        assert main(["cache", "clear"] + store) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--json"] + store) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_gc(self, capsys, tmp_path):
        store = ["--store-dir", str(tmp_path)]
        self._stdout(capsys, self.SELECT + store)
        assert main(["cache", "gc", "--max-age-days", "30"] + store) == 0
        assert "removed 0 artifact(s)" in capsys.readouterr().out
        assert main(["cache", "gc", "--max-age-days", "0"] + store) == 0
        out = capsys.readouterr().out
        assert "removed" in out and "removed 0 " not in out

    def test_cache_disabled_store_errors(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        assert main(["cache", "stats"]) == 1
        assert "disabled" in capsys.readouterr().err

    def test_explicit_store_flag_overrides_env_off(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        monkeypatch.setenv("HOME", str(tmp_path))   # sandbox ~/.cache
        assert main(self.SELECT + ["--store"]) == 0
        capsys.readouterr()
        assert (tmp_path / ".cache" / "repro").is_dir()
