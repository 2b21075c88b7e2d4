"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.session import Session


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

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "nope", "--quiet"])
        assert "unknown workload 'nope'" in capsys.readouterr().err

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

    def test_cold_sweep_reports_one_miss_per_chain(self, capsys):
        # Every chain is looked up once, in its group's unit, and a
        # cold sweep misses each time, whichever process runs the unit.
        from repro.pipeline import prepare_application

        argv = ["sweep", "--workloads", "fir,crc32", "--nins", "2,4",
                "--nouts", "1,2", "--ninstr", "2", "--algos",
                "iterative,maxmiso", "--limit", "100000", "--n", "16",
                "--quiet", "--no-store"]
        chains = 4 * sum(len(prepare_application(name, n=16).dfgs)
                         for name in ("fir", "crc32"))
        for extra in ([], ["--workers", "2"]):
            assert main(argv + extra) == 0
            err = capsys.readouterr().err
            assert f"cache 0 hit(s) / {chains} miss(es)" in err

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


# ----------------------------------------------------------------------
# The front end: one option table, one --json [PATH], one error
# boundary.
# ----------------------------------------------------------------------
ALGOS = ("iterative", "optimal", "clubbing", "maxmiso", "area")
SHAPES = ("chain", "multiout", "branchy", "memory", "portlimit", "mixed",
          "nested")

# Every verb's options as (option, dest, default, type name, choices,
# action, required), generated from the parser as it stood before each
# option was declared once in ``repro.cli._OPTIONS``.
PINNED_OPTIONS = {
    "list": [
        ("--json", "json", False, None, None, "store_true", False),
    ],
    "ir": [
        ("workload", "workload", None, None, None, "store", True),
        ("--n", "n", None, "int", None, "store", False),
        ("--unroll", "unroll", None, "int", None, "store", False),
        ("--store", "store", None, None, None, "store_true", False),
        ("--no-store", "store", True, None, None, "store_false", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
        ("--backend", "backend", None,
         None, ("walk", "compiled"), "store", False),
    ],
    "identify": [
        ("workload", "workload", None, None, None, "store", True),
        ("--n", "n", None, "int", None, "store", False),
        ("--unroll", "unroll", None, "int", None, "store", False),
        ("--nin", "nin", 4, "int", None, "store", False),
        ("--nout", "nout", 2, "int", None, "store", False),
        ("--limit", "limit", None, "int", None, "store", False),
        ("--store", "store", None, None, None, "store_true", False),
        ("--no-store", "store", True, None, None, "store_false", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
        ("--backend", "backend", None,
         None, ("walk", "compiled"), "store", False),
    ],
    "select": [
        ("workload", "workload", None, None, None, "store", True),
        ("--n", "n", None, "int", None, "store", False),
        ("--unroll", "unroll", None, "int", None, "store", False),
        ("--nin", "nin", 4, "int", None, "store", False),
        ("--nout", "nout", 2, "int", None, "store", False),
        ("--limit", "limit", None, "int", None, "store", False),
        ("--store", "store", None, None, None, "store_true", False),
        ("--no-store", "store", True, None, None, "store_false", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
        ("--backend", "backend", None,
         None, ("walk", "compiled"), "store", False),
        ("--ninstr", "ninstr", 16, "int", None, "store", False),
        ("--algo", "algo", "iterative", None, ALGOS, "store", False),
        ("--max-nodes", "max_nodes", 40, "int", None, "store", False),
        ("--area-budget", "area_budget", 2.0, "float", None, "store", False),
        ("--area-method", "area_method", "knapsack",
         None, ("knapsack", "greedy"), "store", False),
    ],
    "compare": [
        ("workload", "workload", None, None, None, "store", True),
        ("--n", "n", None, "int", None, "store", False),
        ("--unroll", "unroll", None, "int", None, "store", False),
        ("--nin", "nin", 4, "int", None, "store", False),
        ("--nout", "nout", 2, "int", None, "store", False),
        ("--limit", "limit", None, "int", None, "store", False),
        ("--store", "store", None, None, None, "store_true", False),
        ("--no-store", "store", True, None, None, "store_false", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
        ("--backend", "backend", None,
         None, ("walk", "compiled"), "store", False),
        ("--ninstr", "ninstr", 16, "int", None, "store", False),
        ("--max-nodes", "max_nodes", 40, "int", None, "store", False),
    ],
    "sweep": [
        ("--workloads", "workloads", None, None, None, "store", True),
        ("--ports", "ports", None, None, None, "store", False),
        ("--nins", "nins", "4", None, None, "store", False),
        ("--nouts", "nouts", "2", None, None, "store", False),
        ("--ninstr", "ninstr", "16", None, None, "store", False),
        ("--algos", "algos", "iterative,clubbing,maxmiso",
         None, None, "store", False),
        ("--models", "models", "default", None, None, "store", False),
        ("--n", "n", None, "int", None, "store", False),
        ("--unroll", "unroll", None, "int", None, "store", False),
        ("--limit", "limit", None, "int", None, "store", False),
        ("--max-nodes", "max_nodes", 40, "int", None, "store", False),
        ("--area-budget", "area_budget", 2.0, "float", None, "store", False),
        ("--measure", "measure", False, None, None, "store_true", False),
        ("--no-cache", "no_cache", False, None, None, "store_true", False),
        ("--json", "json", None, None, None, "store", False),
        ("--csv", "csv", None, None, None, "store", False),
        ("--quiet", "quiet", False, None, None, "store_true", False),
        ("--workers", "workers", None, "int", None, "store", False),
        ("--listen", "listen", None, None, None, "store", False),
        ("--store", "store", None, None, None, "store_true", False),
        ("--no-store", "store", True, None, None, "store_false", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
        ("--backend", "backend", None,
         None, ("walk", "compiled"), "store", False),
    ],
    "worker": [
        ("--connect", "connect", None, None, None, "store", True),
        ("--name", "name", None, None, None, "store", False),
        ("--quiet", "quiet", False, None, None, "store_true", False),
    ],
    "speedup": [
        ("--workloads", "workloads", "all", None, None, "store", False),
        ("--n", "n", None, "int", None, "store", False),
        ("--unroll", "unroll", None, "int", None, "store", False),
        ("--nin", "nin", 4, "int", None, "store", False),
        ("--nout", "nout", 2, "int", None, "store", False),
        ("--ninstr", "ninstr", 16, "int", None, "store", False),
        ("--limit", "limit", None, "int", None, "store", False),
        ("--algo", "algo", "iterative", None, ALGOS, "store", False),
        ("--max-nodes", "max_nodes", 40, "int", None, "store", False),
        ("--area-budget", "area_budget", 2.0, "float", None, "store", False),
        ("--json", "json", None, None, None, "store", False),
        ("--store", "store", None, None, None, "store_true", False),
        ("--no-store", "store", True, None, None, "store_false", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
        ("--backend", "backend", None,
         None, ("walk", "compiled"), "store", False),
    ],
    "run": [
        ("workload", "workload", None, None, None, "store", True),
        ("--n", "n", None, "int", None, "store", False),
        ("--unroll", "unroll", None, "int", None, "store", False),
        ("--rewrite", "rewrite", False, None, None, "store_true", False),
        ("--algo", "algo", "iterative", None, ALGOS, "store", False),
        ("--nin", "nin", 4, "int", None, "store", False),
        ("--nout", "nout", 2, "int", None, "store", False),
        ("--ninstr", "ninstr", 16, "int", None, "store", False),
        ("--limit", "limit", None, "int", None, "store", False),
        ("--inputs", "inputs", None, "int", None, "store", False),
        ("--batch-file", "batch_file", None, None, None, "store", False),
        ("--store", "store", None, None, None, "store_true", False),
        ("--no-store", "store", True, None, None, "store_false", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
        ("--backend", "backend", None,
         None, ("walk", "compiled"), "store", False),
    ],
    "check": [
        ("workload", "workload", None, None, None, "store", True),
        ("--n", "n", None, "int", None, "store", False),
        ("--unroll", "unroll", None, "int", None, "store", False),
        ("--nin", "nin", 4, "int", None, "store", False),
        ("--nout", "nout", 2, "int", None, "store", False),
        ("--ninstr", "ninstr", 16, "int", None, "store", False),
        ("--limit", "limit", None, "int", None, "store", False),
        ("--algo", "algo", "iterative", None, ALGOS, "store", False),
        ("--max-nodes", "max_nodes", 40, "int", None, "store", False),
        ("--json", "json", None, None, None, "store", False),
        ("--store", "store", None, None, None, "store_true", False),
        ("--no-store", "store", True, None, None, "store_false", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
        ("--backend", "backend", None,
         None, ("walk", "compiled"), "store", False),
    ],
    "fuzz": [
        ("--count", "count", 200, "int", None, "store", False),
        ("--seed", "seed", 0, "int", None, "store", False),
        ("--shape", "shape", None, None, SHAPES, "store", False),
        ("--soak", "soak", False, None, None, "store_true", False),
        ("--artifacts", "artifacts", None, None, None, "store", False),
        ("--nin", "nin", 4, "int", None, "store", False),
        ("--nout", "nout", 2, "int", None, "store", False),
        ("--ninstr", "ninstr", 8, "int", None, "store", False),
        ("--limit", "limit", None, "int", None, "store", False),
        ("--json", "json", False, None, None, "store_true", False),
    ],
    "chaos": [
        ("--seed", "seed", 0, "int", None, "store", False),
        ("--workers", "workers", 2, "int", None, "store", False),
        ("--workloads", "workloads", "fir,crc32", None, None, "store", False),
        ("--ports", "ports", "2x1,2x2,4x1,4x2", None, None, "store", False),
        ("--ninstr", "ninstr", "2", None, None, "store", False),
        ("--algos", "algos", "iterative,maxmiso", None, None, "store", False),
        ("--n", "n", 16, "int", None, "store", False),
        ("--limit", "limit", 100000, "int", None, "store", False),
        ("--server", "server", "restart",
         None, ("restart", "down", "up"), "store", False),
        ("--unit-attempts", "unit_attempts", 4, "int", None, "store", False),
        ("--unit-deadline", "unit_deadline", 60.0,
         "float", None, "store", False),
        ("--deadline", "deadline", 600.0, "float", None, "store", False),
        ("--workdir", "workdir", None, None, None, "store", False),
        ("--json", "json", False, None, None, "store_true", False),
        ("--quiet", "quiet", False, None, None, "store_true", False),
    ],
    "afu": [
        ("workload", "workload", None, None, None, "store", True),
        ("--n", "n", None, "int", None, "store", False),
        ("--unroll", "unroll", None, "int", None, "store", False),
        ("--nin", "nin", 4, "int", None, "store", False),
        ("--nout", "nout", 2, "int", None, "store", False),
        ("--limit", "limit", None, "int", None, "store", False),
        ("--store", "store", None, None, None, "store_true", False),
        ("--no-store", "store", True, None, None, "store_false", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
        ("--backend", "backend", None,
         None, ("walk", "compiled"), "store", False),
        ("--ninstr", "ninstr", 2, "int", None, "store", False),
    ],
    "cache": [
        ("action", "action", None,
         None, ("stats", "clear", "gc"), "store", True),
        ("--max-age-days", "max_age_days", 30.0,
         "float", None, "store", False),
        ("--json", "json", False, None, None, "store_true", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
    ],
    "store": [
        ("action", "action", None, None, ("serve",), "store", True),
        ("--listen", "listen", "127.0.0.1:9723", None, None, "store", False),
        ("--store-dir", "store_dir", None, None, None, "store", False),
    ],
}

# The rows that changed on purpose.  ``--json`` takes an optional PATH
# on every verb that has it ...
JSON_VERBS = ("list", "sweep", "speedup", "check", "fuzz", "chaos", "cache")
JSON_ROW = ("--json", "json", None, None, None, "store", False)
# ... and workload names are checked while parsing, by a converter.
WORKLOAD_TYPES = {
    **{(verb, "workload"): "_workload"
       for verb in ("ir", "identify", "select", "compare", "run", "afu")},
    ("check", "workload"): "_workloads",
    ("sweep", "--workloads"): "_workloads",
    ("speedup", "--workloads"): "_workloads",
    ("chaos", "--workloads"): "_workloads",
}


def _parser_rows(parser):
    import argparse

    kinds = {argparse._StoreAction: "store",
             argparse._StoreTrueAction: "store_true",
             argparse._StoreFalseAction: "store_false"}
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {
        verb: sorted(
            ("/".join(a.option_strings) or a.dest, a.dest, a.default,
             getattr(a.type, "__name__", None),
             None if a.choices is None else tuple(a.choices),
             kinds[type(a)], a.required)
            for a in p._actions if type(a) in kinds)
        for verb, p in sub.choices.items()}


class TestParserPin:
    def test_options_match_the_pinned_table(self):
        expected = {}
        for verb, rows in PINNED_OPTIONS.items():
            changed = []
            for row in rows:
                if row[0] == "--json":
                    row = JSON_ROW
                type_name = WORKLOAD_TYPES.get((verb, row[0]))
                if type_name:
                    row = row[:3] + (type_name,) + row[4:]
                changed.append(row)
            expected[verb] = sorted(changed)
        assert _parser_rows(build_parser()) == expected

    def test_every_json_option_takes_an_optional_path(self):
        import argparse

        [sub] = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        found = {verb: (a.nargs, a.const)
                 for verb, p in sub.choices.items()
                 for a in p._actions if a.dest == "json"}
        assert found == {verb: ("?", "-") for verb in JSON_VERBS}

    @pytest.mark.parametrize("verb", sorted(PINNED_OPTIONS))
    def test_help(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {verb}")


# --batch-file inputs that are rejected when the file is read, with
# what the message says.
BATCH_FILES = {
    "not-object.json": ("[1, 2]", "record 0: expected an object"),
    "bad-args.json": ('[{"args": ["x"]}]',
                      "record 0: 'args' must be a list of ints"),
    "bool-args.json": ('[{"args": [true]}]',
                       "record 0: 'args' must be a list of ints"),
    "bad-array.json": ('[{"arrays": {"nope": [1]}}]',
                       "record 0: unknown array 'nope'"),
    "long-array.json": ('[{"arrays": {"coeff": [0, 0, 0, 0, 0, 0, 0, 0, 0]}}]',
                        "record 0: array 'coeff' must be a list of at "
                        "most 8 ints"),
    "bad-steps.json": ('[{"args": [3]}, {"max_steps": "x"}]',
                       "record 1: 'max_steps' must be an int"),
    "bad-key.json": ('[{"arg": [3]}]', "record 0: unknown key(s) ['arg']"),
    "not-json.json": ("not json", "not JSON"),
}


class TestRejection:
    """Bad input exits non-zero without a traceback: an argparse usage
    error (exit 2) when the parser sees it, else one ``<verb>: ...``
    stderr line (exit 1) from the error boundary in ``main``."""

    @pytest.mark.parametrize("argv, kind", [
        (["select", "nope"], "usage"),
        (["identify", "nope"], "usage"),
        (["ir", "nope"], "usage"),
        (["run", "nope"], "usage"),
        (["afu", "nope"], "usage"),
        (["compare", "nope"], "usage"),
        (["check", "nope"], "usage"),
        (["check", "fir,nope"], "usage"),
        (["chaos", "--workloads", "nope"], "usage"),
        (["select", "fir", "--n", "-5"], "error"),
        (["speedup", "--workloads", "fir", "--n", "-5"], "error"),
        (["sweep", "--workloads", "fir", "--n", "-5", "--quiet"], "error"),
        (["select", "fir", "--n", "0"], "error"),
        (["run", "fir", "--n", "100000"], "error"),
        (["run", "fir", "--n", "-5"], "error"),
        (["check", "fir", "--n", "100000"], "error"),
        (["select", "fir", "--nin", "0"], "error"),
        (["select", "fir", "--n", "16", "--algo", "optimal",
          "--max-nodes", "2"], "error"),
        (["sweep", "--workloads", "fir", "--ports", "whoops"], "error"),
        *[(["run", "fir", "--batch-file", name], "error")
          for name in BATCH_FILES],
        (["run", "fir", "--batch-file", "/nonexistent/lanes.json"],
         "error"),
        (["list", "--json", "/nonexistent/x.json"], "error"),
    ])
    def test_rejected_without_traceback(self, argv, kind, tmp_path):
        for name, (text, _) in BATCH_FILES.items():
            (tmp_path / name).write_text(text)
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_STORE="off")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        if kind == "usage":
            assert proc.returncode == 2
            assert lines[-1].startswith(f"repro {argv[0]}: error: ")
        else:
            assert proc.returncode == 1
            assert len(lines) == 1
            assert lines[0].startswith(f"{argv[0]}: ")

    def test_unwritable_csv(self, tmp_path):
        """The sweep runs, then the ``--csv`` write fails: its stderr
        timing line is followed by one ``sweep:`` line, exit 1."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_STORE="off")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--workloads", "fir",
             "--ports", "4x2", "--ninstr", "1", "--quiet", "--csv",
             "/nonexistent/x.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines()[-1] == (
            "sweep: [Errno 2] No such file or directory: "
            "'/nonexistent/x.csv'")

    def test_store_serve_bind_failure(self, tmp_path):
        """An address already in use is one ``store:`` line, exit 1."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_STORE="off")
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "store", "serve",
                 "--listen", f"127.0.0.1:{port}", "--store-dir",
                 str(tmp_path / "store")],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=120)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("store: ")

    @pytest.mark.parametrize("name", sorted(BATCH_FILES))
    def test_batch_file_checked_when_read(self, name, tmp_path):
        text, message = BATCH_FILES[name]
        (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["run", "fir", "--batch-file", str(tmp_path / name),
                  "--no-store"])
        assert str(exc.value).startswith(f"run: {tmp_path / name}: ")
        assert message in str(exc.value)

    def test_verification_error_keeps_its_traceback(self, monkeypatch):
        from repro.analysis.diagnostics import VerificationError

        def broken(self, *args, **kwargs):
            raise VerificationError("select", [])

        monkeypatch.setattr(Session, "select", broken)
        with pytest.raises(VerificationError):
            main(["select", "fir", "--no-store"])


def _without_timings(value):
    """*value* without its wall-clock fields (keys ending in ``_s``,
    ``points_per_second``)."""
    if isinstance(value, dict):
        return {key: _without_timings(item) for key, item in value.items()
                if not key.endswith("_s") and key != "points_per_second"}
    if isinstance(value, list):
        return [_without_timings(item) for item in value]
    return value


class TestJsonOption:
    """``--json PATH`` leaves stdout as it is without ``--json``; a bare
    ``--json`` prints the same payload on stdout instead."""

    @pytest.mark.parametrize("argv", [
        ["list"],
        ["sweep", "--workloads", "fir", "--ports", "2x1,4x2", "--ninstr",
         "2", "--algos", "iterative,maxmiso", "--limit", "100000",
         "--n", "16", "--quiet", "--no-store"],
        ["speedup", "--workloads", "fir", "--n", "16", "--ninstr", "2",
         "--limit", "100000", "--no-store"],
        ["check", "fir", "--n", "16", "--ninstr", "4", "--no-store"],
        ["fuzz", "--count", "3", "--seed", "0"],
        ["chaos", "--workloads", "fir", "--ports", "4x2", "--quiet"],
        ["cache", "stats"],
    ], ids=lambda argv: argv[0])
    def test_both_forms(self, argv, capsys, tmp_path, monkeypatch):
        from repro.chaos import ChaosReport

        calls = []

        def fake_chaos(**kwargs):
            calls.append(kwargs)
            return ChaosReport(seed=kwargs["seed"],
                               workers=kwargs["workers"], server="up",
                               rows=2, rows_identical=True, ok=True,
                               failed_expected=True, chaos_s=1.5)

        monkeypatch.setattr("repro.chaos.run_chaos", fake_chaos)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        path = tmp_path / "out.json"

        def run(extra):
            code = main(argv + extra)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        code, text, _ = run([])
        code_path, text_path, err = run(["--json", str(path)])
        assert (code_path, text_path) == (code, text)
        assert err.splitlines().count(f"wrote {path}") == 1
        code_bare, bare, _ = run(["--json"])
        assert code_bare == code
        assert _without_timings(json.loads(bare)) == \
            _without_timings(json.loads(path.read_text()))
        if argv[0] != "sweep":
            assert bare == path.read_text()
        if argv[0] == "chaos":
            assert {call["workloads"] for call in calls} == {("fir",)}
