"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.network.blif import save_blif


@pytest.fixture
def blif_file(tmp_path, small_random):
    path = tmp_path / "small.blif"
    save_blif(small_random, str(path))
    return str(path)


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        names = set(sub.choices)
        assert {
            "figure2",
            "figure5",
            "figure9",
            "figure10",
            "table1",
            "table2",
            "synth",
            "info",
            "sweep",
            "cache",
            "serve",
        } <= names

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "2", "--queue-size", "4",
             "--timeout-s", "30", "--store", "--no-progress"]
        )
        assert args.port == 0 and args.jobs == 2 and args.queue_size == 4
        assert args.timeout_s == 30.0 and args.store and args.no_progress

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--stage-jobs", "2"],
            ["table2", "--stage-jobs", "2"],
            ["synth", "x.blif", "--stage-jobs", "2"],
            ["batch", "dir", "--stage-jobs", "2"],
            ["sweep", "dir", "--grid", "seed=1,2", "--stage-jobs", "2"],
            ["serve", "--stage-jobs", "2"],
        ],
    )
    def test_stage_jobs_flag_parses_everywhere(self, argv):
        args = build_parser().parse_args(argv)
        assert args.stage_jobs == 2

    def test_stage_jobs_defaults_to_config_choice(self):
        """Not passing the flag must leave the config's own stage_jobs
        (including the auto default) untouched."""
        from repro.cli import _effective_config

        args = build_parser().parse_args(["synth", "x.blif"])
        assert args.stage_jobs is None
        assert _effective_config(args).stage_jobs == 0  # auto

    def test_stage_jobs_flag_reaches_the_config(self):
        from repro.cli import _effective_config

        args = build_parser().parse_args(["synth", "x.blif", "--stage-jobs", "3"])
        assert _effective_config(args).stage_jobs == 3


class TestCommands:
    def test_figure2(self, capsys):
        assert main(["figure2", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "domino_S" in out

    def test_figure5(self, capsys):
        assert main(["figure5", "--vectors", "4096"]) == 0
        out = capsys.readouterr().out
        assert "min power" in out

    def test_figure9(self, capsys):
        assert main(["figure9"]) == 0
        assert "supervertex" in capsys.readouterr().out

    def test_figure10(self, capsys):
        assert main(["figure10"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_table1_single_circuit(self, capsys):
        assert main(["table1", "--circuits", "frg1", "--vectors", "512"]) == 0
        out = capsys.readouterr().out
        assert "frg1" in out
        assert "Table 1" in out

    def test_table2_single_circuit(self, capsys):
        assert main(["table2", "--circuits", "frg1", "--vectors", "512"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_info(self, capsys, blif_file):
        assert main(["info", blif_file]) == 0
        out = capsys.readouterr().out
        assert "inputs" in out
        assert "depth" in out

    def test_synth_stage_jobs_output_identical(self, capsys, blif_file):
        assert main(["synth", blif_file, "--vectors", "256", "--stage-jobs", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(["synth", blif_file, "--vectors", "256", "--stage-jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_synth(self, capsys, blif_file):
        assert main(["synth", blif_file, "--vectors", "512"]) == 0
        out = capsys.readouterr().out
        assert "MA assignment" in out
        assert "MP assignment" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "BLIF", "--jobs", "0"],
            ["batch", "BLIF", "--timeout-s", "-1"],
            ["batch", "BLIF", "--timeout-s", "nan"],
            ["serve", "--port", "0", "--timeout-s", "-1"],
        ],
    )
    def test_bad_batch_and_serve_arguments_fail_cleanly(
        self, capsys, monkeypatch, blif_file, argv
    ):
        # serve would otherwise attach its log handler to the captured stderr
        monkeypatch.setattr("repro.log.configure_logging", lambda *a, **k: None)
        argv = [blif_file if arg == "BLIF" else arg for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestStoreCommands:
    def test_synth_store_cold_then_warm(self, capsys, blif_file, tmp_path):
        store_dir = str(tmp_path / "store")
        args = ["synth", blif_file, "--vectors", "256", "--store-dir", store_dir]
        assert main(args) == 0
        assert "store: populated" in capsys.readouterr().out
        assert main(args) == 0
        assert "store: served from" in capsys.readouterr().out

    def test_no_store_wins(self, capsys, blif_file, tmp_path):
        store_dir = str(tmp_path / "store")
        args = ["synth", blif_file, "--vectors", "256", "--store-dir", store_dir]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--no-store"]) == 0
        assert "store:" not in capsys.readouterr().out

    def test_table1_store_served_line(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        args = [
            "table1", "--circuits", "frg1", "--vectors", "256",
            "--store-dir", store_dir,
        ]
        assert main(args) == 0
        assert "store-served 0/1" in capsys.readouterr().out
        assert main(args) == 0
        assert "store-served 1/1" in capsys.readouterr().out

    def test_batch_store_and_order_flags(self, capsys, blif_file, tmp_path):
        store_dir = str(tmp_path / "store")
        args = [
            "batch", blif_file, "--vectors", "256", "--no-progress",
            "--store-dir", store_dir, "--order", "fifo", "--timeout-s", "120",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "1 store-served" in capsys.readouterr().out

    def test_sweep_and_cache_commands(self, capsys, blif_file, tmp_path):
        store_dir = str(tmp_path / "store")
        assert (
            main(
                [
                    "sweep", blif_file,
                    "--grid", "n_vectors=256,512",
                    "--store-dir", store_dir,
                    "--no-progress",
                    "--output", str(tmp_path / "manifest.json"),
                    "--record", "--runs-dir", str(tmp_path / "runs"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Sweep over 2 point(s)" in out
        assert "recorded run sweep-" in out
        assert (tmp_path / "manifest.json").is_file()
        assert main(["cache", "stats", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "prepare" in out and "flow" in out
        assert main(["cache", "gc", "--store-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--store-dir", store_dir]) == 0
        assert "removed" in capsys.readouterr().out

    def test_sweep_record_defaults_runs_dir_under_store(self, capsys, blif_file, tmp_path):
        store_dir = tmp_path / "store"
        assert (
            main(
                [
                    "sweep", blif_file,
                    "--grid", "n_vectors=256",
                    "--store-dir", str(store_dir),
                    "--no-progress", "--record",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert list((store_dir / "runs").glob("sweep-*.json"))

    def test_bad_grid_is_config_error(self, capsys, blif_file):
        assert main(["sweep", blif_file, "--grid", "nonsense"]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["sweep", blif_file, "--grid", "n_vectors=abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n_vectors must be")
        assert err.count("\n") == 1
