"""End-to-end tests for the command-line frontend.

Everything drives main() in-process so exit codes and both output
streams can be asserted cheaply; one subprocess smoke test covers the
module entry point.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from shipsearch import cli as cli_mod
from shipsearch.cli import banner_text, main, progress_line, ship_text
from shipsearch.pattern import classify_ship, parse_rle
from shipsearch.rules import parse_rule
from shipsearch.search import EXHAUSTED, SHIP_FOUND, SearchResult, SearchStatus
from shipsearch.statespace import SearchParams

LIFE = parse_rule("B3/S23")

GLIDER_RLE = "x = 3, y = 3\nbob$2bo$3o!\n"
BLINKER_RLE = "x = 3, y = 1, rule = B3/S23\n3o!\n"
BLOCK_RLE = "x = 2, y = 2, rule = B3/S23\n2o$2o!\n"
EMPTY_RLE = "x = 0, y = 0, rule = B3/S23\n!\n"


def search_args(*extra):
    return ["search", "--rule", "B3/S23", "--period", "2", "--offset", "1",
            "--width", "5", "--symmetry", "glide", "--quiet", *extra]


class TestSearchCommand:
    def test_ship_found_exit_zero(self, capsys):
        assert main(search_args()) == 0
        out = capsys.readouterr().out
        assert "#C period 4, dx 0, dy -2, speed 2c/4 = c/2" in out
        assert "rule = B3/S23" in out

    def test_banner_on_stderr(self, capsys):
        main(search_args())
        err = capsys.readouterr().err
        assert "2^20" in err
        assert "glide-reflect" in err

    def test_banner_exponent_formula(self):
        text = banner_text(SearchParams(LIFE, 7, 1, 9))
        assert "2^126" in text

    def test_exhausted_exit_one(self, capsys):
        args = ["search", "--rule", "B3/S23", "--period", "2", "--offset", "1",
                "--width", "3", "--quiet"]
        assert main(args) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "tweak",
        [
            ["--period", "3", "--offset", "3"],
            ["--period", "4", "--offset", "2"],
            ["--rule", "B03/S23"],
            ["--translation", "diagonal", "--symmetry", "even"],
        ],
    )
    def test_bad_parameters_exit_two(self, tweak, capsys):
        args = search_args()
        for flag, value in zip(tweak[::2], tweak[1::2]):
            if flag in args:
                args[args.index(flag) + 1] = value
            else:
                args += [flag, value]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_max_deepening_exit_two(self, capsys):
        assert main(search_args("--max-deepening", "-1")) == 2
        captured = capsys.readouterr()
        assert "error: max_deepening must not be negative" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--node-capacity", "0"], "error: node_capacity must be at least 4 periods (8 nodes)"),
            (["--node-capacity", "-5"], "error: node_capacity must be at least 4 periods (8 nodes)"),
            (["--max-deepening", "-1"], "error: max_deepening must not be negative"),
        ],
        ids=["capacity-zero", "capacity-negative", "deepening-negative"],
    )
    def test_bad_config_prints_only_the_error(self, extra, message, capsys):
        args = [a for a in search_args(*extra) if a != "--quiet"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["search", "--rule", "B3/S23"])
        assert info.value.code == 2

    def test_output_file_reverifies(self, tmp_path, capsys):
        path = tmp_path / "ship.rle"
        assert main(search_args("--output", str(path))) == 0
        assert capsys.readouterr().out == ""
        assert main(["verify", str(path)]) == 0
        assert "speed 2c/4 = c/2" in capsys.readouterr().out

    def test_unwritable_output_fails_before_the_search(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli_mod, "run_search", never)
        path = tmp_path / "missing" / "ship.rle"
        assert main([a for a in search_args("--output", str(path)) if a != "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not path.parent.exists()

    def test_ship_found_after_narrowing(self, capsys):
        # the narrowed search finds a ship whose older rows are wider than
        # the strip it ends at
        args = ["search", "--rule", "B34/S1357", "--period", "2", "--offset", "1", "--width", "4",
                "--symmetry", "odd", "--node-capacity", "28", "--max-deepening", "3", "--continue"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "progress: width 2" in captured.err
        assert "search ended: exhausted" in captured.err
        assert "2bo$obobo$bobo2$2bo!" in captured.out

    def test_node_capacity_reserves_nothing_up_front(self, capsys):
        # 2^40 nodes: any per-capacity allocation at set-up would fail here
        assert main(search_args("--node-capacity", str(1 << 40))) == 0
        assert "#C period 4, dx 0, dy -2, speed 2c/4 = c/2" in capsys.readouterr().out

    def test_progress_goes_to_stderr(self, capsys):
        args = ["search", "--rule", "B3/S23", "--period", "2", "--offset", "1",
                "--width", "3"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "progress:" in captured.err
        assert "search ended: exhausted" in captured.err
        assert captured.out == ""


class TestVerifyCommand:
    def write(self, tmp_path, text):
        path = tmp_path / "pattern.rle"
        path.write_text(text)
        return str(path)

    def test_glider_with_rule_override(self, tmp_path, capsys):
        path = self.write(tmp_path, GLIDER_RLE)
        assert main(["verify", path, "--rule", "B3/S23"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("period 4")
        assert "c/4" in out
        assert ", slope " in out

    def test_rule_header_required(self, tmp_path, capsys):
        path = self.write(tmp_path, GLIDER_RLE)
        assert main(["verify", path]) == 2
        assert "--rule" in capsys.readouterr().err

    def test_blinker(self, tmp_path, capsys):
        path = self.write(tmp_path, BLINKER_RLE)
        assert main(["verify", path]) == 1
        assert "not a spaceship (oscillator, period 2)" in capsys.readouterr().out

    def test_block(self, tmp_path, capsys):
        path = self.write(tmp_path, BLOCK_RLE)
        assert main(["verify", path]) == 1
        assert "not a spaceship (still life)" in capsys.readouterr().out

    def test_no_recurrence(self, tmp_path, capsys):
        path = self.write(tmp_path, GLIDER_RLE)
        assert main(["verify", path, "--rule", "B3/S23", "--max-period", "3"]) == 1
        assert "not a spaceship (no recurrence within 3 generations)" in capsys.readouterr().out
        path = self.write(tmp_path, "x = 1, y = 1, rule = B3/S23\no!\n")  # dies at once
        assert main(["verify", path]) == 1
        assert "not a spaceship (no recurrence within 32 generations)" in capsys.readouterr().out

    @pytest.mark.parametrize("max_period", ["0", "-3"])
    def test_nonpositive_max_period_exit_two(self, tmp_path, capsys, max_period):
        path = self.write(tmp_path, GLIDER_RLE)
        assert main(["verify", path, "--rule", "B3/S23", "--max-period", max_period]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: --max-period must be at least 1"]
        assert captured.out == ""

    def test_empty(self, tmp_path, capsys):
        path = self.write(tmp_path, EMPTY_RLE)
        assert main(["verify", path]) == 1
        assert "not a spaceship (empty)" in capsys.readouterr().out

    def test_unparseable_exit_two(self, tmp_path, capsys):
        path = self.write(tmp_path, "no header here\n")
        assert main(["verify", path]) == 2
        assert "header" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "absent.rle")]) == 2
        assert "error:" in capsys.readouterr().err


class TestStatsCommand:
    def test_life_pruned_fraction(self, capsys):
        assert main(["stats", "--rule", "B3/S23"]) == 0
        out = capsys.readouterr().out
        assert "pruned: 18.5%" in out
        assert "pair strip table density" in out

    def test_b27s0_pruned_fraction(self, capsys):
        assert main(["stats", "--rule", "B27/S0"]) == 0
        assert "pruned: 68.3%" in capsys.readouterr().out

    def test_rule_with_nothing_pruned(self, capsys):
        # found by scripts/scan_prune_rates.py: the pair table rejects nothing
        assert main(["stats", "--rule", "B25/S1458"]) == 0
        assert "pruned: 0.0%" in capsys.readouterr().out

    def test_higher_period_reports_chain_table(self, capsys):
        assert main(["stats", "--rule", "B3/S23", "--period", "3"]) == 0
        out = capsys.readouterr().out
        assert "lookahead chain table density: 63.9%" in out
        assert "edge table density: 25.0%" in out
        assert "pruned:" not in out

    @pytest.mark.parametrize("period", ["1", "0", "-3"])
    def test_period_below_two_exit_two(self, period, capsys):
        # stats has no offset option, so the offset error is no help here
        assert main(["stats", "--rule", "B3/S23", "--period", period]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --period must be at least 2\n"
        assert captured.out == ""


class TestLongSearchesScript:
    @staticmethod
    def script_with_result(monkeypatch, status, ships):
        """The script module, its run_search stubbed to report status once
        and return ships."""
        spec = importlib.util.spec_from_file_location(
            "long_searches", Path(__file__).resolve().parents[1] / "scripts" / "long_searches.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)

        def run_search(params, config, progress):
            progress(status)
            return SearchResult(ships=ships, status=status)

        monkeypatch.setattr(script, "run_search", run_search)
        return script

    def test_progress_line_after_elapsed_time(self, monkeypatch, capsys):
        status = SearchStatus(frontier_level=12, deepening_limit=18, nodes_in_arena=345, states_expanded=6789,
                              current_width=8, outcome=EXHAUSTED)
        script = self.script_with_result(monkeypatch, status, [])
        assert script.run_profile("dragon", 1 << 10) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == banner_text(SearchParams(LIFE, 6, 1, 8))
        assert re.fullmatch(r"\[ +\d+s\] (.*)", lines[1]).group(1) == progress_line(status)
        assert lines[2:] == ["outcome: exhausted"]

    def test_ship_printed_as_the_cli_prints_it(self, monkeypatch, capsys):
        glider = parse_rle(GLIDER_RLE)[0]
        desc = classify_ship(LIFE, glider, 4)
        status = SearchStatus(current_width=8, outcome=SHIP_FOUND)
        script = self.script_with_result(monkeypatch, status, [(glider, desc), (glider, desc)])
        assert script.run_profile("dragon", 1 << 10) == 0
        assert capsys.readouterr().out == 2 * ship_text(glider, desc, LIFE)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shipsearch.cli", "stats", "--rule", "B3/S23"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pruned: 18.5%" in proc.stdout
