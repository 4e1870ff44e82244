import argparse
import csv
import functools
import json
import math
import sys

import pytest

from lebesgue_lab import cli, quadrature
from lebesgue_lab.epi import check_epis, check_rogozin, handcrafted_corpus, random_instance
from lebesgue_lab.errors import PreconditionError
from lebesgue_lab.kernel import KernelSpec
from lebesgue_lab.levelsets import detect_sign_change
from lebesgue_lab.quadrature import certify_bound, integrate_kernel_power_grid, lp_norm, sinc_power_bound


def read_csv(path):
    """(comment lines, header, records) of a CSV report, whose every row has one cell per column."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    assert all(len(row) == len(header) for row in rows)
    return comments, header, [dict(zip(header, row)) for row in rows]


def empty_package_caches():
    """Empty every module-level ``lru_cache`` of the package, as a fresh process starts."""
    for name, module in list(sys.modules.items()):
        if name == "lebesgue_lab" or name.startswith("lebesgue_lab."):
            for obj in vars(module).values():
                if isinstance(obj, functools._lru_cache_wrapper):
                    obj.cache_clear()


def hexed_rows(rows):
    """JSON report rows with every float as float.hex, so equal rows are equal bit for bit."""
    return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows]


class TestParsers:
    def test_int_range(self):
        assert cli.parse_int_range("6..9") == [6, 7, 8, 9]
        assert cli.parse_int_range("2,5,11") == [2, 5, 11]

    def test_float_list(self):
        assert cli.parse_float_list("2,2.5,16") == [2.0, 2.5, 16.0]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_int_range("9..6")


class TestCertifyCommand:
    def test_csv_report(self, tmp_path):
        out = tmp_path / "certs.csv"
        code = cli.main(
            ["certify", "--l", "6..10", "--p", "2,4", "--out", str(out)]
        )
        assert code == 0
        comments, header, records = read_csv(out)
        assert header == ["l", "p", "value", "bound", "margin", "error_estimate"]
        assert len(records) == 10
        assert all(float(r["margin"]) > 0.0 for r in records)
        assert any(c.startswith("# command=certify") for c in comments)

    def test_round_trip_floats(self, tmp_path):
        from lebesgue_lab.quadrature import certify_bound

        out = tmp_path / "certs.csv"
        assert cli.main(["certify", "--l", "6..6", "--p", "2", "--out", str(out)]) == 0
        _, _, records = read_csv(out)
        cert = certify_bound(KernelSpec(6), 2.0)
        assert float(records[0]["value"]) == cert.value
        assert float(records[0]["margin"]) == cert.margin


class TestSignChangeCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "np.json"
        assert cli.main(["np-verify", "--l", "6..8", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["command"] == "np-verify"
        assert [r["crossings"] for r in payload["records"]] == [1, 1, 1]
        assert all(r["F0_lt_G0"] for r in payload["records"])

    def test_invalid_length_is_usage_error_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "np.json"
        assert cli.main(["np-verify", "--l", "6,1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: kernel length must be >= 2, got 1\n"
        assert not out.exists()

    def test_length_below_six_is_reported_without_assertion(self, tmp_path):
        out = tmp_path / "np.json"
        assert cli.main(["np-verify", "--l", "6,5", "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        columns = ("l", "y0", "crossings", "F0_lt_G0", "G_lt_F_above_y1")  # the report's margin is no column
        reports = [detect_sign_change(KernelSpec(l)) for l in (6, 5)]
        assert records == [{c: getattr(r, c) for c in columns} for r in reports]

    def test_length_without_crossing_writes_strict_json(self, tmp_path):
        # l = 2 has no crossing and a y0 of NaN, which RFC 8259 JSON cannot hold
        out = tmp_path / "np.json"
        assert cli.main(["np-verify", "--l", "2..7", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        records = json.loads(out.read_text(), parse_constant=reject)["records"]
        assert records[0] == {"l": 2, "y0": None, "crossings": 0, "F0_lt_G0": False, "G_lt_F_above_y1": True}
        assert [r["y0"] for r in records[1:]] == [detect_sign_change(KernelSpec(l)).y0 for l in range(3, 8)]

    def test_csv_keeps_nan(self, tmp_path):
        out = tmp_path / "np.csv"
        assert cli.main(["np-verify", "--l", "2,6", "--out", str(out)]) == 0
        _, _, records = read_csv(out)
        assert records[0]["y0"] == "nan" and float(records[1]["y0"]) == detect_sign_change(KernelSpec(6)).y0


class TestEpiCommands:
    def test_epi_check(self, tmp_path):
        out = tmp_path / "epi.json"
        code = cli.main(
            ["epi-check", "--random", "25", "--seed", "0", "--lmin", "6",
             "--lmax", "30", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 25
        assert all(r["holds"] for r in payload["records"])
        assert payload["config"]["parameters"]["random"] == 25

    def test_epi_check_with_corpus(self, tmp_path):
        out = tmp_path / "epi.json"
        code = cli.main(
            ["epi-check", "--random", "5", "--corpus", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 25

    def test_epi_check_reads_instance_corpus(self, tmp_path):
        from lebesgue_lab.epi import random_instance, save_instances

        corpus = tmp_path / "corpus.json"
        save_instances(str(corpus), [random_instance(s) for s in range(3)])
        out = tmp_path / "epi.json"
        code = cli.main(["epi-check", "--random", "2", "--instances", str(corpus), "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["records"]) == 5

    def test_epi_check_csv_stays_rectangular(self, tmp_path):
        out = tmp_path / "epi.csv"
        assert cli.main(["epi-check", "--random", "4", "--out", str(out)]) == 0
        _, header, records = read_csv(out)
        assert all(len(r) == len(header) for r in records)
        assert all(";" in r["l_indices"] or r["l_indices"].isdigit() for r in records)

    def test_epi_check_corpus_alone(self, tmp_path):
        out = tmp_path / "epi.json"
        assert cli.main(["epi-check", "--random", "0", "--corpus", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["records"]) == 20

    def test_epi_check_decides_beyond_the_old_exponent_cap(self, tmp_path):
        # the exponent at l = 6 is 500001, above the quadrature's MAX_EXPONENT
        from lebesgue_lab.epi import make_instance, save_instances
        from lebesgue_lab.pmf import uniform

        corpus = tmp_path / "wide.json"
        save_instances(str(corpus), [make_instance([uniform(6), uniform(3000), uniform(3000)])])
        out = tmp_path / "epi.json"
        assert cli.main(["epi-check", "--random", "0", "--instances", str(corpus), "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text())["records"]
        assert record["holds"] is True and record["case"] == "holder_split"

    def test_rogozin(self, tmp_path):
        out = tmp_path / "rog.json"
        assert cli.main(["rogozin", "--random", "20", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert all(r["ok"] for r in payload["records"])
        assert all(r["gap"] >= 0.0 for r in payload["records"])


class TestBallCommand:
    def test_values(self, tmp_path):
        out = tmp_path / "ball.json"
        assert cli.main(["ball", "--p", "2,4", "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert records[0]["value"] == pytest.approx(1.0, abs=1e-9)
        assert records[1]["value"] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_bound_is_the_checked_bound(self, tmp_path):
        # at this p, (2/p) ** 0.5 and sqrt(2/p) differ in the last bit: the
        # report's bound is the one ball_integral checked the value against
        p = 9.869423122754817
        assert (2.0 / p) ** 0.5 != math.sqrt(2.0 / p)
        out = tmp_path / "ball.json"
        assert cli.main(["ball", "--p", repr(p), "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text())["records"]
        assert record["bound"] == sinc_power_bound(p) == math.sqrt(2.0 / p)
        assert record["margin"] == record["bound"] - record["value"] > 0.0

    def test_exponent_near_one(self, tmp_path):
        out = tmp_path / "ball.json"
        assert cli.main(["ball", "--p", "1.01", "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text())["records"]
        assert math.isfinite(record["value"]) and record["value"] > 1.0

    def test_norm_asymptotic_near_one(self, tmp_path):
        out = tmp_path / "norm.json"
        assert cli.main(["lebesgue", "--l", "10", "--p", "1.01", "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text())["records"]
        assert math.isfinite(record["asymptotic"])


def _grid(record):
    return lambda: [(record(KernelSpec(l), p),) for l in (6, 7) for p in (2.0, 3.0)]


def _rogozin_records():
    instances = [random_instance(seed) for seed in range(5, 25)]
    return [(inst, check_rogozin(inst)) for inst in instances]


def _epi_records():
    return [(r,) for r in check_epis([*(random_instance(s) for s in range(3, 33)), *handcrafted_corpus()])]


def _sign_change_records():
    return [(detect_sign_change(KernelSpec(l)),) for l in (6, 7, 8)]


# command -> (its arguments, the library objects each report row reads its columns from)
RECORD_CASES = {
    "lebesgue": (["--l", "6,7", "--p", "2,3"], _grid(lp_norm)),
    "certify": (["--l", "6,7", "--p", "2,3"], _grid(certify_bound)),
    "asymptotic": (["--l", "6,7", "--p", "2,3"], _grid(lp_norm)),
    "sweep": (["--l", "6,7", "--p", "2,3"], _grid(lp_norm)),
    "np-verify": (["--l", "6..8"], _sign_change_records),
    "epi-check": (["--random", "30", "--seed", "3", "--corpus"], _epi_records),
    "rogozin": (["--random", "20", "--seed", "5"], _rogozin_records),
}


class TestGridCommands:
    @pytest.mark.parametrize(
        "command, header",
        [
            ("lebesgue", ["l", "p", "value", "bound", "asymptotic", "error_estimate", "converged"]),
            ("asymptotic", ["l", "p", "value", "asymptotic", "ratio"]),
            ("sweep", ["l", "p", "value", "bound", "margin", "asymptotic", "ratio",
                       "error_estimate"]),
        ],
    )
    def test_header(self, tmp_path, command, header):
        out = tmp_path / "grid.csv"
        assert cli.main([command, "--l", "6,7", "--p", "2,3", "--out", str(out)]) == 0
        _, got, records = read_csv(out)
        assert got == header
        assert [(r["l"], r["p"]) for r in records] == [
            ("6", "2.0"), ("6", "3.0"), ("7", "2.0"), ("7", "3.0")
        ]

    def test_asymptotic_ratio_matches_library(self, tmp_path):
        from lebesgue_lab.quadrature import lp_norm

        out = tmp_path / "asym.json"
        assert cli.main(["asymptotic", "--l", "50,100", "--p", "1,4", "--out", str(out)]) == 0
        empty_package_caches()  # the library integrates afresh, not from the command's store
        for r in json.loads(out.read_text())["records"]:
            c = lp_norm(KernelSpec(r["l"]), r["p"])
            assert (r["value"], r["asymptotic"], r["ratio"]) == (c.value, c.asymptotic, c.ratio)

    @pytest.mark.parametrize("command", RECORD_CASES)
    def test_columns_are_the_record_fields(self, tmp_path, command):
        argv, library_records = RECORD_CASES[command]
        out = tmp_path / "report.json"
        assert cli.main([command, *argv, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["records"]
        empty_package_caches()
        expected = library_records()
        assert len(rows) == len(expected) > 0
        for row, sources in zip(rows, expected):
            for column, value in row.items():
                owner = next((s for s in sources if hasattr(s, column)), None)
                assert owner is not None, f"column {column!r} is no record field"
                want = getattr(owner, column)
                assert value == (list(want) if isinstance(want, tuple) else want), column

    @pytest.mark.parametrize("command", ["lebesgue", "certify", "asymptotic", "sweep"])
    def test_one_kernel_power_call_per_length(self, tmp_path, monkeypatch, command):
        # every length of the grid goes into one engine call, (l, p) in report order
        calls = []

        def counted(pairs, *args, **kwargs):
            calls.append(list(pairs))
            return integrate_kernel_power_grid(pairs, *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_kernel_power_grid", counted)
        out = tmp_path / "grid.json"
        assert cli.main([command, "--l", "6,7,64", "--p", "2,3,8", "--out", str(out)]) == 0
        assert calls == [[(l, p) for l in (6, 7, 64) for p in (2.0, 3.0, 8.0)]]

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    def test_grid_is_one_command_per_length(self, tmp_path, command):
        # the lengths share their split rounds; every record is the one-length command's
        def records(lengths, p):
            empty_package_caches()  # no call reads another's stored integrals
            out = tmp_path / f"{command}-{lengths}.json"
            assert cli.main([command, "--l", lengths, "--p", p, "--out", str(out)]) == 0
            return json.loads(out.read_text())["records"]

        p = "2,3,128"
        assert records("6,7,9000", p) == [r for l in ("6", "7", "9000") for r in records(l, p)]

    def test_commands_after_certify_read_its_integrals(self, tmp_path, monkeypatch):
        grid = ["--l", "6..13", "--p", "2,2.5,8,128"]
        loose = [*grid, "--abs-tol", "1e-9"]

        def records(command, argv):
            out = tmp_path / f"{command}.json"
            assert cli.main([command, *argv, "--out", str(out)]) == 0
            return hexed_rows(json.loads(out.read_text())["records"])

        def cold(command, argv):
            empty_package_caches()
            return records(command, argv)

        fresh = {command: cold(command, grid) for command in ("sweep", "lebesgue", "asymptotic")}
        fresh_loose = cold("sweep", loose)
        empty_package_caches()
        records("certify", grid)
        calls, values = [], quadrature.kernel_values
        monkeypatch.setattr(quadrature, "kernel_values", lambda l, x: calls.append(l) or values(l, x))
        # the same grid: every integral is read from certify's store
        for command, rows in fresh.items():
            assert records(command, grid) == rows, command
        assert calls == []
        # one new exponent: only p = 3 is integrated, once per length
        integrated, kept = [], quadrature._kept_arches
        monkeypatch.setattr(quadrature, "_kept_arches", lambda l, p, tol: integrated.append((l, p)) or kept(l, p, tol))
        records("sweep", ["--l", "6..13", "--p", "2,3,8"])
        assert integrated == [(l, 3.0) for l in range(6, 14)]
        # other tolerances: no stored default-tolerance integral is read
        asked, store = [], quadrature._integrals
        monkeypatch.setattr(quadrature, "_integrals", lambda l, cfg: asked.append(cfg.abs_tol) or store(l, cfg))
        integrated.clear()
        assert records("sweep", loose) == fresh_loose
        assert set(asked) == {1e-9} and len(integrated) == 32

    def test_sweep_and_lebesgue_agree(self, tmp_path):
        values = []
        for command in ("sweep", "lebesgue"):
            empty_package_caches()  # the second command integrates afresh
            out = tmp_path / f"{command}.json"
            assert cli.main([command, "--l", "2,6,64", "--p", "1,2,70", "--out", str(out)]) == 0
            values.append([(r["l"], r["p"], r["value"])
                           for r in json.loads(out.read_text())["records"]])
        assert values[0] == values[1]


class TestPlotData:
    def test_levels_for_even_length(self, tmp_path):
        out = tmp_path / "plot8.csv"
        assert cli.main(["plot-data", "--l", "8", "--resolution", "2000",
                         "--out", str(out)]) == 0
        text = out.read_text()
        y_last = 2.0 / (9.0 * math.pi)
        assert f"# level:y_last={y_last!r}" in text
        assert text.count("# level:y_") == 4  # y_1, y_2, y_3 and the floor

    def test_levels_for_odd_length(self, tmp_path):
        out = tmp_path / "plot9.csv"
        assert cli.main(["plot-data", "--l", "9", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("# level:y_") == 5  # y_1..y_4 and the floor

    def test_rejects_low_resolution(self, tmp_path):
        out = tmp_path / "plot.csv"
        code = cli.main(["plot-data", "--l", "8", "--resolution", "99",
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_emit_plot_data_direct(self, tmp_path):
        with pytest.raises(PreconditionError):
            cli.emit_plot_data(KernelSpec(8), 10, str(tmp_path / "x.csv"))


# every subcommand's settable values (argparse dests), exactly those its handler reads
_GRID_DESTS = {"l", "p", "out", "format", "abs_tol", "rel_tol"}
_BATCH_DESTS = {"random", "seed", "lmin", "lmax", "n_min", "n_max", "out", "format"}
COMMAND_DESTS = {
    **dict.fromkeys(("lebesgue", "certify", "asymptotic", "sweep"), _GRID_DESTS),
    "ball": {"p", "out", "format", "abs_tol", "rel_tol"},
    "np-verify": {"l", "out", "format"},
    "epi-check": _BATCH_DESTS | {"corpus", "instances"},
    "rogozin": _BATCH_DESTS,
    "suite": {"out", "format"},
    "plot-data": {"l", "resolution", "out"},
}

# (command with its required flags, a flag its handler never read)
DROPPED_FLAGS = [
    *((cmd, "--l 6 --p 2", "--seed") for cmd in ("lebesgue", "certify", "asymptotic", "sweep")),
    ("ball", "--p 2", "--seed"),
    *(("np-verify", "--l 6", flag) for flag in ("--seed", "--abs-tol", "--rel-tol")),
    *((cmd, "--random 1", flag) for cmd in ("epi-check", "rogozin") for flag in ("--abs-tol", "--rel-tol")),
    ("epi-check", "--random 1", "--no-chain"),
    *(("suite", "", flag) for flag in ("--seed", "--abs-tol", "--rel-tol")),
    *(("plot-data", "--l 8", flag) for flag in ("--format", "--seed", "--abs-tol", "--rel-tol")),
]


class TestFlagSets:
    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {a.dest for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()
        }
        assert got == COMMAND_DESTS
        assert sum(map(len, got.values())) == 55

    @pytest.mark.parametrize(
        "command, required, flag", DROPPED_FLAGS, ids=[f"{c}{f}" for c, _, f in DROPPED_FLAGS]
    )
    def test_dropped_flag_is_usage_error(self, tmp_path, command, required, flag):
        value = "json" if flag == "--format" else "1"
        argv = [command, *required.split(), flag, value, "--out", str(tmp_path / "x.json")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "x.json").exists()

    def test_parameters_list_only_read_settings(self, tmp_path):
        out = tmp_path / "np.json"
        assert cli.main(["np-verify", "--l", "6..7", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["parameters"] == {"l": "6..7"}


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2

    def test_bad_range_is_usage_error(self, tmp_path):
        code = cli.main(["certify", "--l", "10..6", "--p", "2",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("option", ["--abs-tol", "--rel-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, capsys, option, value):
        out = tmp_path / "x.json"
        code = cli.main(["certify", "--l", "6", "--p", "2", option, value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {option[2:].replace('-', '_')} must be")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["certify", "--l", "10"], ["sweep", "--l", "10"], ["ball"]],
        ids=["certify", "sweep", "ball"],
    )
    def test_infinite_exponent_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        assert cli.main([*argv, "--p", "inf", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the library's DomainError, not a bare "math domain error" from math.sqrt
        assert err.startswith("error: ") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["certify", "--l", "6", "--p", "1e8"], ["ball", "--p", "1e7"]],
        ids=["certify", "ball"],
    )
    def test_exponent_above_the_cap_is_usage_error(self, tmp_path, capsys, argv):
        # both reported a collapsed value (6.4e-151, 5.3e-18) and exited 0
        out = tmp_path / "x.json"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_first_failing_exponent_decides_the_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert cli.main(["certify", "--l", "6", "--p", "2,1.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: certification requires p >= 2, got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "lengths, message",
        [("6,1", "kernel length must be >= 2, got 1"), ("6,5", "certification requires l >= 6, got 5")],
        ids=["below-two", "below-six"],
    )
    def test_first_failing_length_decides_the_error(self, tmp_path, capsys, lengths, message):
        # the grid is one engine call, but a later length fails as in a loop over lengths
        out = tmp_path / "x.json"
        assert cli.main(["certify", "--l", lengths, "--p", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["epi-check", "rogozin"])
    def test_generation_failure_is_reported(self, tmp_path, capsys, command):
        # seed 0 at l in 100..300 exhausts random_pmf's max-adjustment rounds
        out = tmp_path / "x.json"
        code = cli.main([command, "--random", "1", "--seed", "0", "--lmin", "100",
                         "--lmax", "300", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: max adjustment did not settle")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["epi-check", "rogozin"])
    def test_negative_count_is_usage_error(self, tmp_path, capsys, command):
        # an empty batch would pass vacuously
        out = tmp_path / "x.json"
        assert cli.main([command, "--random", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --random must be >= 0, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["epi-check", "rogozin"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        # numpy's bare "expected non-negative integer" named no option
        out = tmp_path / "x.json"
        assert cli.main([command, "--random", "2", "--seed", "-2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -2\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["epi-check", "rogozin"])
    @pytest.mark.parametrize(
        "bounds, named",
        [(["--n-min", "3", "--n-max", "2"], "variable count range (3, 2)"),
         (["--lmin", "40", "--lmax", "10"], "index range (40, 10)")],
        ids=["variables", "indices"],
    )
    def test_empty_range_is_usage_error(self, tmp_path, capsys, command, bounds, named):
        out = tmp_path / "x.json"
        assert cli.main([command, *bounds, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named} is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "corpus", ['[[{"offset": 0}]]', "[5]"], ids=["no-weights", "not-an-instance"]
    )
    def test_malformed_corpus_is_usage_error(self, tmp_path, capsys, corpus):
        path = tmp_path / "f.json"
        path.write_text(corpus)
        out = tmp_path / "x.json"
        code = cli.main(["epi-check", "--random", "0", "--instances", str(path),
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: corpus file")
        assert not out.exists()

    def test_missing_corpus_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = cli.main(["epi-check", "--random", "0", "--instances", str(tmp_path / "nope.json"),
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: corpus file")
        assert not out.exists()

    def test_generation_failure_surfaces_at_its_seed(self, tmp_path, capsys):
        # at l in 100..300 seed 4 can be generated and seed 5 cannot
        out = tmp_path / "x.json"
        assert cli.main(["rogozin", "--random", "1", "--seed", "4", "--lmin", "100", "--lmax", "300",
                         "--out", str(out)]) == 0
        code = cli.main(["rogozin", "--random", "2", "--seed", "4", "--lmin", "100", "--lmax", "300",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: max adjustment did not settle in 50 rounds\n"

    def test_convolution_overflow_is_reported(self, tmp_path, capsys, monkeypatch):
        from lebesgue_lab import pmf

        monkeypatch.setattr(pmf, "SUPPORT_CAP", 8)
        out = tmp_path / "x.json"
        assert cli.main(["rogozin", "--random", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: convolution support")
        assert not out.exists()


class TestSuiteCommand:
    def test_exit_codes_follow_results(self, tmp_path, monkeypatch):
        from lebesgue_lab import acceptance
        from lebesgue_lab.acceptance import AcceptanceResult

        def passing():
            return AcceptanceResult("stub pass", True, "ok", 0.0)

        def failing():
            return AcceptanceResult("stub fail", False, "broken", 0.0)

        monkeypatch.setattr(acceptance, "CRITERIA", (passing,))
        assert cli.main(["suite", "--out", str(tmp_path / "ok.json")]) == 0
        records = json.loads((tmp_path / "ok.json").read_text())["records"]
        assert records == [{"name": "stub pass", "ok": True, "detail": "ok", "seconds": 0.0}]

        monkeypatch.setattr(acceptance, "CRITERIA", (passing, failing))
        assert cli.main(["suite", "--out", str(tmp_path / "bad.json")]) == 1

    @pytest.fixture
    def one_criterion(self, monkeypatch):
        from lebesgue_lab import acceptance
        from lebesgue_lab.acceptance import AcceptanceResult

        def stub():
            return AcceptanceResult("stub", True, "ok", 0.0)

        monkeypatch.setattr(acceptance, "CRITERIA", (stub,))

    def test_csv_quotes_a_detail_with_commas(self, tmp_path, monkeypatch):
        from lebesgue_lab import acceptance
        from lebesgue_lab.acceptance import AcceptanceResult

        detail = "|I(2)-1|=1.1e-16, |I(4)-2/3|=2.2e-16, min strict margin 0.05"
        monkeypatch.setattr(acceptance, "CRITERIA", (lambda: AcceptanceResult("sinc", True, detail, 0.5),))
        out = tmp_path / "s.csv"
        assert cli.main(["suite", "--out", str(out)]) == 0
        _, header, records = read_csv(out)
        assert header == ["name", "ok", "detail", "seconds"]
        assert records == [{"name": "sinc", "ok": "True", "detail": detail, "seconds": "0.5"}]
        assert out.read_text().splitlines()[-2:] == ["name,ok,detail,seconds", f'sinc,True,"{detail}",0.5']

    def test_progress_counts_the_criteria(self, one_criterion):
        from lebesgue_lab import acceptance

        lines = []
        acceptance.run_all(printer=lines.append)
        assert lines == ["[ 1/1] PASS  stub: ok (0.0s)"]

    def test_report_goes_to_stdout_and_progress_to_stderr(self, capsys, one_criterion):
        assert cli.main(["suite", "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "# command=suite"
        assert lines[-2:] == ["name,ok,detail,seconds", "stub,True,ok,0.0"]
        assert err == "[ 1/1] PASS  stub: ok (0.0s)\n"


class TestReportHygiene:
    def test_json_embeds_full_config(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["lebesgue", "--l", "6..6", "--p", "2", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert set(config) >= {"command", "parameters", "output_path", "format", "seed"}

    def test_csv_parses_with_stdlib_reader(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main(["lebesgue", "--l", "6..8", "--p", "2", "--out", str(out)]) == 0
        with open(out) as fh:
            data = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        assert data[0][0] == "l" and len(data) == 4


# the CLI smoke run of the CI workflow
SMOKE_ARGVS = [
    "certify --l 6..64 --p 2,2.5,8,128 --out c.json",
    "sweep --l 6..64 --p 2,2.5,8,128 --out s64.json",
    "sweep --l 6,300,1000 --p 2,3,128 --out s.csv",
    "np-verify --l 6..48 --out np.json",
    "np-verify --l 2..7 --out np-short.json",
    "ball --p 1.01,2,4,130 --out b.json",
    "asymptotic --l 6,300 --p 1,2,70,128 --out a.json",
    "epi-check --random 40 --seed 0 --corpus --out e.json",
    "rogozin --random 40 --seed 0 --out r.json",
    "sweep --l 6,64 --p 1.01,1.5,2.5 --out s1.json",
    "epi-check --random 20 --seed 7 --lmin 31 --lmax 60 --out e2.json",
    "plot-data --l 8 --out p8.csv",
    "lebesgue --l 6,7,64 --p 1,2,3 --out l.json",
    "suite --out suite.json",
]
PARSE_ARGVS = [
    *(argv.split() for argv in SMOKE_ARGVS),
    *([command, *required.split(), flag, "json" if flag == "--format" else "1"]
      for command, required, flag in DROPPED_FLAGS),
    ["certify", "--l", "6"],  # --p is missing
    ["certify", "--l", "6", "--p", "2", "extra"],  # the top-level parser reports the extra word
    *([command, "-h"] for command in COMMAND_DESTS),
    ["--help"],
    [],
    ["no-such-command", "--l", "6"],
]


def parse_outcome(parse, argv, capsys):
    """(the Namespace, or the SystemExit code; stdout; stderr) of one parse."""
    try:
        outcome = parse(argv)
    except SystemExit as exc:
        outcome = exc.code
    return (outcome, *capsys.readouterr())


class TestCommandParser:
    @pytest.mark.parametrize("argv", PARSE_ARGVS, ids=[" ".join(argv) or "no-command" for argv in PARSE_ARGVS])
    def test_main_parses_as_the_full_parser(self, argv, capsys, monkeypatch):
        parsed = []
        monkeypatch.setattr(cli, "run", lambda args: parsed.append(args) or 0)

        def through_main(argv):
            assert cli.main(argv) == 0
            return parsed[0]

        assert parse_outcome(through_main, argv, capsys) == parse_outcome(cli.build_parser().parse_args, argv, capsys)

    def test_a_call_builds_the_parser_of_its_command_alone(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser

        def spy(commands=None):
            built.append(build(commands))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        for _ in range(2):  # and builds it again on the next call
            assert cli.main(["np-verify", "--l", "6", "--out", str(tmp_path / "np.json")]) == 0
        assert len(built) == 2 and built[0] is not built[1]
        for parser in built:
            (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            assert list(sub.choices) == ["np-verify"]


def hexed(obj):
    """obj with every float replaced by its float.hex, so that equality is bit equality."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, list):
        return [hexed(v) for v in obj]
    if isinstance(obj, dict):
        return {k: hexed(v) for k, v in obj.items()}
    return obj


def indented_report(config, columns, records):
    """A JSON report as written with ``indent=2`` and non-finite values as null."""
    rows = [{k: r[k] if isinstance(r, dict) else getattr(r, k) for k in columns} for r in records]
    rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in r.items()} for r in rows]
    return json.dumps({"config": config.as_dict(), "records": rows}, indent=2, allow_nan=False) + "\n"


# every command that writes JSON, with arguments
JSON_REPORTS = [
    "lebesgue --l 6,7,64 --p 1,2,3",
    "certify --l 6..9 --p 2,2.5,8,128",
    "asymptotic --l 6,300 --p 1,2,70,128",
    "sweep --l 6..64 --p 2,2.5,8,128",
    "ball --p 1.01,2,4,130",
    "np-verify --l 2",  # y0 is NaN: null
    "np-verify --l 2..7",
    "epi-check --random 10 --seed 0 --corpus",
    "epi-check --random 0",  # no records
    "rogozin --random 10 --seed 0",
    "suite",
]


class TestCompactReports:
    @pytest.mark.parametrize("argv", JSON_REPORTS)
    def test_report_is_the_indented_report_on_one_line(self, argv, tmp_path, monkeypatch):
        from lebesgue_lab import acceptance
        from lebesgue_lab.acceptance import AcceptanceResult

        # suite runs one criterion whose name and detail hold commas and quotes
        detail = 'margin 0.05, "strict", min |I(2)-1|=1.1e-16'
        monkeypatch.setattr(acceptance, "CRITERIA", (lambda: AcceptanceResult("sinc, \"p\"", True, detail, 0.25),))
        oracle = []
        write = cli.write_report

        def spy(config, columns, records):
            records = list(records)
            oracle.append(indented_report(config, columns, records))
            write(config, columns, records)

        monkeypatch.setattr(cli, "write_report", spy)
        out = tmp_path / "report.json"
        assert cli.main([*argv.split(), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert hexed(json.loads(text)) == hexed(json.loads(oracle[0]))
        assert len(text) < len(oracle[0])
        if argv.startswith("np-verify --l 2"):
            assert json.loads(text)["records"][0]["y0"] is None
        if argv == "suite":
            assert json.loads(text)["records"][0]["detail"] == detail


def must_not_run(config, args):
    raise AssertionError("the command ran")


def stub_report(config, args):
    cli.write_report(config, ("x",), [{"x": 1.0}])
    return 0


class TestUnwritableReport:
    def test_missing_output_directory_is_usage_error_before_any_work(self, tmp_path, capsys, monkeypatch):
        help_text, _, groups = cli._COMMANDS["certify"]
        monkeypatch.setitem(cli._COMMANDS, "certify", (help_text, must_not_run, groups))
        out = tmp_path / "missing" / "x.json"
        assert cli.main(["certify", "--l", "6", "--p", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: output directory of {str(out)!r} does not exist\n"
        assert list(tmp_path.rglob("*")) == []

    def test_failed_write_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the directory exists, but the report path is a directory, which os.replace cannot overwrite
        help_text, _, groups = cli._COMMANDS["certify"]
        monkeypatch.setitem(cli._COMMANDS, "certify", (help_text, stub_report, groups))
        out = tmp_path / "taken"
        out.mkdir()
        assert cli.main(["certify", "--l", "6", "--p", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.rglob("*")) == [out]
