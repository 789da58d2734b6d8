import concurrent.futures
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from conftest import pin_note, save_tensor

import curvlab
from curvlab import cli, criteria, decomp, euclid, holonomy, tensor
from curvlab.cli import main, parse_range
from curvlab.euclid import GeometryError

# the OpenBLAS cores the verdicts are checked on, the byte pins' core first,
# each with the name the bundled library reports once OPENBLAS_CORETYPE
# selects it (an unknown name falls back to the detected core unreported; a
# build without its older cores runs Katmai's kernels for Prescott)
BLAS_CORES = {"SkylakeX": "SkylakeX", "Haswell": "Haswell", "Sandybridge": "Sandybridge", "Nehalem": "Nehalem",
              "Prescott": "Katmai"}
# sha256 of the `verify --seed 42` report: any change to a verify byte shows
# here, and moves these on purpose or not at all
VERIFY_SHA256 = {
    "json": "b98d3e826d5ee78a96745f52c107a9f50fdc23e9ddd1639bfffc14a5051e0549",
    "csv": "10baa4fde9054054fd953a894b0e27c5f63a59268342ab7afc0459a1bbdf5202",
}
# sha256 of `sample --condition 2-nonnegative --seed 42 --format csv`: the
# sampler's bytes, pinned the same way
SAMPLE_SHA256 = {
    ("so", "--n", "8"): "c156811d202bbf5db859da5f07152f5697f8859e5ff2a3bec369273701b47754",
    ("u", "--m", "5"): "76e5f9a973718085f01583beb1816327611c5c25b1b941580ea6a8361f3515a5",
    ("sp", "--m", "3"): "09f7da8721a11dd22f82aaee2fd69ce0d8ad6f77f8e09949710c9bc0485928d1",
}
# the same runs with --format json: the records the csv is read from
SAMPLE_JSON_SHA256 = {
    ("so", "--n", "8"): "e1809eed2f8f40138c80c714ff5a4e5fd29809fa4ba584af5221837b56b59089",
    ("u", "--m", "5"): "40a5e40e14713b6347f443bc5e32b7bdf6768d77f3470dfaef4e07ee486c46b5",
    ("sp", "--m", "3"): "5092b21ea4151b4c367e91912c09ca52d21042a51713bd0b4a7895a74ebcb153",
}

EXPECTED = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _clear_shared_caches():
    """Empty every cache of a per-structure, per-algebra or per-dimension
    constant that a trial builds on first use."""
    for fn in (
        decomp.structure_model, decomp._bianchi_kernel_basis,
        tensor._form_rows, holonomy._algebra, criteria._shift_gain,
        tensor._kn_metric, tensor._project_flat,
    ):
        fn.cache_clear()


@pytest.fixture(scope="module")
def verify_csv(tmp_path_factory) -> tuple[int, str]:
    """(exit code, report) of `verify --seed 42 --format csv`, run once for
    the tests that read it."""
    path = tmp_path_factory.mktemp("verify") / "report.csv"
    code = main(["verify", "--seed", "42", "--format", "csv", "--out", str(path)])
    return code, path.read_text()


class TestParsing:
    def test_parse_range(self):
        assert parse_range("3") == (3, 3)
        assert parse_range("2..5") == (2, 5)

    def test_parse_range_rejects(self):
        with pytest.raises(GeometryError):
            parse_range("5..2")
        with pytest.raises(GeometryError):
            parse_range("x..2")

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nosuch")
        assert code == 2
        assert "unknown suite" in err

    def test_bad_trials(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "tripod", "--trials", "0")
        assert code == 2

    def test_count_floors_live_only_in_the_config_check(self, capsys):
        # --p, --q and --trials are at least 1 on every command, a rule of
        # _config_from_args; the table holds only the leasts above it
        for argv in (("verify", "--suite", "tripod"), ("sample", "--holonomy", "u", "--m", "3")):
            assert run(capsys, *argv, "--trials", "0") == (2, "", "error: --trials must be at least 1\n")
        floors = {least for reads in cli.FLAGS.values() for entry in reads.values()
                  for flag, least in entry.items() if flag in ("p", "q", "trials")}
        assert floors == {None}

    def test_each_command_takes_only_the_flags_it_reads(self):
        subparsers = next(a for a in cli._build_parser()._actions if a.dest == "command")
        flags = {
            name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, p in subparsers.choices.items()
        }
        assert flags == {
            "verify": {"--seed", "--m", "--n", "--p", "--q", "--trials", "--suite", "--format", "--out"},
            "spectrum": {"--model", "--m", "--n", "--p", "--q", "--format", "--out"},
            "decompose": {"--format", "--out"},
            "sample": {"--seed", "--m", "--n", "--trials", "--holonomy", "--algebra", "--condition",
                       "--format", "--out"},
        }

    @pytest.mark.parametrize("argv", [
        ("decompose", "t.json", "--seed", "1"),
        ("decompose", "t.json", "--trials", "3"),
        ("decompose", "t.json", "--m", "2"),
        ("spectrum", "--model", "hp", "--m", "2", "--seed", "1"),
        ("spectrum", "--model", "hp", "--m", "2", "--trials", "3"),
        ("sample", "--p", "2"),
        ("sample", "--q", "2"),
        ("verify", "--tol", "0.5"),
        ("spectrum", "--model", "hp", "--m", "2", "--tol", "0.5"),
        ("decompose", "t.json", "--tol", "0.5"),
        ("sample", "--tol", "0.5"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_the_command_does_not_read_is_usage_error(self, capsys, monkeypatch, argv):
        def no_work(cfg):
            raise AssertionError("command started")

        for name in ("cmd_verify", "cmd_spectrum", "cmd_decompose", "cmd_sample"):
            monkeypatch.setattr(cli, name, no_work)
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        out = capsys.readouterr()
        assert exit_.value.code == 2
        assert out.out == ""
        assert f"unrecognized arguments: {argv[-2]}" in out.err

    @pytest.mark.parametrize("argv, flag", [
        (("verify", "--suite", "hp", "--n", "7", "--trials", "9"), "--n"),
        (("verify", "--suite", "hp", "--trials", "9"), "--trials"),
        (("verify", "--suite", "wolf", "--p", "2"), "--p"),
        (("verify", "--suite", "grassmann", "--p", "2", "--q", "3", "--m", "2"), "--m"),
        (("verify", "--suite", "grassmann", "--trials", "5"), "--trials"),
        (("verify", "--suite", "weyl-norm", "--m", "2"), "--m"),
        (("verify", "--suite", "bochner-norm", "--n", "5"), "--n"),
        (("verify", "--suite", "qk-ratio", "--q", "2"), "--q"),
        (("verify", "--suite", "tripod", "--m", "2"), "--m"),
        (("verify", "--suite", "decomp", "--n", "6"), "--n"),
    ], ids=["hp-n", "hp-trials", "wolf-p", "grassmann-m", "grassmann-trials", "weyl-norm-m", "bochner-norm-n",
            "qk-ratio-q", "tripod-m", "decomp-n"])
    def test_flag_the_suite_does_not_read_is_usage_error(self, capsys, monkeypatch, argv, flag):
        # a suite run by name reads only its own size and trial flags
        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, lambda cfg: pytest.fail("suite started"))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: verify --suite {argv[2]} does not read {flag}\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "grassmann", "--p", "2"),
        ("verify", "--suite", "grassmann", "--q", "3"),
        ("verify", "--q", "3"),
    ], ids=["p", "q", "all-q"])
    def test_grassmann_takes_both_sizes_or_neither(self, capsys, monkeypatch, argv):
        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, lambda cfg: pytest.fail("suite started"))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: verify --suite grassmann needs both --p and --q, or neither\n"

    @pytest.mark.parametrize("argv, error", [
        (("--suite", "bochner-norm", "--m", "1"), "bochner-norm needs --m of at least 2, got 1"),
        (("--suite", "hp", "--m", "1..3"), "hp needs --m of at least 2, got 1"),
        (("--suite", "wolf", "--m", "1"), "wolf needs --m of at least 2, got 1"),
        (("--suite", "qk-ratio", "--m", "0..2"), "qk-ratio needs --m of at least 2, got 0"),
        (("--suite", "weyl-norm", "--n", "3..5"), "weyl-norm needs --n of at least 4, got 3"),
        (("--suite", "grassmann", "--p", "1", "--q", "1"), "grassmann needs --p*q of at least 2, got 1"),
        (("--m", "2..6", "--n", "3"), "weyl-norm needs --n of at least 4, got 3"),
        (("--p", "1", "--q", "1"), "grassmann needs --p*q of at least 2, got 1"),
        (("--m", "1"), "hp needs --m of at least 2, got 1"),
    ], ids=["bochner-norm-m", "hp-m", "wolf-m", "qk-ratio-m", "weyl-norm-n", "grassmann-pq",
            "all-n", "all-pq", "all-m"])
    def test_size_below_a_suites_least_is_usage_error(self, capsys, monkeypatch, argv, error):
        # every selected suite's bounds hold before the first suite runs,
        # for --suite all too
        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, lambda cfg: pytest.fail("suite started"))
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: verify --suite {error}\n"

    @pytest.mark.parametrize("argv", [
        ("--suite", "hp", "--m", "2"), ("--suite", "wolf", "--m", "2"),
        ("--suite", "grassmann", "--p", "1", "--q", "2"), ("--suite", "grassmann", "--p", "2", "--q", "1"),
        ("--suite", "weyl-norm", "--n", "4", "--trials", "2"),
        ("--suite", "bochner-norm", "--m", "2", "--trials", "2"),
        ("--suite", "qk-ratio", "--m", "2", "--trials", "2"),
    ], ids=["hp", "wolf", "grassmann-1-2", "grassmann-2-1", "weyl-norm", "bochner-norm", "qk-ratio"])
    def test_each_suite_runs_at_its_least_sizes(self, capsys, argv):
        # the only red records are the refuted published constants (the
        # standing findings of acceptance criteria 3 and 4)
        code, out, _ = run(capsys, "verify", *argv)
        records = json.loads(out)["records"]
        failed = {r["name"].split(".")[-1] for r in records if not r["passed"]}
        assert records
        assert failed <= {"hat_candidate_proof", "hat_candidate_statement", "hat_adjudication",
                          "matches_published_form"}
        assert code == (1 if failed else 0)

    def test_every_suite_takes_a_seed(self, capsys):
        # --seed has a default, so any suite accepts it, read or not
        code, out, _ = run(capsys, "verify", "--suite", "hp", "--m", "2", "--seed", "7")
        assert code == 0
        assert json.loads(out)["config"] == {"suite": "hp", "m": [2, 2], "seed": 7}

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--model", "hp", "--m", "2..4"),
        ("spectrum", "--model", "sphere", "--n", "4..5"),
        ("sample", "--holonomy", "so", "--n", "5..8"),
        ("sample", "--holonomy", "u", "--m", "2..3"),
    ], ids=["spectrum-m", "spectrum-n", "sample-n", "sample-m"])
    def test_range_on_a_one_value_command_is_usage_error(self, capsys, monkeypatch, argv):
        def no_work(cfg):
            raise AssertionError("command started")

        for name in ("cmd_spectrum", "cmd_sample"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {argv[0]} takes one value of {argv[-2]}, got the range {argv[-1]!r}\n"

    @pytest.mark.parametrize("argv, flag", [
        (("sample", "--holonomy", "so", "--m", "5"), "--m"),
        (("sample", "--holonomy", "u", "--n", "8"), "--n"),
        (("sample", "--holonomy", "sp", "--m", "2", "--n", "8"), "--n"),
        (("spectrum", "--model", "hp", "--m", "2", "--n", "9"), "--n"),
        (("spectrum", "--model", "wolf", "--m", "2", "--p", "2"), "--p"),
        (("spectrum", "--model", "const-hol", "--m", "2", "--q", "2"), "--q"),
        (("spectrum", "--model", "sphere", "--n", "4", "--m", "2"), "--m"),
        (("spectrum", "--model", "grassmann", "--p", "2", "--q", "3", "--n", "6"), "--n"),
    ], ids=["sample-so-m", "sample-u-n", "sample-sp-n", "spectrum-hp-n", "spectrum-wolf-p",
            "spectrum-const-hol-q", "spectrum-sphere-m", "spectrum-grassmann-n"])
    def test_size_flag_the_target_does_not_read_is_usage_error(self, capsys, monkeypatch, argv, flag):
        # each holonomy or model reads its own sizes: sample so --n, u and sp
        # --m; spectrum hp, wolf and const-hol --m, sphere --n, grassmann
        # --p --q.  Any other size flag stops the command before any work.
        def no_work(*args):
            raise AssertionError("work started")

        for name in ("hp", "wolf", "const_hol", "sphere", "grassmannian"):
            monkeypatch.setattr(decomp, name, no_work)
        monkeypatch.setattr(holonomy, "by_name", no_work)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {' '.join(argv[:3])} does not read {flag}\n"

    @pytest.mark.parametrize("argv, error", [
        (("spectrum", "--model", "hp", "--m", "1"), "spectrum --model hp needs --m of at least 2, got 1"),
        (("spectrum", "--model", "grassmann", "--p", "1", "--q", "1"),
         "spectrum --model grassmann needs --p*q of at least 2, got 1"),
        (("spectrum", "--model", "grassmann", "--p", "2"), "spectrum --model grassmann needs --p and --q"),
        (("spectrum", "--model", "sphere"), "spectrum --model sphere needs --n"),
    ], ids=["hp-m", "grassmann-pq", "grassmann-p", "sphere"])
    def test_spectrum_size_below_the_models_least_is_usage_error(self, capsys, monkeypatch, argv, error):
        # a model's least sizes hold, and its sizes are given, before any
        # model or algebra is built; sample's least sizes are checked in
        # TestSample::test_one_dimensional_algebra_is_usage_error
        def no_work(*args):
            raise AssertionError("work started")

        for name in ("hp", "wolf", "const_hol", "sphere", "grassmannian"):
            monkeypatch.setattr(decomp, name, no_work)
        monkeypatch.setattr(holonomy, "by_name", no_work)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {error}\n"

    def test_model_name_with_underscore_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["spectrum", "--model", "const_hol", "--m", "2"])
        out = capsys.readouterr()
        assert exit_.value.code == 2
        assert out.out == ""
        assert "invalid choice: 'const_hol'" in out.err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--model", "hp", "--m"),
        ("sample", "--holonomy", "so", "--trials", "3", "--n"),
    ])
    def test_degenerate_range_is_one_value(self, capsys, argv):
        _, single, _ = run(capsys, *argv, "4")
        code, degenerate, _ = run(capsys, *argv, "4..4")
        assert code == 0
        assert degenerate == single

    @pytest.mark.parametrize("command", [
        ("verify", "--suite", "tripod", "--trials", "5"),
        ("sample", "--holonomy", "so", "--n", "4", "--trials", "3"),
    ])
    def test_negative_seed_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("flag, cap, argv", [
        ("--n", cli.MAX_N, ("sample", "--holonomy", "so", "--n", str(cli.MAX_N + 1))),
        ("--n", cli.MAX_N, ("verify", "--suite", "weyl-norm", "--n", f"4..{cli.MAX_N + 1}")),
        ("--m", cli.MAX_M, ("sample", "--holonomy", "qk", "--m", str(cli.MAX_M + 1))),
        ("--m", cli.MAX_M, ("verify", "--suite", "wolf", "--m", f"2..{cli.MAX_M + 1}")),
        ("--m", cli.MAX_M, ("spectrum", "--model", "hp", "--m", str(cli.MAX_M + 1))),
    ])
    def test_size_above_cap_is_usage_error(self, capsys, monkeypatch, flag, cap, argv):
        def no_work(cfg):
            raise AssertionError("command started")

        for name in ("cmd_verify", "cmd_spectrum", "cmd_sample"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} {cap + 1} is above the size cap {cap}\n"

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--suite", "grassmann", "--p", "0", "--q", "3"), "--p must be at least 1"),
        (("spectrum", "--model", "grassmann", "--p", "2", "--q", "-1"), "--q must be at least 1"),
        (("verify", "--suite", "grassmann", "--p", "5", "--q", "5"),
         f"--p 5 --q 5 is dimension 25, above the size cap {4 * cli.MAX_M}"),
    ], ids=["p_below_1", "q_below_1", "pq_above_cap"])
    def test_grassmannian_size_is_capped(self, capsys, monkeypatch, argv, message):
        def no_work(*args):
            raise AssertionError("work started")

        for name in ("cmd_verify", "cmd_spectrum"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(decomp, "grassmannian", no_work)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [
        ("verify", "--suite", "tripod"),
        ("sample", "--holonomy", "so", "--n", "4"),
    ], ids=["verify", "sample"])
    def test_trials_above_cap_is_usage_error(self, capsys, monkeypatch, command):
        def no_work(cfg):
            raise AssertionError("command started")

        for name in ("cmd_verify", "cmd_sample"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run(capsys, *command, "--trials", str(cli.MAX_TRIALS + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: --trials {cli.MAX_TRIALS + 1} is above the cap {cli.MAX_TRIALS}\n"
        cli._config_from_args(cli._build_parser().parse_args([*command, "--trials", str(cli.MAX_TRIALS)]))

    def test_default_grassmannians_still_run(self, capsys):
        # the default combinations reach p * q = 16; the cap admits 4 * MAX_M
        parser = cli._build_parser()
        cli._config_from_args(parser.parse_args(["verify", "--p", "4", "--q", str(cli.MAX_M)]))
        code, out, _ = run(capsys, "verify", "--suite", "grassmann")
        assert code == 0
        names = {r["name"].split(".")[0] for r in json.loads(out)["records"]}
        assert names == {f"grassmann[{p},{q}]" for p in (2, 3, 4) for q in (2, 3, 4) if p * q <= 16}

    def test_caps_admit_the_sizes_in_use(self):
        # so(8) and u(5) in the sample sweep, sp(5)+sp(1) in the wolf suite
        parser = cli._build_parser()
        for argv in (["sample", "--n", "8"], ["sample", "--m", "5"],
                     ["verify", "--m", f"2..{cli.MAX_M}"], ["verify", "--n", f"4..{cli.MAX_N}"]):
            cli._config_from_args(parser.parse_args(argv))


class TestVerify:
    def test_hp_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "hp", "--m", "2")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0
        names = [r["name"] for r in report["records"]]
        assert "hp[2].spectrum" in names

    def test_wolf_adjudication_fails_both_candidates(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "wolf", "--m", "2")
        assert code == 1
        report = json.loads(out)
        by_name = {r["name"]: r for r in report["records"]}
        assert not by_name["wolf[2].hat_candidate_proof"]["passed"]
        assert not by_name["wolf[2].hat_candidate_statement"]["passed"]
        adj = by_name["wolf[2].hat_adjudication"]
        assert not adj["passed"]
        assert adj["actual"]["measured"] == pytest.approx(288.0)
        assert by_name["wolf[2].hat_resolved_form"]["passed"]

    def test_qk_ratio_reports_measured_constant(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "qk-ratio", "--m", "2", "--trials", "5"
        )
        assert code == 1
        report = json.loads(out)
        by_name = {r["name"]: r for r in report["records"]}
        pub = by_name["qk-ratio[2].matches_published_form"]
        assert pub["actual"]["matched"] == 0
        assert pub["actual"]["mean_ratio"] == pytest.approx(16.0)
        assert by_name["qk-ratio[2].measured_constant"]["passed"]
        assert by_name["qk-ratio[2].constancy_rel_spread"]["passed"]

    def test_tripod_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "tripod", "--trials", "50",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["passed"] == "true" for r in rows)
        assert {"name", "expected", "actual", "tolerance", "inputs"} <= set(rows[0])

    def test_2nonneg_floor_scales_with_the_cube_of_the_largest_entry(self, monkeypatch):
        # lambda just below -1e-12 (1 + max|x|^3) on every triple; a floor of
        # -1e-12 (1 + max|x|)^3, up to 4 times lower, would pass every trial
        def between(a, b, c):
            big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
            return -1e-12 * ((1.0 + big**3) + (1.0 + big) ** 3) / 2.0

        monkeypatch.setattr(criteria, "lambda_tripod", between)
        argv = ["verify", "--suite", "tripod", "--trials", "40"]
        cfg = cli._config_from_args(cli._build_parser().parse_args(argv))
        by_name = {r.name: r for r in cli.suite_tripod(cfg)}
        assert by_name["tripod.2nonneg_violations"].actual == 40

    def test_grassmann_with_an_empty_eigenvalue(self, capsys):
        # G(1, 4) is the round 4-sphere: no kernel and no eigenvalue 4, so
        # the expected table holds no zero-count entries
        assert cli._merge_mults([(0.0, 0), (1.0, 6), (4.0, 0)]) == [[1.0, 6]]
        code, out, _ = run(capsys, "verify", "--suite", "grassmann", "--p", "1", "--q", "4")
        assert code == 0
        spectrum = json.loads(out)["records"][0]
        assert spectrum["name"] == "grassmann[1,4].spectrum"
        assert spectrum["expected"] == spectrum["actual"] == [[1, 6]]

    def test_grassmann_single_pair(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "grassmann", "--p", "2", "--q", "3"
        )
        assert code == 0
        report = json.loads(out)
        assert all("grassmann[2,3]" in r["name"] for r in report["records"])


def _recorded_streams(monkeypatch, capsys, argv) -> list[tuple]:
    """The key of every Generator a command builds through
    numpy.random.default_rng, in order."""
    keys = []

    def recording(seed=None):
        keys.append(tuple(seed))
        return default_rng(seed)

    default_rng = np.random.default_rng
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        run(capsys, *argv)
    return keys


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "hp", "--m", "2")
        _, out2, _ = run(capsys, "verify", "--suite", "hp", "--m", "2")
        assert out1 == out2

    @pytest.mark.parametrize("suite", ["bochner-norm", "decomp"])
    def test_trial_threads_fill_cold_caches_alike(self, capsys, suite):
        # every per-structure and per-algebra constant is first built inside
        # the first trial; a run that builds them and a run that reads them
        # give the same bytes
        argv = ("verify", "--suite", suite, "--trials", "12")
        _clear_shared_caches()
        _, cold, _ = run(capsys, *argv)
        _, warm, _ = run(capsys, *argv)
        assert warm == cold

    def test_seed_changes_sample_rows(self, capsys):
        _, a, _ = run(capsys, "sample", "--holonomy", "so", "--n", "4", "--trials", "3")
        _, b, _ = run(
            capsys, "sample", "--holonomy", "so", "--n", "4", "--trials", "3",
            "--seed", "7",
        )
        assert a != b

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        run(capsys, "verify", "--suite", "tripod", "--trials", "20",
            "--out", str(path))
        _, out, _ = run(capsys, "verify", "--suite", "tripod", "--trials", "20")
        assert path.read_text() == out

    def test_stream_keys_are_distinct(self, capsys, monkeypatch):
        # every suite instance of a default verify and `sample` on each
        # holonomy kind: no two draw from one stream, not even through
        # SeedSequence equating a key with the key plus a trailing zero
        keys = _recorded_streams(monkeypatch, capsys, ["verify", "--seed", "42"])
        for argv in (("so", "--n", "4"), ("u", "--m", "2"), ("sp", "--m", "2")):
            keys += _recorded_streams(monkeypatch, capsys, ["sample", "--holonomy", *argv, "--seed", "42"])
        assert len(keys) == 18
        assert len(set(keys)) == len(keys)
        states = {tuple(np.random.SeedSequence(list(key)).generate_state(4)) for key in keys}
        assert len(states) == len(keys)

    def test_one_generator_per_suite_instance(self, capsys, monkeypatch):
        # trials are consecutive draws of their instance's stream, not a
        # Generator each
        ids = {v: k for k, v in cli.STREAM_IDS.items()}
        keys = _recorded_streams(monkeypatch, capsys, ["verify", "--seed", "1"])
        built = {}
        for _, stream_id, _ in keys:
            built[ids[stream_id]] = built.get(ids[stream_id], 0) + 1
        assert built == {"weyl-norm": 5, "bochner-norm": 3, "qk-ratio": 3, "tripod": 1,
                         "decomp[generic]": 1, "decomp[kaehler]": 1, "decomp[qk]": 1}
        keys = _recorded_streams(monkeypatch, capsys, ["sample", "--holonomy", "u", "--m", "3", "--trials", "250"])
        assert keys == [(42, cli.STREAM_IDS["sample[kaehler]"], 3)]

    def test_reports_do_not_depend_on_the_blas_thread_count(self):
        # a threaded product splits its sums differently; main holds the
        # pool at one thread, so 1 and 2 threads give the same bytes
        src = pathlib.Path(curvlab.__file__).parents[1]
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
            proc = subprocess.run([sys.executable, "-B", "-m", "curvlab.cli", "verify", "--seed", "42"],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 1, proc.stderr[-500:]  # criteria 3 and 4 are red by design
            assert b"note:" not in proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert hashlib.sha256(outs[0]).hexdigest() == VERIFY_SHA256["json"], pin_note()

    def test_verify_csv_bytes_are_pinned(self, verify_csv):
        code, out = verify_csv
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256["csv"], pin_note()

    @pytest.mark.parametrize("holonomy_args", list(SAMPLE_SHA256), ids=lambda a: a[0] + a[2])
    def test_sample_csv_bytes_are_pinned(self, capsys, holonomy_args):
        code, out, _ = run(capsys, "sample", "--holonomy", *holonomy_args, "--condition", "2-nonnegative",
                           "--seed", "42", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_SHA256[holonomy_args], pin_note()

    @pytest.mark.parametrize("holonomy_args", list(SAMPLE_JSON_SHA256), ids=lambda a: a[0] + a[2])
    def test_sample_json_bytes_are_pinned(self, capsys, holonomy_args):
        code, out, _ = run(capsys, "sample", "--holonomy", *holonomy_args, "--condition", "2-nonnegative",
                           "--seed", "42", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_JSON_SHA256[holonomy_args], pin_note()

    def test_blas_pool_is_held_at_one_thread_and_restored(self, capsys, monkeypatch):
        lib = euclid._openblas()
        assert lib is not None, "numpy bundles no scipy-openblas here"
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        seen = []

        def suite(cfg):
            seen.append(get())
            return []

        monkeypatch.setitem(cli.SUITES, "hp", suite)
        before = get()
        put(2)
        try:
            code, _, err = run(capsys, "verify", "--suite", "hp")
            assert (code, seen, get(), err.startswith("note:")) == (0, [1], 2, False)
        finally:
            put(before)

    def test_without_the_bundled_blas_the_contract_is_not_claimed(self, capsys, monkeypatch):
        monkeypatch.setattr(euclid, "_openblas", lambda: None)
        code, out, err = run(capsys, "verify", "--suite", "tripod", "--trials", "5")
        assert code == 0
        assert json.loads(out)["records"]
        assert err.startswith("note: numpy's OpenBLAS thread count cannot be held")


    def test_openblas_core_reads_the_library_numpy_runs(self):
        # euclid._openblas opens the library numpy has loaded, so the core it
        # names is the one OPENBLAS_CORETYPE selects for numpy's products
        path = os.pathsep.join([str(pathlib.Path(curvlab.__file__).parents[1]), str(pathlib.Path(__file__).parent)])
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-B", "-c", "import conftest; print(conftest.openblas_core())"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "Haswell\n"), proc.stderr[-500:]

    def test_verdicts_hold_on_every_blas_core(self):
        # verify --seed 42 under each OpenBLAS core, two processes at a time:
        # the same records, verdicts and non-float fields as under the pin's
        # core, every number within RTOL (1 + |that core's value|)
        path = os.pathsep.join([str(pathlib.Path(curvlab.__file__).parents[1]), str(pathlib.Path(__file__).parent)])
        code = ("import sys, conftest\nfrom curvlab import cli\nsys.stderr.write(conftest.openblas_core() + '\\n')\n"
                "sys.exit(cli.main(['verify', '--seed', '42']))")

        def verify_under(core):
            env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": path}
            return subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=120)

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            procs = dict(zip(BLAS_CORES, pool.map(verify_under, BLAS_CORES)))
        runs = {}
        for core, proc in procs.items():
            ran = proc.returncode in (0, 1) and proc.stderr.split("\n", 1)[0] == BLAS_CORES[core]
            assert ran, f"verify did not run under OpenBLAS core {core}: exit {proc.returncode}, {proc.stderr[-300:]!r}"
            runs[core] = (proc.returncode, json.loads(proc.stdout)["records"])
        cores = list(BLAS_CORES)
        base_code, base = runs[cores[0]]

        def drift(ref, got, at):
            if isinstance(ref, (int, float)) and not isinstance(ref, bool):
                same_kind = isinstance(got, (int, float)) and not isinstance(got, bool)
                return [] if same_kind and abs(got - ref) <= cli.RTOL * (1.0 + abs(ref)) else [f"{at}: {got!r} vs {ref!r}"]
            if isinstance(ref, dict) and isinstance(got, dict) and list(ref) == list(got):
                return [d for k in ref for d in drift(ref[k], got[k], f"{at}.{k}")]
            if isinstance(ref, list) and isinstance(got, list) and len(ref) == len(got):
                return [d for i, (r, g) in enumerate(zip(ref, got)) for d in drift(r, g, f"{at}[{i}]")]
            return [] if type(ref) is type(got) and ref == got else [f"{at}: {got!r} vs {ref!r}"]

        for core, (exit_code, records) in runs.items():
            assert exit_code == base_code, core
            assert [(r["name"], r["passed"]) for r in records] == [(r["name"], r["passed"]) for r in base], core
            problems = [d for r, b in zip(records, base) for d in drift(b, r, r["name"])]
            assert not problems, f"{core} against {cores[0]}: " + "; ".join(problems[:5])


def test_verify_records_mirror_the_benchmark_verdicts(verify_csv):
    # the benchmark's verify pass checks each record's verdict against its
    # map in perfbench/expected.json, and counts a record the map lacks, an
    # entry the report lacks, and a changed verdict as failed operations
    verdicts = json.loads(EXPECTED.read_text())["verify-all"]["verdicts"]
    passed = {row["name"]: row["passed"] == "true" for row in csv.DictReader(io.StringIO(verify_csv[1]))}
    problems = [f"{name}: not in the verdict map" for name in passed if name not in verdicts]
    problems += [f"{name}: missing from the report" for name in verdicts if name not in passed]
    problems += [f"{name}: passed={passed[name]}, the map says {verdicts[name]}"
                 for name in passed if name in verdicts and passed[name] is not verdicts[name]]
    assert not problems, "the benchmark counts each of these as a failed operation: " + "; ".join(problems)


class TestSpectrum:
    def test_hp_example(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "hp", "--m", "2")
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["inputs"]["dim"] == 13
        mults = {round(v): c for v, c in rec["actual"]["multiplicities"]}
        assert mults == {4: 10, 8: 3}

    def test_grassmann_example(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "grassmann", "--p", "4", "--q", "3"
        )
        rec = json.loads(out)["records"][0]
        mults = {round(v): c for v, c in rec["actual"]["multiplicities"]}
        assert mults == {0: 57, 3: 6, 4: 3}

    def test_sphere_example(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "sphere", "--n", "5")
        rec = json.loads(out)["records"][0]
        assert rec["actual"]["multiplicities"] == [[pytest.approx(2.0), 10]]
        assert rec["inputs"]["domain"] == "full"

    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e8])
    def test_clusters_do_not_depend_on_scale(self, scale):
        # hp(2) on sp(2)+sp(1) has eigenvalues 4 (10 times) and 8 (3 times);
        # at 1e-7 they lie closer than an absolute 1e-6 gap, at 1e8 the
        # rounding within a cluster can exceed it
        rm = decomp.hp(2) * scale
        alg = holonomy.sp_sp1_algebra(rm.space)
        spec = holonomy.project(tensor.to_operator(rm), alg).spectrum()
        mults = spec.multiplicities(cli.GAP)
        assert [c for _, c in mults] == [10, 3]
        assert [v for v, _ in mults] == pytest.approx([4.0 * scale, 8.0 * scale], rel=1e-12)
        expected = cli._merge_mults([(4.0 * scale, 10), (8.0 * scale, 3)])
        assert [c for _, c in expected] == [10, 3]

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "spectrum", "--model", "hp")
        assert code == 2
        assert "--m" in err


class TestDecompose:
    def test_sphere_has_no_weyl(self, capsys, tmp_path):
        path = tmp_path / "s6.json"
        save_tensor(decomp.sphere(6), path)
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        payload = json.loads(out)["records"][0]["actual"]
        assert payload["part_norms_sq"]["weyl"] <= 1e-20
        assert payload["criterion"]["satisfied"] is True

    def test_hp_pure_model_flag(self, capsys, tmp_path):
        path = tmp_path / "hp2.json"
        save_tensor(decomp.hp(2), path)
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        payload = json.loads(out)["records"][0]["actual"]
        assert payload["pure_model"] is True

    def test_wolf_coefficient(self, capsys, tmp_path):
        path = tmp_path / "w3.json"
        save_tensor(decomp.wolf(3), path)
        code, out, _ = run(capsys, "decompose", str(path))
        payload = json.loads(out)["records"][0]["actual"]
        assert payload["coefficients"]["scalar"] == pytest.approx(0.25)
        assert payload["pure_model"] is False

    def test_generic_decompose_holds_no_structure_constants(self, capsys, tmp_path):
        # decompose builds so(20) but reads none of its (190, 190, 190)
        # structure constants, 55 MB; the rest of the run stays near 9 MB
        import tracemalloc

        path = tmp_path / "g20.json"
        save_tensor(tensor.random_curvature(euclid.generic(20), np.random.default_rng(20)), path)
        holonomy._algebra.cache_clear()  # the build is part of the run
        tracemalloc.start()
        try:
            code = main(["decompose", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 16e6, peak / 1e6

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert "invalid tensor file" in err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "nested_too_deep"])
    def test_unparsable_file_is_an_input_error(self, capsys, tmp_path, content):
        # a decode error and a parse that runs out of recursion are bad
        # input, reported with the path and exit 2, not a traceback
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert f"invalid tensor file {path}" in err and "Traceback" not in err

    def test_symmetry_violation_reports_residual(self, capsys, tmp_path):
        comp = np.zeros((4, 4, 4, 4))
        comp[0, 1, 0, 1] = 1.0
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(
            {"n": 4, "structure": "generic", "components": comp.ravel().tolist()}
        ))
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert "residual" in err

    def test_non_finite_component_is_usage_error(self, capsys, tmp_path):
        # json reads NaN; a tensor file holding one is refused before any
        # decomposition, not decomposed into NaN parts
        comp = decomp.sphere(4).components.copy()
        comp[0, 1, 0, 1] = comp[1, 0, 1, 0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"n": 4, "structure": "generic", "components": comp.ravel().tolist()}))
        code, out, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert out == ""
        assert "non-finite entry nan at (0, 1, 0, 1)" in err

    def test_input_above_byte_cap_is_usage_error(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "big.json"
        with open(path, "wb") as fh:
            fh.truncate(tensor.MAX_FILE_BYTES + 1)  # sparse: nothing is written

        def no_load(*args, **kwargs):
            raise AssertionError("file read")

        monkeypatch.setattr(json, "load", no_load)
        code, out, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert out == ""
        assert f"above the cap of {tensor.MAX_FILE_BYTES}" in err

    @pytest.mark.parametrize(
        "n,structure,components,message",
        [
            ("28", "generic", "[" + ",".join(["0"] * 28**4) + "]", "dimension 28 is above the size cap 24"),
            ("28", "generic", "[0]", "dimension 28 is above the size cap 24"),
            ("2000", "qk", "[0]", "dimension 2000 is above the size cap 24"),
            ("24", "qk", "[0]", f"expected {24**4} components, got 1"),
            ("2", "generic", "0", "components is a int, not a list"),
            ("2", "generic", '"' + "0" * 16 + '"', "components is a str, not a list"),
            ("Infinity", "generic", "[0]", "malformed tensor record"),
        ],
    )
    def test_input_size_is_checked_before_any_space(self, capsys, monkeypatch, tmp_path, n, structure, components, message):
        # the byte cap does not bound n: 1.2 MB of zeros at n = 28 would build
        # so(28), and a 50-byte file naming n = 2000 the structures of R^2000
        def no_space(*args):
            raise AssertionError("space built")

        monkeypatch.setattr(tensor, "standard_space", no_space)
        path = tmp_path / "sized.json"
        path.write_text(f'{{"n": {n}, "structure": "{structure}", "components": {components}}}')
        code, out, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("n", "4.5", "n is a float, not an integer"),
            ("n", "4.0", "n is a float, not an integer"),
            ("n", '"4"', "n is a str, not an integer"),
            ("n", "true", "n is a bool, not an integer"),
            ("component", '"0"', "component 0 is a str, not a number"),
            ("component", "false", "component 0 is a bool, not a number"),
            ("component", "null", "component 0 is a NoneType, not a number"),
            ("component", "1" + "0" * 400, "int too large to convert to float"),
        ],
    )
    def test_record_types_are_json_numbers(self, capsys, tmp_path, field, value, message):
        # a valid sphere file but for one field: n must be a JSON integer and
        # each component a JSON number, not text or a bool that converts to one
        comp = [json.dumps(x) for x in decomp.sphere(4).components.ravel().tolist()]
        n = "4"
        if field == "n":
            n = value
        else:
            comp[0] = value
        path = tmp_path / "typed.json"
        path.write_text(f'{{"n": {n}, "structure": "generic", "components": [{", ".join(comp)}]}}')
        code, out, err = run(capsys, "decompose", str(path))
        assert (code, out) == (2, "")
        assert f"malformed tensor record: {message}" in err

    @pytest.mark.parametrize("n,structure,block", [(5, "kaehler", 2), (6, "qk", 4)])
    def test_dimension_must_be_whole_blocks(self, capsys, tmp_path, n, structure, block):
        # the record passes its caps; the standard space of its tag refuses n
        path = tmp_path / "blocks.json"
        path.write_text(f'{{"n": {n}, "structure": "{structure}", "components": [{", ".join(["0"] * n**4)}]}}')
        code, out, err = run(capsys, "decompose", str(path))
        assert (code, out) == (2, "")
        assert f"error: {structure} structure needs dimension {block}m, got {n}\n" == err

    def test_holonomy_structure_mismatch(self, capsys, tmp_path):
        # the structure is the file's own; no flag names another
        path = tmp_path / "s5.json"
        save_tensor(decomp.sphere(5), path)
        for flag in ("--holonomy", "--algebra"):
            with pytest.raises(SystemExit) as exit_:
                main(["decompose", str(path), flag, "qk"])
            out = capsys.readouterr()
            assert exit_.value.code == 2
            assert out.out == ""
            assert f"unrecognized arguments: {flag} qk" in out.err

    def test_pure_model_is_the_hat_ratio_rule(self, capsys, tmp_path):
        # a model multiple of squared norm 1 (component convention) plus a
        # trace-free part of squared norm 2e-10: one rule calls it pure in
        # the decompose report and in hat_ratio_qk
        model = decomp.hp(2)
        alg = holonomy.by_name(model.space, "sp")
        rest = decomp.qk_decompose(decomp.random_algebra_curvature(alg, np.random.default_rng(0)))
        rest = rest.parts["hyperkaehler_part"]
        rm = model * (1.0 / np.sqrt(model.norm_sq())) + rest * np.sqrt(2e-10 / rest.norm_sq())
        path = tmp_path / "edge.json"
        save_tensor(rm, path)
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        pure = json.loads(out)["records"][0]["actual"]["pure_model"]
        assert pure is bool(criteria.hat_ratio_qk(tensor.load_tensor(path), alg).pure_multiple)
        assert pure is True


class TestSample:
    def test_csv_columns(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--holonomy", "so", "--n", "4", "--trials", "4"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert {"trial", "lambda_min_1", "curvature_term_self",
                "criterion_value"} <= set(rows[0])

    def test_qk_rows_have_constant_hat_ratio(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--algebra", "qk", "--m", "2", "--trials", "4"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        ratios = {float(r["hat_ratio"]) for r in rows}
        assert all(abs(v - 16.0) < 1e-9 for v in ratios)

    def test_two_nonnegative_filter(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--holonomy", "so", "--n", "4", "--trials", "6",
            "--condition", "2-nonnegative",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        for r in rows:
            assert float(r["curvature_term_self"]) >= -1e-9
            assert float(r["lambda_min_1"]) + float(r["lambda_min_2"]) >= -1e-9

    def test_unfiltered_so4_has_negative_terms(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--holonomy", "so", "--n", "4", "--trials", "20"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert any(float(r["curvature_term_self"]) < 0 for r in rows)

    @pytest.mark.parametrize("argv, error", [
        (("--holonomy", "u", "--m", "1"), "sample --holonomy u needs --m of at least 2, got 1"),
        (("--n", "2"), "sample --holonomy so needs --n of at least 3, got 2"),
    ], ids=["u1", "so2"])
    def test_one_dimensional_algebra_is_usage_error(self, capsys, monkeypatch, argv, error):
        # the rows read the two smallest eigenvalues: so(2) and u(1) have
        # one, and the least sizes reject them before any algebra is built
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(decomp, "_bianchi_kernel_basis", no_sampling)
        monkeypatch.setattr(decomp, "random_algebra_curvature", no_sampling)
        monkeypatch.setattr(holonomy, "by_name", no_sampling)
        code, out, err = run(capsys, "sample", *argv, "--trials", "3")
        assert (code, out) == (2, "")
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("tag, size, name", [
        ("weyl", ("--n", "4"), "so(4)"), ("Generic", ("--n", "4"), "so(4)"),
        ("bochner", ("--m", "2"), "u(2)"), ("kaehler", ("--m", "2"), "u(2)"),
        ("sp", ("--m", "2"), "sp(2)+sp(1)"), ("sp_sp1", ("--m", "2"), "sp(2)+sp(1)"),
    ])
    def test_holonomy_aliases(self, capsys, tag, size, name):
        code, out, _ = run(capsys, "sample", "--holonomy", tag, *size, "--trials", "2",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["records"][0]["inputs"] == {"algebra": name}

    def test_unknown_holonomy_tag(self, capsys):
        code, out, err = run(capsys, "sample", "--holonomy", "Octonion", "--trials", "2")
        assert code == 2
        assert out == ""
        assert err == "error: unknown holonomy tag 'Octonion'\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--holonomy", "u", "--m", "2", "--trials", "3",
            "--format", "json",
        )
        report = json.loads(out)
        assert report["summary"]["total"] == 3


def _count_eigensolves(monkeypatch) -> dict:
    """Count euclid.symmetric_eigen ("full") and euclid.symmetric_eigenvalues
    ("values") calls through every name curvlab binds them by."""
    calls = {"full": [], "values": []}
    originals = {"full": euclid.symmetric_eigen, "values": euclid.symmetric_eigenvalues}

    def counter(kind):
        original = originals[kind]

        def counted(*args, **kwargs):
            calls[kind].append(1)
            return original(*args, **kwargs)

        return counted

    counted = {id(fn): counter(kind) for kind, fn in originals.items()}
    for mod in (curvlab, euclid, tensor, holonomy, decomp, criteria, cli):
        for name, value in list(vars(mod).items()):
            if id(value) in counted:
                monkeypatch.setattr(mod, name, counted[id(value)])
    return calls


@pytest.mark.parametrize("condition, values_per_stack, values_per_algebra", [
    ("2-nonnegative", 1, 1),  # the stack's shift sums; the model's once
    ("none", 0, 0),
])
def test_one_eigensolve_per_sampled_operator(capsys, monkeypatch, condition, values_per_stack,
                                             values_per_algebra):
    # every stack of rows solves its (shifted) operators once, with vectors,
    # for the eigenvalue columns, the criterion and curvature_term_self; the
    # shift reads eigenvalues only.  Four rows more than a stack of u(4)
    # holds are two stacks, one full and one ragged
    criteria._shift_gain.cache_clear()
    calls = _count_eigensolves(monkeypatch)
    per = cli._sample_chunk(euclid.kaehler(4))
    rows = per + 4
    stacks = -(-rows // per)
    assert stacks == 2
    argv = ("sample", "--holonomy", "u", "--m", "4", "--trials", str(rows), "--condition", condition)
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls["full"]) == stacks
    assert len(calls["values"]) == stacks * values_per_stack + values_per_algebra
    assert len(calls["full"]) + len(calls["values"]) < rows
    for kind in calls:
        calls[kind].clear()
    code, again, _ = run(capsys, *argv)
    assert len(calls["full"]) == stacks
    assert len(calls["values"]) == stacks * values_per_stack
    assert again == first


@pytest.mark.parametrize("holonomy_args", [("so", "--n", "6"), ("u", "--m", "3"), ("sp", "--m", "2")],
                         ids=["so6", "u3", "sp2"])
@pytest.mark.parametrize("condition", ["2-nonnegative", "none"])
def test_sample_rows_do_not_depend_on_thread_count(capsys, holonomy_args, condition):
    # the first row builds the algebra's kernel and shift gain; rows that
    # build them and rows that read them are the same bytes
    argv = ("sample", "--holonomy", *holonomy_args, "--trials", "12", "--condition", condition)
    _clear_shared_caches()
    _, cold, _ = run(capsys, *argv)
    _, warm, _ = run(capsys, *argv)
    assert warm == cold


def test_parser_is_built_once_and_reused(capsys):
    sample = ("sample", "--holonomy", "u", "--m", "2", "--trials", "4",
              "--condition", "2-nonnegative")
    code, first, _ = run(capsys, *sample)
    assert code == 0
    code, _, _ = run(capsys, "verify", "--suite", "tripod", "--trials", "10")
    assert code == 0
    code, last, _ = run(capsys, *sample)
    assert code == 0
    assert last == first
    assert cli._build_parser() is cli._build_parser()


def test_csv_cells_render_as_before():
    # %.17g for floats (infinities, subnormals and large integral values
    # among them), lowercase bools, str(int) at any size, "nan", None empty,
    # a string with a comma quoted, and a numpy float as the python float
    row = {"float": 0.1, "tiny": 1e-300, "negzero": -0.0, "bool": True, "int": 3,
           "nan": float("nan"), "none": None, "inf": float("inf"), "neginf": float("-inf"),
           "subnormal": 5e-324, "small": 1e-05, "large": 1e16, "bigint": 2**70,
           "text": "a,b", "npfloat": np.float64(0.1)}
    report = cli.Report(command="sample", config={})
    report.records.append(cli.CheckRecord(name="sample[0]", inputs={}, expected=None,
                                          actual=row, tolerance=None, passed=True))
    assert cli._sample_csv(report) == (
        "float,tiny,negzero,bool,int,nan,none,inf,neginf,subnormal,small,large,bigint,text,npfloat\n"
        "0.10000000000000001,1e-300,-0,true,3,nan,,inf,-inf,4.9406564584124654e-324,"
        '1.0000000000000001e-05,10000000000000000,1180591620717411303424,"a,b",0.10000000000000001\n'
    )
    # a record holds python values: a numpy scalar that is not a float is
    # not converted on the way out, it is refused
    for value in (np.bool_(False), np.int64(-7)):
        report.records[0].actual = {"cell": value}
        with pytest.raises(GeometryError, match="cannot serialize"):
            cli._sample_csv(report)
