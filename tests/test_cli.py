import csv
import io
import json

import numpy as np
import pytest

import curvlab
from curvlab import cli, criteria, decomp, euclid, holonomy, tensor
from curvlab.cli import main, parse_range
from curvlab.euclid import GeometryError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    @pytest.mark.parametrize("raw, expected", [(None, 1), ("3", 3), ("4", 4), ("64", 4)])
    def test_thread_count_capped_at_cpus(self, monkeypatch, raw, expected):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        if raw is None:
            monkeypatch.delenv("CURVLAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("CURVLAB_THREADS", raw)
        assert cli._thread_count() == expected

    @pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", ""])
    def test_bad_thread_count_is_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("CURVLAB_THREADS", raw)
        with pytest.raises(GeometryError):
            cli._thread_count()
        code, out, err = run(capsys, "verify", "--suite", "tripod", "--trials", "5")
        assert code == 2
        assert out == ""
        assert "CURVLAB_THREADS" in err

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

    @pytest.mark.parametrize("a, b", [
        ((0, 17, 0), (1, 1, 0)),  # tag bits spilled into the seed bits
        ((0, 2, 65536), (0, 3, 0)),  # trial bits spilled into the tag bits
    ])
    def test_trial_streams_are_disjoint(self, a, b):
        draw_a = cli._trial_rng(*a).standard_normal(8)
        draw_b = cli._trial_rng(*b).standard_normal(8)
        assert not np.array_equal(draw_a, draw_b)


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

    def test_grassmann_single_pair(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "grassmann", "--p", "2", "--q", "3"
        )
        assert code == 0
        report = json.loads(out)
        assert all("grassmann[2,3]" in r["name"] for r in report["records"])


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "hp", "--m", "2")
        _, out2, _ = run(capsys, "verify", "--suite", "hp", "--m", "2")
        assert out1 == out2

    def test_thread_count_does_not_change_bytes(self, capsys, monkeypatch):
        _, base, _ = run(
            capsys, "verify", "--suite", "weyl-norm", "--n", "4", "--trials", "12"
        )
        monkeypatch.setenv("CURVLAB_THREADS", "4")
        _, threaded, _ = run(
            capsys, "verify", "--suite", "weyl-norm", "--n", "4", "--trials", "12"
        )
        assert base == threaded

    @pytest.mark.parametrize("suite", ["bochner-norm", "decomp"])
    def test_trial_threads_fill_cold_caches_alike(self, capsys, monkeypatch, suite):
        # every per-structure and per-algebra constant is first built inside
        # the trial threads, where euclid._shared keeps the one entry stored
        import sys

        def cold():
            for fn in (
                decomp._kaehler_conjugation, decomp.structure_model, decomp._bianchi_kernel_basis,
                tensor._form_rows, holonomy._algebra, criteria._shift_gain,
                tensor._kn_metric, tensor._project_flat,
            ):
                fn.cache_clear()

        argv = ("verify", "--suite", suite, "--trials", "12")
        cold()
        _, base, _ = run(capsys, *argv)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("CURVLAB_THREADS", "4")
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                cold()
                _, threaded, _ = run(capsys, *argv)
                assert threaded == base
        finally:
            sys.setswitchinterval(old)

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
        tensor.save_tensor(decomp.sphere(6), path)
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        payload = json.loads(out)["records"][0]["actual"]
        assert payload["part_norms_sq"]["weyl"] <= 1e-20
        assert payload["criterion"]["satisfied"] is True

    def test_hp_pure_model_flag(self, capsys, tmp_path):
        path = tmp_path / "hp2.json"
        tensor.save_tensor(decomp.hp(2), path)
        code, out, _ = run(capsys, "decompose", str(path), "--holonomy", "qk")
        assert code == 0
        payload = json.loads(out)["records"][0]["actual"]
        assert payload["pure_model"] is True

    def test_wolf_coefficient(self, capsys, tmp_path):
        path = tmp_path / "w3.json"
        tensor.save_tensor(decomp.wolf(3), path)
        code, out, _ = run(capsys, "decompose", str(path))
        payload = json.loads(out)["records"][0]["actual"]
        assert payload["coefficients"]["scalar"] == pytest.approx(0.25)
        assert payload["pure_model"] is False

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert "invalid tensor file" in err

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

    def test_input_above_byte_cap_is_usage_error(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "big.json"
        with open(path, "wb") as fh:
            fh.truncate(cli.MAX_INPUT_BYTES + 1)  # sparse: nothing is written

        def no_load(*args, **kwargs):
            raise AssertionError("file read")

        monkeypatch.setattr(tensor, "load_tensor", no_load)
        code, out, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert out == ""
        assert f"above the cap of {cli.MAX_INPUT_BYTES}" in err

    def test_holonomy_structure_mismatch(self, capsys, tmp_path):
        path = tmp_path / "s5.json"
        tensor.save_tensor(decomp.sphere(5), path)
        code, _, err = run(capsys, "decompose", str(path), "--holonomy", "qk")
        assert code == 2


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

    @pytest.mark.parametrize("argv", [("--holonomy", "u", "--m", "1"), ("--n", "2")],
                             ids=["u1", "so2"])
    def test_one_dimensional_algebra_is_usage_error(self, capsys, monkeypatch, argv):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(decomp, "_bianchi_kernel_basis", no_sampling)
        monkeypatch.setattr(decomp, "random_algebra_curvature", no_sampling)
        code, out, err = run(capsys, "sample", *argv, "--trials", "3")
        assert code == 2
        assert out == ""
        assert "dimension 1" in err

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


@pytest.mark.parametrize("condition, values_per_row, values_per_algebra", [
    ("2-nonnegative", 1, 1),  # the sample's shift sum; the model's once
    ("none", 0, 0),
])
def test_one_eigensolve_per_sampled_operator(capsys, monkeypatch, condition, values_per_row,
                                             values_per_algebra):
    # every row solves its own (shifted) operator once, with vectors, for
    # curvature_term_self; the shift reads eigenvalues only
    criteria._shift_gain.cache_clear()
    calls = _count_eigensolves(monkeypatch)
    argv = ("sample", "--holonomy", "u", "--m", "3", "--trials", "10", "--condition", condition)
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls["full"]) == 10
    assert len(calls["values"]) == 10 * values_per_row + values_per_algebra
    for kind in calls:
        calls[kind].clear()
    code, again, _ = run(capsys, *argv)
    assert len(calls["full"]) == 10
    assert len(calls["values"]) == 10 * values_per_row
    assert again == first


@pytest.mark.parametrize("holonomy_args", [("so", "--n", "6"), ("u", "--m", "3"), ("sp", "--m", "2")],
                         ids=["so6", "u3", "sp2"])
@pytest.mark.parametrize("condition", ["2-nonnegative", "none"])
def test_sample_rows_do_not_depend_on_thread_count(capsys, monkeypatch, holonomy_args, condition):
    argv = ("sample", "--holonomy", *holonomy_args, "--trials", "12", "--condition", condition)
    _, base, _ = run(capsys, *argv)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("CURVLAB_THREADS", "2")
    _, threaded, _ = run(capsys, *argv)
    assert threaded == base


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
    # %.17g for python and numpy floats, lowercase bools, str(int), "nan";
    # the python-float shortcut must give the bytes the _plain walk gives
    row = {
        "float": 0.1, "np_float": np.float64(0.1), "tiny": 1e-300, "negzero": -0.0,
        "bool": True, "np_bool": np.bool_(False), "int": 3, "np_int": np.int64(-7),
        "nan": float("nan"), "np_nan": np.float64("nan"), "none": None,
    }
    report = cli.Report(command="sample", config={})
    report.records.append(cli.CheckRecord(name="sample[0]", inputs={}, expected=None,
                                          actual=row, tolerance=None, passed=True))
    assert cli._sample_csv(report) == (
        "float,np_float,tiny,negzero,bool,np_bool,int,np_int,nan,np_nan,none\n"
        "0.10000000000000001,0.10000000000000001,1e-300,-0,"
        "true,false,3,-7,nan,nan,\n"
    )
