import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import targetsel
from targetsel import harness, kernel
from targetsel.datastore import load_features, load_probabilities
from targetsel.harness import METHODS, ExperimentConfig, config_from_dict
from targetsel.errors import ConfigurationError, IndefiniteKernelError
from targetsel.kernel import METRICS, TRANSFORMS
from targetsel.objectives import ObjectiveSpec, evaluate
from targetsel.pipeline import RunManifest, build_report, main, run_select


DUPLICATE_ROW_POOL = "1.0,0.0\n0.6,0.8\n1.0,0.0\n"


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def pool_file(tmp_path):
    return write(tmp_path / "pool.csv", "1.0,0.0\n0.6,0.8\n0.0,1.0\n")


@pytest.fixture
def target_file(tmp_path):
    return write(tmp_path / "target.csv", "1.0,0.1\n")


@pytest.fixture
def probs_file(tmp_path):
    return write(tmp_path / "probs.csv", "0.5,0.5\n1.0,0.0\n0.8,0.2\n")


def run_python(args, **env):
    # The child process imports the same targetsel as these tests, installed or not.
    src = os.path.dirname(os.path.dirname(targetsel.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def run_cli(args, **env):
    return run_python(["-m", "targetsel", *args], **env)


def test_import_leaves_scipy_unloaded():
    # Only the log-det kinds and the entropy baselines use scipy, and they
    # import it when they run, so a process that needs none of them skips it.
    proc = run_python(["-c", "import sys, targetsel.pipeline; "
                             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSelectCommand:
    def test_gcmi_example_via_cli(self, tmp_path):
        pool = write(tmp_path / "p.csv", "1.0,0.0\n0.0,1.0\n")
        target = write(tmp_path / "t.csv", "1.0,0.0\n0.0,1.0\n")
        out = tmp_path / "report.json"
        code = main(["select", "--method", "gcmi", "--budget", "1",
                     "--unlabeled", pool, "--target", target,
                     "--transform", "none", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["selected"] == [0]
        # rows of the cross kernel are [1,0] and [0,1]; both sum to 1
        assert report["total_value"] == pytest.approx(2.0)

    def test_missing_target_is_config_error(self, pool_file, capsys):
        code = main(["select", "--method", "fl2mi", "--budget", "1",
                     "--unlabeled", pool_file])
        assert code == 3
        assert "configuration error" in capsys.readouterr().err

    def test_empty_target_is_config_error(self, pool_file, tmp_path, capsys):
        empty = write(tmp_path / "empty.csv", "")
        code = main(["select", "--method", "fl2mi", "--budget", "1",
                     "--unlabeled", pool_file, "--target", empty])
        assert code == 3

    def test_subnormal_row_gets_its_cosine(self, tmp_path, capsys):
        # the squared entries of row 0 underflow: it was called a zero-norm row (exit 2)
        pool = write(tmp_path / "p.csv", "5e-324,0\n0,1\n")
        code = main(["select", "--method", "fl", "--budget", "1", "--out", "-", "--unlabeled", pool])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["selected"] == [0]

    def test_malformed_input_is_input_error(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "1.0,2.0\n3.0\n")
        code = main(["select", "--method", "fl", "--budget", "1", "--unlabeled", bad])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    # random and us read only the pool's row count, but the whole pool is
    # parsed, and so validated, for them too
    @pytest.mark.parametrize("method", ["random", "us"])
    def test_malformed_pool_is_input_error_for_row_count_methods(self, tmp_path, probs_file,
                                                                 capsys, method):
        bad = write(tmp_path / "bad.csv", "1.0,2.0\n3.0\n0.0,1.0\n")
        code = main(["select", "--method", method, "--budget", "1", "--unlabeled", bad,
                     "--probs", probs_file])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_non_utf8_pool_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1.0,2.0\n\xff,1.0\n")
        code = main(["select", "--method", "fl", "--budget", "1", "--unlabeled", str(bad)])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_kernel_beyond_memory_is_input_error(self, pool_file, monkeypatch, capsys):
        monkeypatch.setattr(kernel, "MEMORY_LIMIT", 8 * 3 * 3 - 1)
        code = main(["select", "--method", "fl", "--budget", "1", "--unlabeled", pool_file])
        assert code == 2
        assert "a 3 x 3 kernel needs 72 bytes" in capsys.readouterr().err

    def test_dsum_reads_rows_of_a_kernel_beyond_memory(self, tmp_path, monkeypatch):
        # a 40-row pool whose 40 x 40 kernel is over the limit, but not 8 of its rows
        rows = np.random.default_rng(0).standard_normal((40, 2))
        pool = write(tmp_path / "pool40.csv", "\n".join(f"{a!r},{b!r}" for a, b in rows.tolist()))
        monkeypatch.setattr(kernel, "MEMORY_LIMIT", 8 * 40 * 40 - 1)
        out = tmp_path / "dsum.json"
        code = main(["select", "--method", "dsum", "--budget", "3", "--unlabeled", pool,
                     "--out", str(out)])
        assert code == 0 and len(json.loads(out.read_text())["selected"]) == 3
        assert main(["select", "--method", "fl", "--budget", "3", "--unlabeled", pool]) == 2

    def test_random_zero_budget(self, pool_file, tmp_path):
        out = tmp_path / "r.json"
        code = main(["select", "--method", "random", "--budget", "0",
                     "--unlabeled", pool_file, "--seed", "4", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["selected"] == [] and report["total_value"] == 0.0

    def test_us_requires_probs(self, pool_file):
        assert main(["select", "--method", "us", "--budget", "1",
                     "--unlabeled", pool_file]) == 3

    def test_us_runs(self, pool_file, probs_file, tmp_path):
        out = tmp_path / "us.json"
        code = main(["select", "--method", "us", "--budget", "1",
                     "--unlabeled", pool_file, "--probs", probs_file, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["selected"] == [0]

    def test_tus_runs(self, pool_file, probs_file, target_file, tmp_path):
        out = tmp_path / "tus.json"
        code = main(["select", "--method", "tus", "--budget", "2",
                     "--unlabeled", pool_file, "--probs", probs_file,
                     "--target", target_file, "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["selected"]) == 2

    @pytest.mark.parametrize("method", ["us", "tus"])
    @pytest.mark.parametrize("rows", [2, 5])
    def test_probs_rows_must_match_pool(self, pool_file, target_file, tmp_path, capsys,
                                        method, rows):
        probs = write(tmp_path / "probs.csv", "0.5,0.5\n" * rows)
        code = main(["select", "--method", method, "--budget", str(rows),
                     "--unlabeled", pool_file, "--probs", probs, "--target", target_file])
        assert code == 2
        assert f"probability file has {rows} rows but the pool has 3" in capsys.readouterr().err

    # Every method clamps a budget above the pool, through the harness and the
    # CLI alike, and flags the result truncated.
    @pytest.mark.parametrize("method", ["random", "us", "tus", "badge", "fl2mi"])
    def test_budget_above_pool_is_clamped(self, pool_file, target_file, probs_file, tmp_path,
                                          method):
        result = harness.select_indices(
            method, ExperimentConfig(budget=5, target_set_size=1), load_features(pool_file),
            load_features(target_file), load_probabilities(probs_file), 0)
        assert sorted(result.selected) == [0, 1, 2] and result.truncated
        out = tmp_path / "over.json"
        assert main(["select", "--method", method, "--budget", "5", "--unlabeled", pool_file,
                     "--target", target_file, "--probs", probs_file, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["selected"] == result.selected and report["truncated"] is True

    def test_subprocess_exit_codes(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "x,y\n")
        proc = run_cli(["select", "--method", "fl", "--budget", "1", "--unlabeled", bad])
        assert proc.returncode == 2
        proc = run_cli(["select", "--method", "gcmi", "--budget", "1",
                        "--unlabeled", write(tmp_path / "ok.csv", "1.0,2.0\n")])
        assert proc.returncode == 3
        # row 2 copies row 0, so at ridge 0 the pool kernel has rank 2
        dup = write(tmp_path / "dup.csv", DUPLICATE_ROW_POOL)
        proc = run_cli(["select", "--method", "logdet", "--ridge", "0", "--budget", "3",
                        "--unlabeled", dup])
        assert proc.returncode == 4
        assert proc.stderr.startswith("numerical error: ") and "rank reached is 2;" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_eta_whose_square_overflows_is_a_config_error(self, pool_file, target_file):
        # eta ** 2 raises OverflowError beyond about 1.3e154; 1e150 is still accepted
        args = ["select", "--method", "logdetmi", "--budget", "1", "--unlabeled", pool_file,
                "--target", target_file, "--eta"]
        proc = run_cli(args + ["1e200"])
        assert proc.returncode == 3 and "Traceback" not in proc.stderr
        assert proc.stderr == ("configuration error: eta = 1e+200 is too large: "
                               "its square is not finite\n")
        assert run_cli(args + ["1e150"]).returncode == 4

    def test_error_text_does_not_depend_on_the_hash_seed(self, tmp_path):
        # both the pool (row 1) and the target (row 0) have a zero-norm row: the pool kernel
        # is made first under every hash seed, so the pool's row is the one reported
        pool = write(tmp_path / "pool.csv", "1.0,0.0\n0.0,0.0\n0.0,1.0\n")
        target = write(tmp_path / "target.csv", "0.0,0.0\n1.0,1.0\n")
        args = ["select", "--method", "logdetmi", "--budget", "1", "--unlabeled", pool,
                "--target", target]
        procs = [run_cli(args, PYTHONHASHSEED=seed) for seed in ("0", "3")]
        assert [p.returncode for p in procs] == [2, 2]
        assert procs[0].stderr == procs[1].stderr == (
            "input error: zero-norm row 1 in left matrix under cosine metric\n")

    def test_logdetmi_eta_above_one_names_eta(self, pool_file, target_file):
        # eta^2 times each pool row's target term exceeds its diagonal at
        # eta = 2, so no candidate is a pivot of the conditioned kernel
        args = ["select", "--method", "logdetmi", "--budget", "2", "--unlabeled", pool_file,
                "--target", target_file, "--eta"]
        assert run_cli(args + ["1"]).returncode == 0
        proc = run_cli(args + ["2"])
        assert proc.returncode == 4
        assert proc.stderr.startswith("numerical error: no candidate is a pivot")
        assert "eta > 1 can make S_A - eta^2 S_AQ S_Q^-1 S_QA indefinite" in proc.stderr

    def test_logdetmi_evaluate_at_eta_above_one_names_eta(self, pool_file, target_file):
        pool, target = load_features(pool_file), load_features(target_file)
        cfg = kernel.KernelConfig()
        spec = ObjectiveSpec("logdetmi", s_uu=kernel.build_kernel(pool, pool, cfg),
                             s_ut=kernel.build_kernel(pool, target, cfg),
                             s_tt=kernel.build_kernel(target, target, cfg), eta=2.0)
        with pytest.raises(IndefiniteKernelError) as err:
            evaluate(spec, [0])
        assert str(err.value) == (
            "the conditioned kernel on this set has a non-pivot; increase the ridge"
            "; eta > 1 can make S_A - eta^2 S_AQ S_Q^-1 S_QA indefinite")

    def test_logdet_selection_leaves_scipy_linalg_unloaded(self, tmp_path, pool_file,
                                                           target_file):
        # logdet reads everything from its Cholesky residuals, and logdetmi
        # solves against the target factor by numpy forward substitution
        dup = write(tmp_path / "dup.csv", DUPLICATE_ROW_POOL)
        proc = run_python(["-c", "import sys; from targetsel.pipeline import main; "
                                 f"codes = [main(['select', '--method', 'logdet', '--ridge', '0', "
                                 f"'--budget', b, '--unlabeled', {dup!r}]) for b in '23']; "
                                 f"codes.append(main(['select', '--method', 'logdetmi', "
                                 f"'--budget', '2', '--unlabeled', {pool_file!r}, "
                                 f"'--target', {target_file!r}])); "
                                 "print(codes, 'scipy.linalg' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 4, 0] False"


class TestManifestFidelity:
    def test_cli_report_matches_library_call(self, pool_file, target_file, tmp_path):
        manifest = RunManifest(method="fl1mi", budget=2, unlabeled=pool_file,
                               target=target_file, seed=11)
        lib_result = run_select(manifest)
        out = tmp_path / "cli.json"
        code = main(["select", "--method", "fl1mi", "--budget", "2",
                     "--unlabeled", pool_file, "--target", target_file,
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["selected"] == lib_result.selected
        assert report["gains"] == lib_result.gains
        assert report["total_value"] == lib_result.total_value

    def test_report_reruns_from_manifest_echo(self, pool_file, target_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["select", "--method", "logdetmi", "--budget", "2",
                     "--unlabeled", pool_file, "--target", target_file,
                     "--out", str(out1)]) == 0
        assert main(["select", "--manifest", str(out1), "--out", str(out2)]) == 0
        a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
        assert a == b

    def test_report_keys_sorted(self, pool_file, tmp_path):
        out = tmp_path / "s.json"
        main(["select", "--method", "fl", "--budget", "1",
              "--unlabeled", pool_file, "--out", str(out)])
        text = out.read_text()
        report = json.loads(text)
        assert list(report) == sorted(report)
        assert json.dumps(report, sort_keys=True, indent=2) + "\n" == text

    def test_randomized_manifests_match_library(self, tmp_path):
        rng = np.random.default_rng(42)
        methods = ["gcmi", "fl1mi", "fl2mi", "logdetmi", "gcmi_div",
                   "fl", "gc", "logdet", "dsum", "random", "badge"]
        for i in range(12):
            n, d = int(rng.integers(3, 9)), int(rng.integers(2, 5))
            pool = tmp_path / f"pool{i}.csv"
            target = tmp_path / f"target{i}.csv"
            write(pool, "\n".join(",".join("%.17g" % v for v in row)
                                  for row in rng.standard_normal((n, d))))
            write(target, "\n".join(",".join("%.17g" % v for v in row)
                                    for row in rng.standard_normal((2, d))))
            method = methods[i % len(methods)]
            manifest = RunManifest(method=method, budget=int(rng.integers(1, n)),
                                   unlabeled=str(pool), target=str(target),
                                   seed=int(rng.integers(1000)))
            lib = build_report(manifest, run_select(manifest), 0.0)
            out = tmp_path / f"out{i}.json"
            args = ["select", "--method", method, "--budget", str(manifest.budget),
                    "--unlabeled", str(pool), "--target", str(target),
                    "--seed", str(manifest.seed), "--out", str(out)]
            assert main(args) == 0
            cli = json.loads(out.read_text())
            cli.pop("wall_time_ms")
            lib.pop("wall_time_ms")
            assert cli == lib, method


@st.composite
def select_runs(draw):
    """`targetsel select` arguments and the CSV files they name: a pool and a target of
    1-4 and 1-3 rows of small integers times an ordinary, a subnormal, a near-overflow
    scale or one whose squares are near overflow, two-class probabilities for the pool,
    every method, metric and transform, a budget from 0 to n + 2, and ridges, etas and
    gammas at both ends of their ranges."""
    scale = draw(st.sampled_from([1.0, 5e-324, 1e307, 1e154]))
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3).map(lambda v: v * scale), min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    target = draw(st.lists(row, min_size=1, max_size=3))
    probs = [[p, 1.0 - p] for p in draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                                 min_size=len(pool), max_size=len(pool)))]
    args = ["--method", draw(st.sampled_from(METHODS)),
            "--budget", str(draw(st.integers(0, len(pool) + 2))),
            "--metric", draw(st.sampled_from(METRICS)),
            "--transform", draw(st.sampled_from(TRANSFORMS)),
            "--ridge", repr(draw(st.sampled_from([0.0, 1e-6, 1e300]))),
            "--eta", repr(draw(st.sampled_from([0.5, 1.0, 1e200]))),
            "--gamma", repr(draw(st.sampled_from([1.0, 1e308])))]
    return {"unlabeled": pool, "target": target, "probs": probs}, args


def probe_case(method, metric, pool, target=((1.0, 0.0),), budget=1, flags=()):
    files = {"unlabeled": pool, "target": target, "probs": [[0.5, 0.5]] * len(pool)}
    return files, ["--method", method, "--budget", str(budget), "--metric", metric, *flags]


# A pool and target whose dot kernels are finite, every entry near 1e308, but whose row
# sums and running sums overflow, at a budget of the whole pool.
OVERFLOW = ([[1e154, 0.0], [1e154, 1.0], [1e154, 2.0], [1e154, 3.0]], [[1e154, 0.0]], 4,
            ["--transform", "none"])


def strict_json(name):
    raise ValueError(f"{name} in a JSON report")


@settings(max_examples=300, deadline=None)
@given(run=select_runs())
# A norm, kernel entry or squared distance beyond float range printed a RuntimeWarning
# before an exit of 0 or 2: now the norm is taken of the row scaled by its largest entry
# (exit 0) and the others exit 2 with one line.
@example(run=probe_case("fl", "cosine", [[1e307, 1e307], [1e307, 0.0]]))
@example(run=probe_case("fl", "dot", [[1e307, 0.0]]))
@example(run=probe_case("gcmi", "dot", [[1e307, 0.0]], [[1e307, 1.0]]))
@example(run=probe_case("badge", "cosine", [[1e307, 1e307], [1e307, 0.0]]))
# Gains and totals beyond float range ended in an IndexError or ValueError traceback, or
# exited 0 with Infinity or NaN in the report: now they exit 4 with one line.
@example(run=probe_case("fl", "dot", *OVERFLOW))
@example(run=probe_case("fl1mi", "dot", *OVERFLOW))
@example(run=probe_case("fl2mi", "dot", *OVERFLOW))
@example(run=probe_case("gc", "dot", *OVERFLOW))
@example(run=probe_case("dsum", "dot", *OVERFLOW))
@example(run=probe_case("gcmi", "dot", *OVERFLOW))
@example(run=probe_case("gcmi_div", "cosine", [[2, 1], [0, -2], [-1, -3], [-3, -3], [-2, 2],
                                               [1, 3]], [[1.0, 0.0]], 6, ["--gamma", "1e308"]))
def test_select_probe_exits_with_a_documented_code(run):
    """Every select run exits 0, 2, 3 or 4, with at most one stderr line (the error),
    no warning (which would print two more) and no exception; a run that exits 0 writes
    a report of finite numbers, strict JSON."""
    files, args = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, rows in files.items():
            text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
            args = [*args, f"--{name}", write(pathlib.Path(tmp) / f"{name}.csv", text)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["select", *args, "--out", os.path.join(tmp, "report.json")])
        if code == 0:
            with open(os.path.join(tmp, "report.json"), encoding="utf-8") as fh:
                json.load(fh, parse_constant=strict_json)
    assert code in (0, 2, 3, 4)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    assert not caught, [str(w.message) for w in caught]


class TestManifestErrors:
    def _replay(self, pool_file, target_file, tmp_path, **changes):
        manifest = {"method": "fl2mi", "budget": 1, "unlabeled": pool_file,
                    "target": target_file, **changes}
        path = write(tmp_path / "manifest.json", json.dumps({"manifest": manifest}))
        return main(["select", "--manifest", path, "--out", str(tmp_path / "out.json")])

    @pytest.mark.parametrize("changes", [{"metric": "manhattan"}, {"transform": "log"},
                                         {"ridge": -1.0}])
    def test_bad_kernel_settings_are_config_errors(self, pool_file, target_file, tmp_path,
                                                   capsys, changes):
        assert self._replay(pool_file, target_file, tmp_path, **changes) == 3
        assert "configuration error" in capsys.readouterr().err

    # RunManifest checks every setting before any file is opened: the inputs
    # here do not exist, which would otherwise be an input error (exit 2).
    @pytest.mark.parametrize("flag,value", [("--ridge", "-1"), ("--eta", "-1"),
                                            ("--gamma", "-1"), ("--lambda-gc", "1.5"),
                                            ("--eta", "nan"), ("--gamma", "nan"),
                                            ("--ridge", "inf"), ("--budget", "-1"),
                                            ("--seed", "-1"), ("--eta", "1e200")])
    def test_bad_parameter_rejected_before_reading_input(self, tmp_path, capsys, flag, value):
        missing = str(tmp_path / "missing.csv")
        assert main(["select", "--method", "logdetmi", "--unlabeled", missing,
                     "--target", missing, flag, value]) == 3
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("changes", [{"metric": "bogus"}, {"transform": "bogus"}])
    def test_bad_setting_rejected_before_reading_input(self, tmp_path, capsys, changes):
        missing = str(tmp_path / "missing.csv")
        assert self._replay(missing, missing, tmp_path, **changes) == 3
        assert "configuration error" in capsys.readouterr().err

    def test_json_integers_beyond_int64(self, pool_file, target_file, tmp_path, capsys):
        # 10**30 is a finite float; a 401-digit integer is beyond float range
        assert self._replay(pool_file, target_file, tmp_path, method="gcmi", gamma=10**30) == 0
        assert self._replay(pool_file, target_file, tmp_path, eta=10**400) == 3
        assert capsys.readouterr().err == "configuration error: eta must be finite and nonnegative\n"

    def test_non_utf8_manifest_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(b'{"method": "fl", "budget": 1, "unlabeled": "\xff"}')
        assert main(["select", "--manifest", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, pool_file, target_file, tmp_path, capsys):
        # a report written before the algorithm option was removed carries the key
        for key, value in (("shards", 4), ("algorithm", "lazy")):
            assert self._replay(pool_file, target_file, tmp_path, **{key: value}) == 3
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '{"manifest": 5}'])
    def test_non_object_manifest_is_config_error(self, tmp_path, capsys, text):
        path = write(tmp_path / "manifest.json", text)
        assert main(["select", "--manifest", path]) == 3
        assert "not a JSON object" in capsys.readouterr().err

    def test_non_numeric_value_is_config_error(self, pool_file, target_file, tmp_path, capsys):
        # A path that is not a string would otherwise read stdin (0), open a
        # file descriptor (true) or end in a traceback (1.5).
        for key, value, want in (("eta", "high", "float"), ("unlabeled", 0, "str"),
                                 ("target", True, "str"), ("probs", 1.5, "str")):
            assert self._replay(pool_file, target_file, tmp_path, **{key: value}) == 3
            assert f"{key} must be {want}" in capsys.readouterr().err

    def test_non_numeric_experiment_value_is_config_error(self):
        with pytest.raises(ConfigurationError, match="budget must be int"):
            config_from_dict({"budget": "100"})

    def test_version_mismatch_warns(self, pool_file, target_file, tmp_path, capsys):
        first = tmp_path / "first.json"
        assert main(["select", "--method", "fl2mi", "--budget", "1", "--unlabeled", pool_file,
                     "--target", target_file, "--out", str(first)]) == 0
        assert main(["select", "--manifest", str(first), "--out", "-"]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(first.read_text())
        report["manifest"]["version"] = "0.0.1"
        old = write(tmp_path / "old.json", json.dumps(report))
        replay = tmp_path / "replay.json"
        assert main(["select", "--manifest", old, "--out", str(replay)]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "0.0.1" in err and targetsel.__version__ in err
        a, b = json.loads(first.read_text()), json.loads(replay.read_text())
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
        assert a == b


TINY_EXPERIMENT = {"num_classes": 4, "feature_dim": 8, "rare_train_count": 2,
                   "common_train_count": 12, "lake_size": 40, "target_set_size": 4,
                   "test_per_class": 6, "max_epochs": 50}


class TestExperimentCommand:
    def test_seed_and_budget_overrides(self, tmp_path, capsys):
        config = write(tmp_path / "tiny.json", json.dumps(TINY_EXPERIMENT))
        argv = ["experiment", "--config", config, "--seeds", "0", "--budget", "6",
                "--methods", "random"]
        out = tmp_path / "exp.json"
        assert main(argv + ["--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["seeds"] == [0] and report["config"]["budget"] == 6
        assert list(report["entries"]) == ["random"]
        lines = capsys.readouterr().err.splitlines()
        assert lines[1].split("|")[-1].strip() == "median"
        assert [line.split("|")[0].strip() for line in lines[3:]] == ["random"]
        # the table goes to stderr only: stdout carries the report as --out writes it
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_bad_parameter_rejected_before_running(self, tmp_path, capsys):
        config = write(tmp_path / "bad.json", json.dumps({"ridge": -1}))
        assert main(["experiment", "--config", config, "--methods", "random"]) == 3
        assert "ridge" in capsys.readouterr().err

    def test_json_integers_beyond_int64(self, tmp_path, capsys):
        # 10**30 is a finite float; a 401-digit integer is beyond float range
        config = write(tmp_path / "big.json", json.dumps({**TINY_EXPERIMENT, "gamma": 10**30}))
        assert main(["experiment", "--config", config, "--seeds", "0", "--methods", "gcmi",
                     "--out", str(tmp_path / "exp.json")]) == 0
        config = write(tmp_path / "huge.json", json.dumps({"eta": 10**400}))
        capsys.readouterr()
        assert main(["experiment", "--config", config, "--methods", "random"]) == 3
        assert capsys.readouterr().err == "configuration error: eta must be finite and nonnegative\n"

    @pytest.mark.parametrize("text", [
        "[1, 2]", '{"seeds": []}', '{"seeds": 5}', '{"seeds": ["a"]}', '{"seeds": [-1]}',
        '{"seeds": [0, 0]}', '{"target_classes": [1]}', '{"target_classes": [1, 1]}',
        '{"target_set_size": 0}', '{"test_per_class": 0}', '{"rare_train_count": -1}',
        '{"budget": -1}', '{"max_epochs": -1}', '{"learn_rate": -1.0}', '{"feature_dim": 5}',
        '{"lake_size": 5}', '{"methods": 5}', '{"class_separation": NaN}',
        '{"pair_separation": NaN}', '{"train_acc_threshold": NaN}',
        '{"num_classes": 3, "feature_dim": 3}', '{"eta": 1e160}',
    ])
    def test_bad_config_rejected_before_generating(self, tmp_path, capsys, monkeypatch, text):
        monkeypatch.setattr(harness, "synthetic_generate", _never_called)
        config = write(tmp_path / "bad.json", text)
        assert main(["experiment", "--config", config, "--methods", "random"]) == 3
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("methods, message", [
        ("random,nope", "unknown selection method 'nope'"),
        ("random,random", "'random' is listed twice"),
    ])
    def test_bad_methods_rejected_before_generating(self, capsys, monkeypatch, methods, message):
        monkeypatch.setattr(harness, "synthetic_generate", _never_called)
        assert main(["experiment", "--methods", methods]) == 3
        assert message in capsys.readouterr().err


def _never_called(*args):
    raise AssertionError("experiment data generated before its settings were checked")
