import json
import os
import subprocess
import sys

import numpy as np
import pytest

import targetsel
from targetsel.harness import config_from_dict
from targetsel.errors import ConfigurationError
from targetsel.pipeline import RunManifest, build_report, main, run_select


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


def run_cli(args):
    # The child process imports the same targetsel as these tests, installed or not.
    src = os.path.dirname(os.path.dirname(targetsel.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "targetsel", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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

    def test_malformed_input_is_input_error(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "1.0,2.0\n3.0\n")
        code = main(["select", "--method", "fl", "--budget", "1", "--unlabeled", bad])
        assert code == 2
        assert "input error" in capsys.readouterr().err

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

    def test_subprocess_exit_codes(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "x,y\n")
        proc = run_cli(["select", "--method", "fl", "--budget", "1", "--unlabeled", bad])
        assert proc.returncode == 2
        proc = run_cli(["select", "--method", "gcmi", "--budget", "1",
                        "--unlabeled", write(tmp_path / "ok.csv", "1.0,2.0\n")])
        assert proc.returncode == 3


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

    def test_unknown_key_is_config_error(self, pool_file, target_file, tmp_path, capsys):
        assert self._replay(pool_file, target_file, tmp_path, shards=4) == 3
        assert "shards" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '{"manifest": 5}'])
    def test_non_object_manifest_is_config_error(self, tmp_path, capsys, text):
        path = write(tmp_path / "manifest.json", text)
        assert main(["select", "--manifest", path]) == 3
        assert "not a JSON object" in capsys.readouterr().err

    def test_non_numeric_value_is_config_error(self, pool_file, target_file, tmp_path, capsys):
        assert self._replay(pool_file, target_file, tmp_path, eta="high") == 3
        assert "eta must be float" in capsys.readouterr().err

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
