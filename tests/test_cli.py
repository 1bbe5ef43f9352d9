"""End-to-end tests driving cli.main with argv lists.

Each test captures stdout with capsys and checks the exit code against
the documented table (0 ok, 2 usage, 3 regime, 4 failed check or bad
input, 5 field error, 6 guard).
"""

import json
from fractions import Fraction as F

import pytest

from qpascal import (
    QParam,
    ThetaParams,
    VArray,
    codim_word,
    exact_extreme_law,
    extreme_array,
    make_field,
    sample_extreme,
    sample_growth,
    theta_array,
    tilde_of_v,
)
from qpascal.cli import main

HALF = QParam(F(1, 2))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestTable:
    def test_gaussian_binomial_csv(self, capsys):
        code, out = run(
            capsys, "table", "--kind", "d", "--q", "2", "--depth", "4",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,value"
        assert "4,1,15" in lines
        assert "4,2,35" in lines
        assert len(lines) == 1 + 15  # header + sum_{n<=4} (n+1) cells

    def test_tilde_json_matches_library(self, capsys):
        code, out = run(
            capsys, "table", "--law", "theta", "--theta", "1", "--q", "1/2",
            "--kind", "tilde", "--depth", "4",
        )
        assert code == 0
        payload = json.loads(out)
        expected = tilde_of_v(theta_array(ThetaParams(F(1), HALF), 4))
        assert payload["rows"] == expected.to_jsonable()["tv"]
        assert payload["kind"] == "tilde"

    def test_v_triangle_is_the_file_format(self, capsys):
        code, out = run(
            capsys, "table", "--law", "extreme", "--kappa", "1", "--q", "1/2",
            "--depth", "3",
        )
        assert code == 0
        assert json.loads(out) == extreme_array(1, HALF, 3).to_jsonable()

    def test_table_output_feeds_recover_and_check(self, capsys, tmp_path):
        # the CLI's own v-triangle export must round-trip through the
        # file-reading subcommands
        target = str(tmp_path / "pipe.json")
        code, _ = run(capsys, "table", "--law", "extreme", "--kappa", "2",
                      "--q", "1/2", "--depth", "30", "-o", target)
        assert code == 0
        code, out = run(capsys, "recover", "--input", target, "--nu", "30",
                        "--kmax", "5")
        assert code == 0
        masses = {a["kappa"]: F(a["mass"])
                  for a in json.loads(out)["measure"]["atoms"]}
        assert masses[2] >= 1 - F(1, 2**25)
        code, out = run(capsys, "check", "--kind", "recursion",
                        "--input", target)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_non_triangle_file_has_clear_error(self, capsys, tmp_path):
        path = write_json(tmp_path / "junk.json", {"rows": [["1"]]})
        code = main(["recover", "--input", path])
        captured = capsys.readouterr()
        assert code == 2
        assert "not a triangle file" in captured.err

    def test_text_format(self, capsys):
        code, out = run(
            capsys, "table", "--kind", "d", "--q", "1/2", "--depth", "2",
            "--format", "text",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith(" 2 | ")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "triangle.json"
        code, out = run(
            capsys, "table", "--kind", "d", "--q", "2", "--depth", "2",
            "-o", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["rows"][2] == ["1", "3", "1"]

    def test_missing_law_params_is_usage_error(self, capsys):
        code, _ = run(capsys, "table", "--law", "extreme", "--q", "1/2",
                      "--depth", "3")
        assert code == 2


class TestSample:
    def test_single_word_deterministic(self, capsys):
        args = ("sample", "--process", "extreme", "--kappa", "1", "--q", "1/2",
                "--n", "6", "--seed", "3")
        code, out = run(capsys, *args)
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == str(sample_extreme(1, HALF, 6, seed=3))
        assert payload["n"] == 6
        assert payload["ones"] == payload["word"].count("1")
        code2, out2 = run(capsys, *args)
        assert out2 == out

    def test_histogram_close_to_exact(self, capsys):
        code, out = run(
            capsys, "sample", "--process", "polya", "--a", "1", "--b", "1",
            "--q", "1/2", "--n", "8", "--trials", "100000", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,count,frequency,expected"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9
        assert sum(int(r[1]) for r in rows) == 100000
        tv = sum(abs(float(r[2]) - float(r[3])) for r in rows) / 2
        assert tv <= 0.02

    def test_theta_infinite_is_all_ones(self, capsys):
        code, out = run(
            capsys, "sample", "--process", "theta", "--theta", "inf",
            "--q", "1/2", "--n", "5", "--seed", "0",
        )
        assert code == 0
        assert json.loads(out)["word"] == "11111"

    def test_missing_process_param(self, capsys):
        code, _ = run(capsys, "sample", "--process", "theta", "--q", "1/2",
                      "--n", "4", "--seed", "0")
        assert code == 2


class TestRecover:
    def test_extreme_atom_recovered(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "deep.json", extreme_array(2, HALF, 30).to_jsonable()
        )
        code, out = run(capsys, "recover", "--input", path, "--nu", "30",
                        "--kmax", "6")
        assert code == 0
        payload = json.loads(out)
        masses = {a["kappa"]: F(a["mass"]) for a in payload["measure"]["atoms"]}
        assert masses[2] >= 1 - F(1, 2**25)

    def test_nu_beyond_depth_is_usage_error(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "shallow.json", extreme_array(1, HALF, 5).to_jsonable()
        )
        code, _ = run(capsys, "recover", "--input", path, "--nu", "40")
        assert code == 2


class TestCheck:
    def test_recursion_ok(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "good.json", extreme_array(1, HALF, 6).to_jsonable()
        )
        code, out = run(capsys, "check", "--kind", "recursion", "--input", path)
        assert code == 0
        assert json.loads(out) == {"kind": "recursion", "ok": True, "witness": None}

    def test_recursion_perturbed_cell_located(self, capsys, tmp_path):
        data = extreme_array(1, HALF, 6).to_jsonable()
        data["v"][2][1] = str(F(data["v"][2][1]) + F(1, 100))
        path = write_json(tmp_path / "bad.json", data)
        code, out = run(capsys, "check", "--kind", "recursion", "--input", path)
        assert code == 4
        witness = json.loads(out)["witness"]
        # the broken cell shows up in its own recursion or its parent's
        assert witness in ({"n": 2, "k": 1}, {"n": 1, "k": 0}, {"n": 1, "k": 1})

    def test_exchangeable_ok(self, capsys, tmp_path):
        law = exact_extreme_law(1, HALF, 3)
        path = write_json(
            tmp_path / "law.json",
            {"n": 3, "probs": {str(w): str(p) for w, p in law.probs.items()}},
        )
        code, out = run(capsys, "check", "--kind", "exchangeable",
                        "--input", path, "--q", "1/2")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_exchangeable_uniform_fails(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "uniform.json",
            {"n": 2, "probs": {"00": "1/4", "01": "1/4", "10": "1/4", "11": "1/4"}},
        )
        code, out = run(capsys, "check", "--kind", "exchangeable",
                        "--input", path, "--q", "1/2")
        assert code == 4
        witness = json.loads(out)["witness"]
        assert set(witness) == {"word", "position"}

    def test_monotone_failure_witnessed(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "moments.json", {"moments": ["1", "9/10", "41/50"]}
        )
        code, out = run(capsys, "check", "--kind", "monotone", "--input", path,
                        "--q", "1/2")
        assert code == 4
        assert json.loads(out)["witness"] == {"iterate": 2, "index": 0}

    def test_monotone_ok(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "moments.json", {"moments": ["1", "9/10", "9/10"]}
        )
        code, out = run(capsys, "check", "--kind", "monotone", "--input", path,
                        "--q", "1/2")
        assert code == 0


class TestGrassmann:
    def test_enumerate_counts(self, capsys):
        code, out = run(capsys, "grassmann", "--p", "2", "--enumerate", "4", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 35
        assert len(payload["subspaces"]) == 35

    def test_enumerate_f3(self, capsys):
        code, out = run(capsys, "grassmann", "--p", "3", "--enumerate", "3", "1")
        assert code == 0
        assert json.loads(out)["count"] == 13

    def test_grow_matches_library(self, capsys):
        code, out = run(capsys, "grassmann", "--p", "2", "--grow", "1",
                        "--nmax", "5", "--seed", "9")
        assert code == 0
        payload = json.loads(out)
        chain = sample_growth(1, make_field(2), 5, seed=9)
        assert payload["word"] == str(codim_word(chain))
        assert payload["chain"][-1]["dim"] == chain[-1].dim

    def test_composite_characteristic_exit_code(self, capsys):
        code, _ = run(capsys, "grassmann", "--p", "6", "--enumerate", "2", "1")
        assert code == 5

    def test_guard_exit_code(self, capsys):
        code, _ = run(capsys, "grassmann", "--p", "2", "--enumerate", "40", "20")
        assert code == 6


class TestFlip:
    def test_word(self, capsys):
        code, out = run(capsys, "flip", "--word", "10", "--q", "2")
        assert code == 0
        assert json.loads(out) == {"word": "01", "q": "1/2"}

    def test_array_roundtrip(self, capsys, tmp_path):
        base = extreme_array(1, HALF, 4)
        rows = tuple(
            tuple(
                F(1, 2) ** (k * (n - k)) * base.rows[n][n - k]
                for k in range(n + 1)
            )
            for n in range(5)
        )
        pre = VArray(QParam(F(2)), rows)
        path = write_json(tmp_path / "super.json", pre.to_jsonable())
        code, out = run(capsys, "flip", "--input", path)
        assert code == 0
        assert json.loads(out) == base.to_jsonable()

    def test_sub_unit_word_is_regime_error(self, capsys):
        code, _ = run(capsys, "flip", "--word", "10", "--q", "1/2")
        assert code == 3


class TestExitCodes:
    def test_theta_super_unit_q_regime(self, capsys):
        code, _ = run(capsys, "table", "--law", "theta", "--theta", "1",
                      "--q", "2", "--depth", "3")
        assert code == 3

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--depth", "3"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unreadable_input(self, capsys):
        code, _ = run(capsys, "recover", "--input", "/nonexistent/file.json")
        assert code == 2


class TestNumberArguments:
    SAMPLE = ("sample", "--process", "extreme", "--kappa", "1", "--q", "1/2")

    @pytest.mark.parametrize(
        "argv",
        [
            SAMPLE + ("--n", "-3", "--seed", "1"),
            ("table", "--q", "1/2", "--kappa", "1", "--depth", "-1"),
            ("grassmann", "--p", "2", "--grow", "2", "--nmax", "-3"),
            SAMPLE + ("--n", "4", "--seed", "1", "--trials", "0"),
            SAMPLE + ("--n", "4", "--seed", "1", "--trials", "-5"),
            SAMPLE + ("--n", "4", "--seed", "-1"),
            SAMPLE + ("--n", "4", "--seed", str(1 << 64)),
            ("grassmann", "--p", "2", "--grow", "2", "--seed", "-1"),
        ],
        ids=["n", "depth", "nmax", "trials-zero", "trials-negative",
             "seed-negative", "seed-2^64", "grassmann-seed"],
    )
    def test_rejected_as_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "outside" in capsys.readouterr().err

    def test_largest_seed_accepted(self, capsys):
        seed = (1 << 64) - 1
        code, out = run(capsys, *self.SAMPLE, "--n", "4", "--seed", str(seed))
        assert code == 0
        assert json.loads(out)["word"] == str(sample_extreme(1, HALF, 4, seed))

    def test_single_trial_is_a_histogram(self, capsys):
        code, out = run(capsys, *self.SAMPLE, "--n", "4", "--seed", "1",
                        "--trials", "1")
        assert code == 0
        assert out.splitlines()[0] == "k,count,frequency,expected"
