"""End-to-end tests driving cli.main with argv lists.

Each test captures stdout with capsys and checks the exit code against
the documented table (0 ok, 2 usage, 3 regime, 4 failed check or bad
input, 5 field error, 6 guard).
"""

import copy
import hashlib
import json
import math
import re
import resource
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpascal import (
    PolyaParams,
    QParam,
    SplitMix64,
    ThetaParams,
    VArray,
    codim_word,
    extreme_chain,
    extreme_runs_sampler,
    format_rational,
    growth_q_param,
    make_field,
    polya_chain,
    sample_growth,
    theta_chain,
    tilde_of_v,
)
import qpascal
from qpascal import cli
from qpascal.cli import main
from qpascal.rng import GOLDEN, mix64

from oracles import chain_law, law_to_jsonable

HALF = QParam(F(1, 2))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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

    def test_deep_gaussian_table_in_time(self, capsys):
        # 4.9 s when every cell was a product of q-integers; the digest was
        # recorded from that product form
        start = time.perf_counter()
        code = main(["table", "--kind", "d", "--q", "9/10", "--depth", "120"])
        assert time.perf_counter() - start < 2
        out = capsys.readouterr().out
        assert code == 0
        assert sha256(out) == "f66d2df4fbda7eb30c5d5cbe712aa1137f574751028e0f1aabfb15c1a54de7e3"

    def test_tilde_json_matches_library(self, capsys):
        code, out = run(
            capsys, "table", "--law", "theta", "--theta", "1", "--q", "1/2",
            "--kind", "tilde", "--depth", "4",
        )
        assert code == 0
        payload = json.loads(out)
        expected = tilde_of_v(theta_chain(ThetaParams(F(1), HALF)).triangle(4))
        assert payload["rows"] == [[format_rational(x) for x in row] for row in expected.rows]
        assert payload["kind"] == "tilde"
        assert list(payload) == ["q", "depth", "law", "kind", "rows"]

    def test_infinite_theta_is_the_all_ones_triangle(self, capsys):
        tail = ("--q", "1/2", "--depth", "6")
        code, out = run(capsys, "table", "--law", "theta", "--theta", "inf", *tail)
        assert code == 0
        assert (code, out) == run(capsys, "table", "--law", "extreme", "--kappa", "inf", *tail)
        assert sha256(out) == "cd4aa9098bf164e16a2ce1b4bf52366ed6b5bb6da7855c9e3b8fc8a42936c2df"

    def test_infinite_theta_levels_sit_on_the_diagonal(self, capsys):
        code, out = run(
            capsys, "table", "--law", "theta", "--theta", "inf", "--q", "1/2",
            "--depth", "4", "--kind", "tilde", "--format", "text",
        )
        assert code == 0
        rows = [line.split(" | ")[1].split("  ") for line in out.strip().splitlines()]
        assert rows == [["0"] * n + ["1"] for n in range(5)]

    # stdout digests recorded before tilde/v rows stopped going through text
    TRIANGLE_DIGESTS = {
        ("theta", "tilde", "json"): "cc49101082591e2305f1b3c268c33434906ad24ec8f4412fba93a65c87176078",
        ("theta", "tilde", "csv"): "44dca061e9110632460c47f9379437a0453106ab6350922da2b84fe0896957bb",
        ("theta", "tilde", "text"): "8cc412f955aa77a58e60ea97cf3550284aa66f25aeec0685f50533785768076a",
        ("theta", "v", "json"): "a7c1af53c8f7c264c3793b90d3e0bbaaef391e7a8b5a489479b6f7fcc211e504",
        ("theta", "v", "csv"): "58e88ad633b74adebd20286c340e04323ef6a834fefc29e63acda64cb0532ffb",
        ("theta", "v", "text"): "e3a39ac761c446d12daa68cb7727e8dbe4fe4ac12ebe003fc88d075b4c72f3dc",
        ("polya", "tilde", "json"): "61b1a585b8db92ba3662231e4af48885b40ef122d8a01ce849d8058e0007140e",
        ("polya", "tilde", "csv"): "fe502a48a0524aec9393b8fbcc289da59234090e9891e174927d597277a6c4de",
        ("polya", "tilde", "text"): "189c9f11ddf27504976b56cda94922a90cd223a9fd406dd456b26af9e40db2de",
        ("polya", "v", "json"): "ce77e034f7cb8cb9432473a0c5385ea1a71fbf3efdaa531b83239473c79300d8",
        ("polya", "v", "csv"): "4e86442e49ae88a33da60b0cbd5313a3933f52593077426b74cbe03c99f121e6",
        ("polya", "v", "text"): "cc1b38e8070cebe45c2af320003098897bb660aa15faf443742cd3b5db13745b",
    }

    @pytest.mark.parametrize("key", sorted(TRIANGLE_DIGESTS), ids="-".join)
    def test_tilde_and_v_in_every_format(self, capsys, key):
        law, kind, fmt = key
        params = ("--theta", "3/2") if law == "theta" else ("--a", "2", "--b", "1")
        code, out = run(
            capsys, "table", "--law", law, *params, "--q", "2/3", "--depth", "6",
            "--kind", kind, "--format", fmt,
        )
        assert code == 0
        assert sha256(out) == self.TRIANGLE_DIGESTS[key]
        q = QParam(F(2, 3))
        if law == "theta":
            array = theta_chain(ThetaParams(F(3, 2), q)).triangle(6)
        else:
            array = polya_chain(PolyaParams(2, 1, q)).triangle(6)
        expected = (tilde_of_v(array) if kind == "tilde" else array).rows
        if fmt == "json":
            payload = json.loads(out)
            rows = payload["rows"] if kind == "tilde" else payload["v"]
        elif fmt == "csv":
            rows = [[] for _ in range(7)]
            for line in out.strip().splitlines()[1:]:
                n, _, value = line.split(",")
                rows[int(n)].append(value)
        else:
            rows = [line.split(" | ")[1].split("  ") for line in out.strip().splitlines()]
        assert [[F(x) for x in row] for row in rows] == [list(row) for row in expected]

    def test_v_triangle_is_the_file_format(self, capsys):
        code, out = run(
            capsys, "table", "--law", "extreme", "--kappa", "1", "--q", "1/2",
            "--depth", "3",
        )
        assert code == 0
        assert json.loads(out) == extreme_chain(1, HALF).triangle(3).to_jsonable()

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

    @pytest.mark.parametrize("kind", ["v", "tilde"])
    def test_mixture_q_must_match_the_measure_file(self, capsys, tmp_path, kind):
        measure = {"q": "2/3", "atoms": [{"kappa": 1, "mass": "1"}], "zero_mass": "0"}
        path = write_json(tmp_path / "measure.json", measure)
        argv = ("table", "--law", "mixture", "--measure-file", path,
                "--depth", "3", "--kind", kind)
        code = main([*argv, "--q", "1/2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "does not match the measure file's q = 2/3" in captured.err
        # the same rational written another way is the same q
        code, out = run(capsys, *argv, "--q", "4/6")
        assert code == 0
        code, same = run(capsys, *argv, "--q", "2/3")
        assert (code, out) == (0, same)


class TestSample:
    def test_single_word_deterministic(self, capsys):
        args = ("sample", "--process", "extreme", "--kappa", "1", "--q", "1/2",
                "--n", "6", "--seed", "3")
        code, out = run(capsys, *args)
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == str(extreme_chain(1, HALF).sampler()(6, SplitMix64(3)))
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

    def test_float_urn_histogram_pinned(self, capsys):
        # the CI text of a non-integer urn, whose level law is the float one
        code, out = run(capsys, "sample", "--process", "polya", "--a", "3/2", "--b", "5/2",
                        "--q", "9/10", "--n", "22", "--trials", "50", "--seed", "3")
        assert code == 0
        assert out == (
            "k,count,frequency,expected\n0,3,0.06,0.1400794418\n1,3,0.06,0.1548828684\n"
            "2,9,0.18,0.1424954012\n3,13,0.26,0.1221425436\n4,6,0.12,0.1007472271\n"
            "5,6,0.12,0.08105358976\n6,5,0.1,0.06403582508\n7,3,0.06,0.0498643609\n"
            "8,1,0.02,0.03835010162\n9,1,0.02,0.02916142019\n10,0,0,0.02193153459\n"
            "11,0,0,0.016310004\n12,0,0,0.01198504847\n13,0,0,0.008690666898\n"
            "14,0,0,0.00620608075\n15,0,0,0.004351601536\n16,0,0,0.002983139048\n"
            "17,0,0,0.001986517304\n18,0,0,0.001272177621\n19,0,0,0.0007705237661\n"
            "20,0,0,0.0004279953322\n21,0,0,0.0002038920146\n22,0,0,6.803906879e-05\n"
        )

    # histograms whose draws cross the stream's block and chunk bounds: a
    # word longer than a block, trials over several chunks of sub-seeds
    # and first draws, and a word longer than one chunk holds; each
    # digest was recorded while every draw was mixed on its own
    @pytest.mark.parametrize("flags, digest", [
        ("--process extreme --kappa 6 --q 99/100 --n 1500 --trials 3 --seed 4",
         "e2bb3ccfdf98ce773a5fb60ee1bb2262eb55c2472036b943fb178b1e02012022"),
        ("--process theta --theta 2 --q 9/10 --n 3 --trials 5000 --seed 4",
         "371620da50c18114fe2b973d7a97648314c9ad43ab7f85db6e9fea65f1f01e4f"),
        ("--process extreme --mode runs --kappa 6 --q 99/100 --n 22 --trials 3000 --seed 4",
         "7336d90f38b88b5c3b0daf2c3a577ea8080ff2052cfedb58a68e20e974dce02a"),
        ("--process extreme --kappa 2 --q 1/2 --n 4500 --trials 2 --seed 4",
         "dbef9a400cf6adb2252cf4f9201e595cc383e5622bea837c977a7a9f18d6aef2"),
    ], ids=["long words", "many trials", "runs", "past the pre-fill"])
    def test_histograms_across_chunks_pinned(self, capsys, flags, digest):
        code, out = run(capsys, "sample", *flags.split())
        assert (code, sha256(out)) == (0, digest)

    # the bytes of the sample path's two slow cases as they printed when
    # each took over a second: a runs word near q = 1, whose cutoffs grew
    # to the full run length, and all-ones levels, which built every
    # Gaussian cell of their row
    @pytest.mark.parametrize("flags, digest", [
        ("--process extreme --mode runs --q 9999/10000 --kappa 1 --n 5 --seed 0",
         "c433f66b18f837bfee50f438093bb880d9507c074c4fad642ee0063f5f8aeb1e"),
        ("--process extreme --kappa inf --q 1/2 --n 1200 --trials 2 --seed 4",
         "6373f65daae2a2beb2ed498e5ba7f0e410951f4669dd6cdfadac301f3bc0569f"),
        ("--process theta --theta inf --q 1/2 --n 1200 --trials 2 --seed 4",
         "6373f65daae2a2beb2ed498e5ba7f0e410951f4669dd6cdfadac301f3bc0569f"),
    ], ids=["runs near one", "kappa inf", "theta inf"])
    def test_slow_cases_pinned(self, capsys, flags, digest):
        code, out = run(capsys, "sample", *flags.split())
        assert (code, sha256(out)) == (0, digest)

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

    def test_modes_are_the_two_extreme_samplers(self, capsys):
        samplers = {
            "runs": lambda: extreme_runs_sampler(3, HALF),
            "forward": extreme_chain(3, HALF).sampler,
        }
        words = {}
        for mode, make in samplers.items():
            for seed in range(4):
                code, out = run(capsys, "sample", "--process", "extreme", "--mode", mode,
                                "--kappa", "3", "--q", "1/2", "--n", "12",
                                "--seed", str(seed))
                payload = json.loads(out)
                assert (code, payload["params"]["mode"]) == (0, mode)
                assert payload["word"] == str(make()(12, SplitMix64(seed)))
                words[mode, seed] = payload["word"]
        # the two samplers read the same draws differently
        assert any(words["runs", seed] != words["forward", seed] for seed in range(4))

    @pytest.mark.parametrize("flags, process, params, n, seed, word", [
        ("--kappa 3 --q 1/2 --n 12 --seed 1", "extreme",
         {"kappa": "3", "q": "1/2", "mode": "forward"}, 12, 1, "110100000000"),
        ("--mode runs --kappa 3 --q 0.5 --n 12 --seed 1", "extreme",
         {"kappa": "3", "q": "0.5", "mode": "runs"}, 12, 1, "110000010000"),
        ("--kappa inf --q 2/3 --n 6 --seed 1", "extreme",
         {"kappa": "inf", "q": "2/3", "mode": "forward"}, 6, 1, "111111"),
        ("--theta 3/2 --q 0.9 --n 10 --seed 7", "theta",
         {"theta": "3/2", "q": "0.9"}, 10, 7, "1100110110"),
        ("--theta inf --q 1/2 --n 5 --seed 0", "theta",
         {"theta": "inf", "q": "1/2"}, 5, 0, "11111"),
        ("--a 2 --b 3 --q 2/3 --n 10 --seed 3", "polya",
         {"a": "2", "b": "3", "q": "2/3"}, 10, 3, "1001000000"),
        ("--a 3/2 --b 5/2 --q 9/10 --n 10 --seed 3", "polya",
         {"a": "3/2", "b": "5/2", "q": "9/10"}, 10, 3, "1001101000"),
    ], ids=["extreme forward", "extreme runs", "kappa inf", "theta", "theta inf",
            "exact urn", "float urn"])
    def test_word_payload_pinned(self, capsys, flags, process, params, n, seed, word):
        # the whole payload, key order included: params echoes each flag
        # as typed, and the extreme process's mode last
        code, out = run(capsys, "sample", "--process", process, *flags.split())
        payload = {"process": process, "params": params, "n": n, "seed": seed,
                   "word": word, "ones": word.count("1")}
        assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")

    def test_unknown_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--process", "extreme", "--mode", "backward",
                  "--kappa", "1", "--q", "1/2", "--n", "3", "--seed", "0"])
        assert exc.value.code == 2
        assert "invalid choice: 'backward'" in capsys.readouterr().err

    @pytest.mark.parametrize("process, flags", [
        ("theta", ("--theta", "1")),
        ("polya", ("--a", "1", "--b", "1")),
    ])
    @pytest.mark.parametrize("trials", [(), ("--trials", "3")], ids=["word", "histogram"])
    def test_runs_mode_is_for_the_extreme_process_only(self, capsys, process, flags, trials):
        code = main(["sample", "--process", process, *flags, "--mode", "runs",
                     "--q", "1/2", "--n", "4", "--seed", "0", *trials])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --mode runs is for the extreme process only\n"
        # forward, the default, is the one mode of these processes
        code, out = run(capsys, "sample", "--process", process, *flags, "--mode", "forward",
                        "--q", "1/2", "--n", "4", "--seed", "0", *trials)
        assert code == 0
        assert out == run(capsys, "sample", "--process", process, *flags,
                          "--q", "1/2", "--n", "4", "--seed", "0", *trials)[1]


class TestMissingFlags:
    """A law or process without the flag it needs is a usage error that
    names the flag; table and sample refuse a process with one line."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("table", "--law", "mixture"), "--measure-file"),
            (("table", "--law", "theta"), "--theta"),
            (("table", "--law", "polya", "--a", "1"), "--a and --b"),
            (("table", "--law", "polya", "--b", "1"), "--a and --b"),
            (("sample", "--process", "extreme"), "--kappa"),
            (("sample", "--process", "polya", "--a", "1"), "--a and --b"),
        ],
        ids=["mixture", "theta", "polya-a", "polya-b", "sample-extreme", "sample-polya"],
    )
    def test_flag_is_named(self, capsys, argv, flag):
        if argv[0] == "table":
            argv += ("--q", "1/2", "--depth", "3")
        else:
            argv += ("--q", "1/2", "--n", "3", "--seed", "0")
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert flag + " " in captured.err and "required" in captured.err

    @pytest.mark.parametrize("process, given, message", [
        ("extreme", (), "--kappa is required for the extreme process"),
        ("theta", (), "--theta is required for the theta process"),
        ("polya", (), "--a and --b are required for the urn process"),
        ("polya", ("--a", "1"), "--a and --b are required for the urn process"),
        ("polya", ("--b", "1"), "--a and --b are required for the urn process"),
    ])
    def test_table_and_sample_print_one_line(self, capsys, process, given, message):
        table = ["table", "--law", process, "--q", "1/2", "--depth", "3", *given]
        sample = ["sample", "--process", process, "--q", "1/2", "--n", "3", "--seed", "0",
                  *given]
        for argv in (table, sample):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", "error: %s\n" % message)


class TestRecover:
    def test_extreme_atom_recovered(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "deep.json", extreme_chain(2, HALF).triangle(30).to_jsonable()
        )
        code, out = run(capsys, "recover", "--input", path, "--nu", "30",
                        "--kmax", "6")
        assert code == 0
        payload = json.loads(out)
        masses = {a["kappa"]: F(a["mass"]) for a in payload["measure"]["atoms"]}
        assert masses[2] >= 1 - F(1, 2**25)

    def test_nu_beyond_depth_is_usage_error(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "shallow.json", extreme_chain(1, HALF).triangle(5).to_jsonable()
        )
        code, _ = run(capsys, "recover", "--input", path, "--nu", "40")
        assert code == 2


class TestCheck:
    def test_recursion_ok(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "good.json", extreme_chain(1, HALF).triangle(6).to_jsonable()
        )
        code, out = run(capsys, "check", "--kind", "recursion", "--input", path)
        assert code == 0
        assert json.loads(out) == {"kind": "recursion", "ok": True, "witness": None}

    def test_recursion_perturbed_cell_located(self, capsys, tmp_path):
        data = extreme_chain(1, HALF).triangle(6).to_jsonable()
        data["v"][2][1] = str(F(data["v"][2][1]) + F(1, 100))
        path = write_json(tmp_path / "bad.json", data)
        code, out = run(capsys, "check", "--kind", "recursion", "--input", path)
        assert code == 4
        witness = json.loads(out)["witness"]
        # the broken cell shows up in its own recursion or its parent's
        assert witness in ({"n": 2, "k": 1}, {"n": 1, "k": 0}, {"n": 1, "k": 1})

    def test_exchangeable_ok(self, capsys, tmp_path):
        law = chain_law(extreme_chain(1, HALF), 3)
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

    def test_huge_law_length_trips_the_guard(self, capsys, tmp_path):
        # the guard decides on n, without building 2**n or printing it
        path = write_json(tmp_path / "law.json", {"n": 10**7, "probs": {}})
        code = main(["check", "--kind", "exchangeable", "--input", path, "--q", "1/2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (6, "")
        assert "word law" in captured.err

    def test_exchangeable_needs_q(self, capsys, tmp_path):
        path = write_json(tmp_path / "law.json", {"n": 1, "probs": {"0": "1"}})
        code = main(["check", "--kind", "exchangeable", "--input", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "--q is required" in captured.err


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
        field = make_field(2)
        chain = sample_growth(extreme_chain(1, growth_q_param(field)), field, 5, seed=9)
        assert payload["word"] == str(codim_word(chain))
        assert payload["chain"][-1]["dim"] == chain[-1].dim

    # stdout digests recorded before field arithmetic went through tables
    GROW_DIGESTS = {
        (2, 1, 7, "2"): "e5d2e190ffc133b8c9bfe23f184a6ba9d8773aea111cbfe0e9f39bf1dfa3e413",
        (2, 1, 7, "5"): "aeb9e2feca726d4608497e9d13cedc89480ea4d387e48787f58a276b51dab0bd",
        (2, 1, 7, "inf"): "d7d29acba1b6f9a3fc31dceb940d051d1c8e8e69ad258d007fb86c41fb55a43e",
        (2, 1, 2024, "2"): "fabbee517e5c241fa9d43b43161f44d4a8221fe9a658fa3ddf51fc4f0510ebf1",
        (2, 1, 2024, "5"): "2bf571179008149160b7644ad9ef0afd0ee12cc354f87934a1a57b8d77125a77",
        (2, 1, 2024, "inf"): "30a55558cf3a4b7ad7afb3e09ec4a566213ad91f7808621c60a7f04602393aaa",
        (3, 1, 7, "2"): "97d42acb6a971995c1877527978744bf01470c30eafae6862461b6f2e8cbeb04",
        (3, 1, 7, "5"): "aee6ee056f48c22a15f6b678ce0926e2f5758e08fa2f90a5c6fb607ba489d5da",
        (3, 1, 7, "inf"): "486af54130d5801402a8ad2f03c514fa7ff799d4b525ecccca21dffbb5a111d0",
        (3, 1, 2024, "2"): "17c2a7aaf338db51783e330c4881a4817eafd13dbc6c76d333a3746e200c2a18",
        (3, 1, 2024, "5"): "c69ea3db41fbd6e29a803de6ddfc210701cc169cd6bbb6bb18b7b60d6c3b0c8e",
        (3, 1, 2024, "inf"): "cd8fbf068b3657283518d9417107de12c2b1e4fc787e2aee9889b1a60c952660",
        (2, 2, 7, "2"): "3b43bddb0375e7097752629741311cb641189b51681f0246e455cc8df1e33ed2",
        (2, 2, 7, "5"): "aa4ef6e8466cd3457efbb3489dde97a04d50ce0aa21c4ae4431d37dda7b3b0cf",
        (2, 2, 7, "inf"): "5c6d2b3a24214cb6f937352e0350627fb3d96a0979bdb3d1ccece572a72370a8",
        (2, 2, 2024, "2"): "bd456f43e00461ce02b3b7e9139f3bdb3fbf92a3f470675fdad55a95d52d9a85",
        (2, 2, 2024, "5"): "48655becb3051a37f5ff2e42ce3e262f207257fb65774c79b68af86fd259224b",
        (2, 2, 2024, "inf"): "0e3a27d837ef6c77bd45a7d981dc544e111d9cba1feb7b49f21110d470f44e3e",
        (2, 4, 7, "2"): "7eecacd36b2f80b4df62aac0828ea9197d26533f2d75d5ef258df3c13b465d1f",
        (2, 4, 7, "5"): "d28451b112455bb420aa8db6e2c6c68c860ef7f3e53465e8b6931f9c29ff225d",
        (2, 4, 7, "inf"): "333b00680d69bcaf144286612f5cfd2c87fea7a962a556c83226779f731b93a5",
        (2, 4, 2024, "2"): "1f220297347ed0ae20495199632132feece753cae48499be96ffde10abee35c7",
        (2, 4, 2024, "5"): "0f24bebef1d64b96900c2d711cb29411ff4dac26a2e9f5201386cc9ff02947c3",
        (2, 4, 2024, "inf"): "6cf6eeb7d73e7049aeda78302d01970f9c09192339aafdf8d41ca32ee246df2a",
    }
    ENUMERATE_DIGESTS = {
        (2, 6, 2): "367b03f7cb3ccd710286c01e6c9cd2ce50541a95a19ea85168810b71654a502f",
        (3, 4, 1): "702aec751eca837f65854fbba0aa258c6334b344faff9cb9a175b6003a57fb9e",
    }

    @pytest.mark.parametrize(
        "key", sorted(GROW_DIGESTS), ids=lambda k: "GF%d^%d-seed%d-kappa%s" % k
    )
    def test_grow_output_pinned(self, capsys, key):
        p, m, seed, kappa = key
        code, out = run(capsys, "grassmann", "--p", str(p), "--m", str(m),
                        "--grow", kappa, "--nmax", "12", "--seed", str(seed))
        assert code == 0
        assert sha256(out) == self.GROW_DIGESTS[key]

    @pytest.mark.parametrize(
        "key", sorted(ENUMERATE_DIGESTS), ids=lambda k: "GF%d-n%d-k%d" % k
    )
    def test_enumerate_output_pinned(self, capsys, key):
        p, n, k = key
        code, out = run(capsys, "grassmann", "--p", str(p), "--enumerate", str(n), str(k))
        assert code == 0
        assert sha256(out) == self.ENUMERATE_DIGESTS[key]

    def test_gf1031_chain_pinned(self, capsys):
        # the CI digest: entries of up to four digits, arithmetic computed
        # per entry above TABLE_FIELD_SIZE and a uniform cutoff below 2^64
        code, out = run(capsys, "grassmann", "--p", "1031", "--grow", "3",
                        "--nmax", "12", "--seed", "4")
        assert code == 0
        assert sha256(out) == "9fa196802fd5bb0d6d364b9a3f77ba6d15d89fd27a8e6ca0d9499302d38687b4"

    def test_composite_characteristic_exit_code(self, capsys):
        code, _ = run(capsys, "grassmann", "--p", "6", "--enumerate", "2", "1")
        assert code == 5

    def test_guard_exit_code(self, capsys):
        code, _ = run(capsys, "grassmann", "--p", "2", "--enumerate", "40", "20")
        assert code == 6

    def test_guard_refuses_without_finishing_the_count(self, capsys):
        # the full [4000 choose 2000]_2 took 45 s to compute
        start = time.perf_counter()
        code = main(["grassmann", "--p", "2", "--enumerate", "4000", "2000"])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert (code, captured.out) == (6, "")
        assert captured.err == (
            "guard: subspaces would enumerate more than 262144 objects"
            " (override with QB_MAX_ENUM)\n"
        )

    def test_guard_count_too_long_to_print(self, capsys):
        # [300 choose 150]_2 has about 6,800 digits, above Python's
        # int-to-str limit; the guard message must not format it
        code = main(["grassmann", "--p", "2", "--enumerate", "300", "150"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (6, "")
        assert captured.err.startswith("guard: ")

    @pytest.mark.parametrize("p, m", [("3", "10000"), ("4", "100")])
    def test_field_size_refused_before_it_is_built(self, capsys, p, m):
        # 3^10000 has 4,772 digits, too many to print, so the message names
        # the bound; a composite p above the limit is refused by size too
        start = time.perf_counter()
        code = main(["grassmann", "--p", p, "--m", m, "--grow", "1"])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert (code, captured.out) == (6, "")
        assert captured.err == "guard: field size exceeds the limit 1048576\n"

    def test_default_modulus_given_explicitly(self, capsys):
        base = ("grassmann", "--p", "2", "--m", "2", "--enumerate", "2", "1")
        code, default = run(capsys, *base)
        assert code == 0
        assert run(capsys, *base, "--modulus", "1,1,1") == (0, default)

    def test_reducible_modulus_is_a_field_error(self, capsys):
        # x^2 + 1 = (x + 1)^2 over GF(2)
        code, out = run(capsys, "grassmann", "--p", "2", "--m", "2",
                        "--modulus", "1,0,1", "--enumerate", "2", "1")
        assert (code, out) == (5, "")

    def test_malformed_modulus_is_a_usage_error(self, capsys):
        code, out = run(capsys, "grassmann", "--p", "2", "--m", "2",
                        "--modulus", "1,x", "--enumerate", "2", "1")
        assert (code, out) == (2, "")

    def test_empty_modulus_is_a_usage_error(self, capsys):
        code, out = run(capsys, "grassmann", "--p", "2", "--modulus", "", "--grow", "1")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("extra, bad", [(("--modulus", "5,1"), 5),
                                            (("--m", "2", "--modulus", "1,1,3"), 3)])
    def test_coefficient_outside_the_prime_field_is_a_field_error(self, capsys, extra, bad):
        code = main(["grassmann", "--p", "2", *extra, "--grow", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (5, "")
        assert captured.err == "field error: modulus coefficient %d is outside [0, 2)\n" % bad


class TestFlip:
    def test_word(self, capsys):
        code, out = run(capsys, "flip", "--word", "10", "--q", "2")
        assert code == 0
        assert json.loads(out) == {"word": "01", "q": "1/2"}

    def test_array_roundtrip(self, capsys, tmp_path):
        base = extreme_chain(1, HALF).triangle(4)
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

    def test_word_needs_q(self, capsys):
        code = main(["flip", "--word", "10"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "--q is required" in captured.err

    def test_input_q_must_match_the_file(self, capsys, tmp_path):
        triangle = extreme_chain(1, HALF).triangle(3)
        path = write_json(tmp_path / "half.json", triangle.to_jsonable())
        code = main(["flip", "--input", path, "--q", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "q = 7 does not match the triangle's q = 1/2" in captured.err

    def test_input_q_that_matches_changes_nothing(self, capsys, tmp_path):
        pre = VArray(QParam(F(2)), ((F(1),), (F(1, 3), F(2, 3))))
        path = write_json(tmp_path / "super.json", pre.to_jsonable())
        code, plain = run(capsys, "flip", "--input", path)
        assert code == 0
        for q in ("2", "4/2"):
            assert run(capsys, "flip", "--input", path, "--q", q) == (0, plain)


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

    @pytest.mark.parametrize("command", [
        ["sample", "--process", "polya", "--n", "3", "--seed", "0"],
        ["table", "--law", "polya", "--depth", "3"],
    ], ids=["sample", "table"])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_urn_strength_beyond_a_float_is_a_usage_error(self, capsys, command, name):
        a, b = ("1e400", "1") if name == "a" else ("1", "1e400")
        code = main(command + ["--q", "1/2", "--a", a, "--b", b])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: %s is too large for a float\n" % name

    def test_urn_refusal_prints_strengths_in_the_wire_format(self, capsys):
        # at any depth, the root row's included, and for the tilde kind
        for flags in [("--depth", "2"), ("--depth", "0"), ("--kind", "tilde", "--depth", "3")]:
            code = main(["table", "--law", "polya", "--a", "1/2", "--b", "1", "--q", "1/2",
                         *flags])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), flags
            assert captured.err == "error: triangle requires integer strengths, got a=1/2 b=1\n"

    @pytest.mark.parametrize("command", [
        ["sample", "--process", "polya", "--n", "3", "--seed", "0"],
        ["table", "--law", "polya", "--depth", "2"],
    ], ids=["sample", "table"])
    def test_urn_super_unit_q_regime(self, capsys, command):
        code = main(command + ["--a", "1", "--b", "1", "--q", "3/2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            "regime error: urn process needs q <= 1 (flip first for q > 1)\n"
        )


MEMORY_CAP = 512 << 20  # bytes of address space for one capped run


def run_capped(*argv, cap=MEMORY_CAP):
    """``qpascal argv`` in a fresh interpreter under an address space limit
    of ``cap`` bytes: (exit code, stdout bytes, stderr text, wall seconds)."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    code = "import sys; from qpascal.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {"PYTHONPATH": str(Path(qpascal.__file__).resolve().parents[1])}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          env=env, preexec_fn=limit, timeout=60)
    return (done.returncode, done.stdout, done.stderr.decode(),
            time.perf_counter() - start)


class TestMemoryBound:
    """A deep level law keeps one Gaussian cell and a few powers, and a
    flip takes q's powers per nonzero cell, so their memory follows what
    the command prints; a table of the powers up to b^(n^2/4) made --n 800
    and a depth-500 flip end in MemoryError under the cap.  A Grassmannian
    and a growth chain cost what they print too, whatever kappa is, and so
    do a runs word near q = 1 and an all-ones level."""

    # the --n 400 digest is the histogram as printed while the powers
    # were tabulated
    @pytest.mark.parametrize("n, digest", [
        (400, "d1c49cbf5336c19f8082f2ed7ec161f45319d9738302bf17d53ac8f505ee86ca"),
        (800, None),
    ])
    def test_deep_extreme_level_under_the_cap(self, n, digest):
        code, out, err, seconds = run_capped(
            "sample", "--process", "extreme", "--kappa", "5", "--q", "1/2",
            "--n", str(n), "--trials", "1", "--seed", "0")
        assert (code, err) == (0, "")
        assert out.count(b"\n") == n + 2
        if digest:
            assert hashlib.sha256(out).hexdigest() == digest
        assert seconds < 2.0

    def test_long_word_thresholds_under_the_cap(self):
        # a threshold slot per lattice cell, n(n+1)/2 of them, took 155 MB
        # at n 6000 and 1.5 GB at n 20000; the walk visits one cell a row
        n, kappa = 20000, 5
        code, out, err, seconds = run_capped(
            "sample", "--process", "extreme", "--kappa", str(kappa), "--q", "1/2",
            "--n", str(n), "--seed", "0", cap=256 << 20)
        assert (code, err) == (0, "")
        assert seconds < 2.0
        # the word of an independent walk: draw i is mix64(i * GOLDEN), and
        # a letter after k ones is a one iff its draw is below
        # ceil((1 - 2^(k - kappa)) 2^64)
        bits, k = [], 0
        for i in range(1, n + 1):
            one = k < kappa and mix64(i * GOLDEN) < (1 << 64) - (1 << (64 + k - kappa))
            bits.append("1" if one else "0")
            k += one
        word = json.loads(out)["word"]
        assert word == "".join(bits)
        assert hashlib.sha256(out).hexdigest() == (
            "d0473edbd2be5275d6ff58d677b7ffc263df97487d7eb5dbe803ee39eff14063")

    def test_deep_zero_flip_under_the_cap(self, tmp_path):
        # a table of q's powers up to q^(depth^2/4) ended this in MemoryError
        depth = 500
        path = write_json(tmp_path / "zero.json", {
            "q": "3/2", "depth": depth, "v": [["0"] * (n + 1) for n in range(depth + 1)]})
        code, out, err, seconds = run_capped("flip", "--input", path)
        assert (code, err) == (0, "")
        flipped = json.loads(out)
        assert flipped["q"] == "2/3"
        assert flipped["v"][depth] == ["0"] * (depth + 1)
        assert seconds < 2.0

    def test_square_grassmannian_under_the_cap(self):
        # one 1600 x 1600 basis, 28 MB of JSON
        code, out, err, seconds = run_capped("grassmann", "--p", "2", "--enumerate",
                                             "1600", "1600")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out).hexdigest() == (
            "9d2abaff9e4e85d635fdf874f0190cb2a4b3d30e91152710b2a34695ece63e7c")
        assert seconds < 2.0

    def test_large_urn_strength_under_the_cap(self):
        # a gcd of two numbers of about a + b + n bits per cell took 17 s
        code, out, err, seconds = run_capped("sample", "--process", "polya", "--a", "1000000",
                                             "--b", "1", "--q", "1/2", "--n", "3", "--seed", "0")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out).hexdigest() == (
            "1d022cc00c99651b278303b96af7678dfc75ac2667a5a40007071a2f823b0e96")
        assert seconds < 1.0

    # the extreme samplers at a kappa far above any level: every gap
    # exceeds M(q), so each threshold is 2^64 without the power q^kappa
    @pytest.mark.parametrize("q, n, mode", [
        ("999/1000", 5, "forward"), ("999/1000", 5, "runs"), ("1/2", 22, "forward")])
    def test_huge_kappa_samplers_under_the_cap(self, capsys, q, n, mode):
        argv = ["sample", "--process", "extreme", "--q", q, "--n", str(n), "--seed", "0",
                "--mode", mode, "--kappa"]
        code, out, err, seconds = run_capped(*argv, "1000000")
        assert (code, err) == (0, "")
        assert seconds < 1.0
        word = json.loads(out)["word"]
        assert word == json.loads(run(capsys, *argv, "inf")[1])["word"] == "1" * n

    def test_runs_near_one_under_the_cap(self):
        # a run reads at most the letters left; growing the cutoffs to the
        # full run length did not end in 15 s
        code, out, err, seconds = run_capped(
            "sample", "--process", "extreme", "--mode", "runs", "--q", "99999/100000",
            "--kappa", "1", "--n", "5", "--seed", "0")
        assert (code, err) == (0, "")
        assert seconds < 1.0
        # the one run exceeds 4 zeros iff the first draw reaches the
        # cutoff 2^64 - floor(q^5 2^64)
        assert mix64(GOLDEN) >= (1 << 64) - math.floor(F(99999, 100000) ** 5 * (1 << 64))
        assert json.loads(out)["word"] == "00000"

    def test_all_ones_level_under_the_cap(self):
        # the level reads only the Gaussian cell [n n] of the products'
        # support; building the whole row took 1.2 s at n 1200
        n = 4500
        code, out, err, seconds = run_capped(
            "sample", "--process", "extreme", "--kappa", "inf", "--q", "1/2",
            "--n", str(n), "--trials", "2", "--seed", "4")
        assert (code, err) == (0, "")
        assert seconds < 2.0
        rows = ["%d,0,0,0" % k for k in range(n)] + ["%d,2,1,1" % n]
        assert out.decode() == "\n".join(["k,count,frequency,expected", *rows]) + "\n"

    def test_huge_kappa_growth_under_the_cap(self):
        # building (1/3)^(10^8) kept this from ending
        code, out, err, seconds = run_capped("grassmann", "--p", "3", "--grow", "100000000",
                                             "--nmax", "5", "--seed", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["word"] == "11111"
        assert seconds < 1.0


class TestInputFiles:
    """Every input file goes through one reader: a file of the wrong shape
    is a usage error (exit 2) with a message naming the file, never a
    traceback; a constraint the values break stays exit 4."""

    def expect_not_a(self, capsys, kind, argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert "is not a %s file" % kind in err
        assert "Traceback" not in err

    def test_measure_file_with_scalar_atoms(self, capsys, tmp_path):
        path = write_json(tmp_path / "m.json", {"q": "1/2", "atoms": 5})
        self.expect_not_a(capsys, "measure", ["table", "--law", "mixture", "--q", "1/2",
                                              "--depth", "3", "--measure-file", path])

    def test_law_file_with_list_probs(self, capsys, tmp_path):
        path = write_json(tmp_path / "law.json", {"n": 1, "probs": [1]})
        self.expect_not_a(capsys, "law", ["check", "--kind", "exchangeable",
                                          "--input", path, "--q", "1/2"])

    def test_moments_file_with_scalar_moments(self, capsys, tmp_path):
        path = write_json(tmp_path / "mom.json", {"moments": 5})
        self.expect_not_a(capsys, "moments", ["check", "--kind", "monotone",
                                              "--input", path, "--q", "1/2"])

    def test_triangle_file_that_is_not_json(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{not json", encoding="utf-8")
        self.expect_not_a(capsys, "triangle", ["recover", "--input", str(path)])

    @pytest.mark.parametrize("where", ["cell", "q"])
    def test_json_float_in_a_triangle_is_refused(self, capsys, tmp_path, where):
        data = {"q": "1/2", "depth": 1, "v": [["1"], ["1/2", "1"]]}
        if where == "cell":
            data["v"][1][0] = 0.5
        else:
            data["q"] = 0.5
        path = write_json(tmp_path / "t.json", data)
        self.expect_not_a(capsys, "triangle", ["check", "--kind", "recursion",
                                               "--input", path])

    def test_json_float_in_a_law_is_refused(self, capsys, tmp_path):
        path = write_json(tmp_path / "law.json", {"n": 1, "probs": {"0": 0.5, "1": "1/2"}})
        self.expect_not_a(capsys, "law", ["check", "--kind", "exchangeable",
                                          "--input", path, "--q", "1/2"])

    def test_json_integer_cells_load(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", {"q": "1/2", "depth": 1, "v": [[1], [1, 0]]})
        code, out = run(capsys, "check", "--kind", "recursion", "--input", path)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_decimal_strings_and_integers_load(self, capsys, tmp_path):
        # the moments of the atom at x = q: 1, q, q^2
        path = write_json(tmp_path / "mom.json", {"moments": [1, "0.5", " 1/4 "]})
        code, out = run(capsys, "check", "--kind", "monotone", "--input", path,
                        "--q", "1/2")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_non_integer_atom_index_is_invalid_input(self, capsys, tmp_path):
        measure = {"q": "1/2", "atoms": [{"kappa": 1.5, "mass": "1"}], "zero_mass": "0"}
        path = write_json(tmp_path / "m.json", measure)
        code = main(["table", "--law", "mixture", "--q", "1/2", "--depth", "3",
                     "--measure-file", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert "non-negative integers" in captured.err

    def test_exponent_beyond_the_digit_limit_is_a_usage_error(self, capsys, tmp_path):
        # 10^5000 would load as a cell and fail the check (exit 4)
        path = write_json(tmp_path / "t.json", {"q": "1/2", "depth": 0, "v": [["1e5000"]]})
        code = main(["check", "--kind", "recursion", "--input", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "exponent" in captured.err

    def test_bad_values_in_a_well_formed_file_stay_exit_4(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", {"q": "1/2", "depth": 2, "v": [["1"], ["1", "0"]]})
        code = main(["recover", "--input", path, "--nu", "1", "--kmax", "1"])
        assert code == 4
        assert "declared depth" in capsys.readouterr().err


class TestZeroDenominator:
    """A rational with denominator 0 is a usage error, on the command line
    and in every input file."""

    def test_q_argument(self, capsys):
        code = main(["table", "--q", "1/0", "--depth", "2", "--kappa", "1"])
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_triangle_cell(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", {"q": "1/2", "depth": 1, "v": [["1"], ["1/0", "1"]]})
        code = main(["check", "--kind", "recursion", "--input", path])
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_measure_mass(self, capsys, tmp_path):
        measure = {"q": "1/2", "atoms": [{"kappa": 1, "mass": "1/0"}], "zero_mass": "0"}
        path = write_json(tmp_path / "m.json", measure)
        code = main(["table", "--law", "mixture", "--q", "1/2", "--depth", "3",
                     "--measure-file", path])
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err


class TestStrictReaders:
    """A count is a JSON integer and a row or a moment window is a list:
    anything else is a file of the wrong shape (exit 2)."""

    expect_not_a = TestInputFiles.expect_not_a

    @pytest.mark.parametrize("triangle", [
        {"q": "1/2", "depth": 1.9, "v": [["1"], "10"]},
        {"q": "1/2", "depth": 1.9, "v": [["1"], ["1", "0"]]},
        {"q": "1/2", "depth": True, "v": [["1"], ["1", "0"]]},
        {"q": "1/2", "depth": "1", "v": [["1"], ["1", "0"]]},
        {"q": "1/2", "depth": 1, "v": [["1"], "10"]},
        {"q": "1/2", "v": "1"},
    ], ids=["found-case", "float-depth", "bool-depth", "string-depth", "string-row",
            "string-rows"])
    def test_triangle(self, capsys, tmp_path, triangle):
        path = write_json(tmp_path / "t.json", triangle)
        self.expect_not_a(capsys, "triangle", ["check", "--kind", "recursion",
                                               "--input", path])

    @pytest.mark.parametrize("n", [1.7, True, "1"], ids=repr)
    def test_law_length(self, capsys, tmp_path, n):
        path = write_json(tmp_path / "law.json", {"n": n, "probs": {"0": "1/2", "1": "1/2"}})
        self.expect_not_a(capsys, "law", ["check", "--kind", "exchangeable",
                                          "--input", path, "--q", "1/2"])

    def test_moments_string(self, capsys, tmp_path):
        path = write_json(tmp_path / "mom.json", {"moments": "1"})
        self.expect_not_a(capsys, "moments", ["check", "--kind", "monotone",
                                              "--input", path, "--q", "1/2"])


def test_negative_law_length_is_invalid_input(capsys, tmp_path):
    # a count that reads, but no law has a negative length (exit 4)
    path = write_json(tmp_path / "law.json", {"n": -1, "probs": {}})
    code = main(["check", "--kind", "exchangeable", "--input", path, "--q", "1/2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "invalid input: law length -1 is negative\n"


def _locations(value, path=()):
    """Every key or index path below the root of a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _locations(item, path + (key,))


class TestMalformedFiles:
    """Valid input files, each mutated once: a key or element dropped, a
    value replaced by a float, bool, string, list or null, a value nested
    one level deeper, or the text cut short.  Every mutant exits with a
    code from README's list; no exception escapes ``main``."""

    FILES = {
        "triangle": extreme_chain(2, HALF).triangle(3).to_jsonable(),
        "measure": {"q": "1/2", "atoms": [{"kappa": 0, "mass": "1/2"},
                                          {"kappa": 2, "mass": "1/4"}],
                    "zero_mass": "1/4"},
        "law": law_to_jsonable(chain_law(extreme_chain(1, HALF), 2)),
        "moments": {"moments": ["1", "1/2", "1/4", "1/8"]},
    }
    COMMANDS = {
        "triangle": [["check", "--kind", "recursion", "--input"],
                     ["recover", "--nu", "3", "--kmax", "1", "--input"],
                     ["flip", "--input"]],
        "measure": [["table", "--law", "mixture", "--q", "1/2", "--depth", "3",
                     "--measure-file"]],
        "law": [["check", "--kind", "exchangeable", "--q", "1/2", "--input"]],
        "moments": [["check", "--kind", "monotone", "--q", "1/2", "--input"]],
    }
    REPLACEMENTS = [0.5, 2.0, True, False, "", "x", "1/0", "1", [], ["1"], None]

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutant_exits_with_a_documented_code(self, capsys, tmp_path, data):
        kind = data.draw(st.sampled_from(sorted(self.FILES)))
        obj = copy.deepcopy(self.FILES[kind])
        op = data.draw(st.sampled_from(["drop", "replace", "nest", "truncate"]))
        if op == "truncate":
            text = json.dumps(obj)
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        else:
            path = data.draw(st.sampled_from(list(_locations(obj))))
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            if op == "drop":
                del parent[path[-1]]
            elif op == "replace":
                parent[path[-1]] = data.draw(st.sampled_from(self.REPLACEMENTS))
            else:
                parent[path[-1]] = [parent[path[-1]]]
            text = json.dumps(obj)
        target = tmp_path / "input.json"
        target.write_text(text, encoding="utf-8")
        for argv in self.COMMANDS[kind]:
            code = main(argv + [str(target)])
            assert code in (0, 2, 3, 4, 5, 6)
            assert "Traceback" not in capsys.readouterr().err

    DEEP_KEYS = {"triangle": "v", "measure": "atoms", "law": "probs", "moments": "moments"}

    @pytest.mark.parametrize(
        "kind, argv",
        [(kind, argv) for kind, argvs in COMMANDS.items() for argv in argvs],
        ids=lambda x: x if isinstance(x, str) else x[0] + "-" + x[-1].lstrip("-"),
    )
    def test_deep_nesting_is_a_usage_error(self, capsys, tmp_path, kind, argv):
        # json.load's RecursionError once escaped main as a traceback
        depth = 100_000
        obj = dict(self.FILES[kind], **{self.DEEP_KEYS[kind]: None})
        text = json.dumps(obj).replace("null", "[" * depth + "]" * depth)
        target = tmp_path / "nested.json"
        target.write_text(text, encoding="utf-8")
        assert main(argv + [str(target)]) == 2
        err = capsys.readouterr().err
        assert "is not a %s file: RecursionError" % kind in err
        assert "Traceback" not in err


class TestOneTask:
    @pytest.mark.parametrize(
        "argv",
        [
            ("grassmann", "--p", "2", "--enumerate", "2", "1", "--grow", "3"),
            ("grassmann", "--p", "2"),
            ("flip", "--word", "10", "--q", "2", "--input", "t.json"),
            ("flip", "--q", "2"),
        ],
        ids=["grassmann-both", "grassmann-neither", "flip-both", "flip-neither"],
    )
    def test_exactly_one_is_required(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with" in err or "is required" in err


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

    def test_non_integer_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--q", "1/2", "--kappa", "1", "--depth", "1.5"])
        assert exc.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--q", "1/2", "--kappa", "-1", "--depth", "2"),
            ("sample", "--process", "extreme", "--kappa", "-1", "--q", "1/2",
             "--n", "3", "--seed", "0"),
            ("grassmann", "--p", "2", "--grow", "-1"),
        ],
        ids=["table", "sample", "grassmann"],
    )
    def test_negative_kappa_is_a_usage_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "kappa must be" in captured.err

    def test_largest_seed_accepted(self, capsys):
        seed = (1 << 64) - 1
        code, out = run(capsys, *self.SAMPLE, "--n", "4", "--seed", str(seed))
        assert code == 0
        word = extreme_chain(1, HALF).sampler()(4, SplitMix64(seed))
        assert json.loads(out)["word"] == str(word)

    def test_single_trial_is_a_histogram(self, capsys):
        code, out = run(capsys, *self.SAMPLE, "--n", "4", "--seed", "1",
                        "--trials", "1")
        assert code == 0
        assert out.splitlines()[0] == "k,count,frequency,expected"


# JSON values of every kind the emitter must spell as json.dumps does;
# the text alphabet favours quotes, backslashes, controls and non-ASCII
TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600'))
INTS = (st.integers() | st.integers(min_value=2**64, max_value=2**200)
        | st.integers(min_value=-(2**200), max_value=-(2**64)))
SCALARS = st.none() | st.booleans() | INTS | TEXT | st.floats()

# grids of ints as the emitter meets them (vectors, bases, lists of
# bases), as lists or tuples, some ragged, some with [] at any level, and
# with single digits, wider, negative and huge leaves or a bool among them
GRID_LEAVES = st.sampled_from([
    st.integers(0, 9), st.integers(-1, 10), st.integers(0, 300),
    st.integers(-(2**70), 2**70),
    st.integers(0, 9) | st.booleans(), INTS,
])


@st.composite
def int_grids(draw):
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    leaf = draw(GRID_LEAVES)
    ragged = draw(st.booleans())

    def grid(depth):
        if depth == len(shape):
            return draw(leaf)
        width = draw(st.integers(0, 4)) if ragged else shape[depth]
        rows = [grid(depth + 1) for _ in range(width)]
        return tuple(rows) if draw(st.booleans()) else rows

    return grid(0)


@st.composite
def one_digit_grids(draw):
    """A grid of leaves 0-9, depth 1-3 and widths 1-12, its lists and
    tuples mixed, alone, as a dict value and as an item of a list."""
    shape = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    leaves = iter(draw(st.binary(min_size=math.prod(shape), max_size=math.prod(shape))))
    rnd = draw(st.randoms(use_true_random=False))

    def grid(depth):
        if depth == len(shape):
            return next(leaves) % 10
        rows = [grid(depth + 1) for _ in range(shape[depth])]
        return tuple(rows) if rnd.random() < 0.5 else rows

    value = grid(0)
    return draw(st.sampled_from([value, {"n": 3, "basis": value}, [value, "x"], [value, value]]))


@st.composite
def vouched_grids(draw):
    """A grid as ``grassmann`` vouches for it: a k x n basis (k or n may
    be 0) or a list of such bases, of leaves below 10, 16 or 2^20, alone,
    as a growth chain's basis or as an enumeration's list."""
    high = draw(st.sampled_from([9, 15, 2**20 - 1]))
    count, k, n = draw(st.integers(0, 4)), draw(st.integers(0, 5)), draw(st.integers(0, 6))
    leaf = st.integers(0, high)

    def basis():
        return tuple(tuple(draw(leaf) for _ in range(n)) for _ in range(k))

    if draw(st.booleans()):
        grid = cli._Grid(basis())
        payload = {"field": {"p": 2, "m": 1, "modulus": [0, 1]}, "kappa": "3", "seed": 1,
                   "word": "01", "chain": [{"n": 0, "dim": 0, "basis": cli._Grid(())},
                                           {"n": n, "dim": k, "basis": grid}]}
    else:
        grid = cli._Grid(basis() for _ in range(count))
        payload = {"field": {"p": 2, "m": 1, "modulus": [0, 1]}, "n": n, "k": k,
                   "count": count, "subspaces": grid}
    return draw(st.sampled_from([grid, payload]))


JSON_VALUES = st.recursive(
    SCALARS | int_grids(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.lists(INTS) | st.lists(TEXT) | st.dictionaries(TEXT, inner),
    max_leaves=20,
)


class TestJsonEmitter:
    """Every command prints ``cli._dumps(payload)``; its bytes are
    ``json.dumps(payload, indent=2)``'s, which README states as a contract."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_bytes_match_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    # grids of one-digit leaves are written into a fixed text template
    @settings(max_examples=200, deadline=None)
    @given(one_digit_grids())
    def test_one_digit_grids_match_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    # the grids grassmann builds go out by a path of their own
    @settings(max_examples=300, deadline=None)
    @given(vouched_grids())
    def test_vouched_grids_match_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], [{}], {"": []}, [True, 1], [1, True], [False], [None],
        [1, "1"], [2**64, -(2**64)], ["\u00e9", "\n"], [1.0, 1], [float("nan")],
        [[1, 2], [3]], [[1], []], [[[]]], [[0, 1], [1, True]], [(0, 1), [2, 3]],
        [[0, 9], [10]], [[0, 9], [10, 255]], [[256, -1]], [[1, 2], 3], [1, [2]],
        [[[0, 1]], [[2, 3]]],
        # one-digit grids and their neighbours just outside the digit path
        [[9]], [[[0]]], [[i % 10 for i in range(50)]], [[9, 10]], [[0, True]],
        [[0, -1]], [[255, 256]], [[[(7 * i + j) % 10 for j in range(30)] for i in range(3)]],
    ], ids=repr)
    def test_edge_cases(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("shape", [(1,), (9,), (1, 1600), (1, 3, 40), (40, 3, 1), (5, 7, 2)])
    def test_digits_go_in_by_lines_of_the_longest_axis(self, shape):
        # a 1 x 1600 x 1600 basis written by lines of its top axis took
        # 2,560,000 writes
        reads = []

        class Digits(bytes):
            def __getitem__(self, key):
                reads.append(key)
                return bytes.__getitem__(self, key)

        leaves = [(7 * i + i // 3) % 10 for i in range(math.prod(shape))]
        grid = leaves
        for width in reversed(shape[1:]):
            grid = [grid[i:i + width] for i in range(0, len(grid), width)]
        text = cli._digit_grid(Digits(bytes(48 + x for x in leaves)), list(shape), "\n")
        assert "[\n  " + text + "\n]" == json.dumps(grid, indent=2)
        assert len(reads) == math.prod(shape) // max(shape)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)], ids=repr)
    def test_non_str_key_raises(self, key):
        with pytest.raises(TypeError):
            cli._dumps({"a": [{key: 1}]})

    JSON_COMMANDS = {
        "table-v": ["table", "--kappa", "2", "--q", "1/2", "--depth", "4"],
        "table-tilde": ["table", "--law", "theta", "--theta", "3/2", "--q", "2/3",
                        "--depth", "4", "--kind", "tilde"],
        "table-d": ["table", "--kind", "d", "--q", "3", "--depth", "4"],
        "sample": ["sample", "--process", "polya", "--a", "2", "--b", "1", "--q", "1/2",
                   "--n", "9", "--seed", "4"],
        "recover": ["recover", "--input", "{half}", "--nu", "8", "--kmax", "3"],
        "check-recursion": ["check", "--kind", "recursion", "--input", "{half}"],
        "check-recursion-fails": ["check", "--kind", "recursion", "--input", "{broken}"],
        "check-exchangeable": ["check", "--kind", "exchangeable", "--input", "{law}",
                               "--q", "1/2"],
        "check-monotone": ["check", "--kind", "monotone", "--input", "{moments}",
                           "--q", "1/2"],
        "grassmann-enumerate": ["grassmann", "--p", "3", "--enumerate", "3", "2"],
        "grassmann-grow": ["grassmann", "--p", "2", "--m", "2", "--grow", "3",
                           "--nmax", "6", "--seed", "9"],
        "flip-word": ["flip", "--word", "1101", "--q", "3"],
        "flip-input": ["flip", "--input", "{super}"],
    }

    @pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
    def test_command_output_is_json_dumps_indent_2(self, capsys, tmp_path, name):
        half = extreme_chain(2, HALF).triangle(8)
        broken = half.to_jsonable()
        broken["v"][3][1] = "1/7"
        files = {
            "half": half.to_jsonable(),
            "broken": broken,
            "law": law_to_jsonable(chain_law(extreme_chain(1, HALF), 3)),
            "moments": {"moments": ["1", "1/2", "1/4", "1/8"]},
            "super": VArray(QParam(F(2)), ((F(1),), (F(1, 3), F(2, 3)))).to_jsonable(),
        }
        paths = {key: write_json(tmp_path / (key + ".json"), obj) for key, obj in files.items()}
        code, out = run(capsys, *(arg.format(**paths) for arg in self.JSON_COMMANDS[name]))
        assert code in (0, 4)
        # an oracle that shares nothing with the emitter
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestParserReuse:
    """``main`` parses with one parser built on first use; nothing of one
    call may reach the next."""

    SAMPLE = ("sample", "--process", "extreme", "--kappa", "1", "--q", "1/2",
              "--n", "5", "--seed", "2")

    def test_one_parser_serves_every_call(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli._parser()

    def test_histogram_then_word(self, capsys):
        code, out = run(capsys, *self.SAMPLE, "--trials", "3")
        assert code == 0
        assert out.startswith("k,count,frequency,expected\n")
        code, out = run(capsys, *self.SAMPLE)
        assert code == 0
        word = extreme_chain(1, HALF).sampler()(5, SplitMix64(2))
        assert json.loads(out)["word"] == str(word)

    def test_output_file_then_stdout(self, capsys, tmp_path):
        argv = ("table", "--kind", "d", "--q", "2", "--depth", "2")
        target = tmp_path / "d.json"
        assert run(capsys, *argv, "-o", str(target)) == (0, "")
        code, out = run(capsys, *argv)
        assert code == 0
        assert out == target.read_text(encoding="utf-8")

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grassmann", "--p", "2", "--enumerate", "3", "1", "--grow", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out = run(capsys, "grassmann", "--p", "2", "--enumerate", "3", "1")
        assert code == 0
        assert json.loads(out)["count"] == 7
        # a usage error found by a handler, not by argparse, exits 2 too
        assert run(capsys, "table", "--q", "1/2", "--depth", "3")[0] == 2
        code, out = run(capsys, "table", "--q", "1/2", "--depth", "1", "--kappa", "0")
        assert code == 0
        assert json.loads(out) == extreme_chain(0, HALF).triangle(1).to_jsonable()


def readme_examples():
    """(command line, printed text) of every README block that starts
    with a ``qpascal`` command."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```\n(qpascal .*?\n)```$", readme.read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    return [tuple(block.split("\n", 1)) for block in blocks]


def test_readme_has_command_examples():
    assert [cmd.split()[1] for cmd, _ in readme_examples()] == ["table", "sample", "flip"]


@pytest.mark.parametrize("example", readme_examples(), ids=lambda e: e[0].split()[1])
def test_readme_example_prints_what_it_shows(capsys, example):
    command, printed = example
    code, out = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    assert out == printed
