import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hyperind import (build_hrd, build_matching, cli, random_quasi_bipartite,
                      verification, write_hypergraph)
from hyperind.cli import main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_hrd(self, capsys):
        code, out, _ = run(capsys, ["construct", "hrd", "--r", "3", "--d", "2"])
        assert code == 0
        assert out == "6\n0 2 3\n0 4 5\n1 2 3\n1 4 5\n"

    def test_matching(self, capsys):
        code, out, _ = run(capsys, ["construct", "matching", "--r", "2", "--k", "2"])
        assert code == 0
        assert out == "4\n0 1\n2 3\n"

    def test_td3(self, capsys):
        code, out, _ = run(capsys, ["construct", "td3", "--m", "1"])
        assert code == 0
        assert out == "3\n0 1 2\n"

    def test_bad_args_exit_2(self, capsys):
        code, _, err = run(capsys, ["construct", "hrd", "--r", "1", "--d", "2"])
        assert code == 2
        assert "error" in err


class TestCount:
    def test_stdin_brute(self, capsys, monkeypatch):
        hg = "6\n0 2 3\n0 4 5\n1 2 3\n1 4 5\n"
        code, out, _ = run(capsys, ["count", "-", "--method", "brute"],
                           stdin=hg, monkeypatch=monkeypatch)
        assert code == 0
        assert out == "43\n"

    def test_file_branch(self, capsys, tmp_path):
        p = tmp_path / "g.hg"
        p.write_text("5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        code, out, _ = run(capsys, ["count", str(p), "--method", "branch"])
        assert code == 0
        assert out == "11\n"

    def test_parse_error_exit_2(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["count", "-"], stdin="2\n0 3\n",
                           monkeypatch=monkeypatch)
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, ["count", "/nonexistent/x.hg"])
        assert code == 2


class TestCheckConjecture:
    def test_extremal_json(self, capsys, monkeypatch):
        hg = "6\n0 2 3\n0 4 5\n1 2 3\n1 4 5\n"
        code, out, _ = run(capsys, ["check-conjecture", "-", "--json"],
                           stdin=hg, monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert data["holds"] is True
        assert data["equality"] is True
        assert data["ind"] == "43"
        assert data["lhs"] == str(43 ** 6)
        assert data["rhs"] == str(43 ** 6)

    def test_human_output(self, capsys, monkeypatch):
        hg = "5\n0 1\n0 4\n1 2\n2 3\n3 4\n"
        code, out, _ = run(capsys, ["check-conjecture", "-"],
                           stdin=hg, monkeypatch=monkeypatch)
        assert code == 0
        assert "holds: true" in out
        assert "equality: false" in out


class TestVerifyProof:
    def test_extremal_json(self, capsys, monkeypatch):
        hg = "6\n0 2 3\n0 4 5\n1 2 3\n1 4 5\n"
        code, out, _ = run(capsys, ["verify-proof", "-", "--json"],
                           stdin=hg, monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        assert len(data["steps"]) == 9
        assert data["findings"] == []

    def test_not_quasi_bipartite_exit_2(self, capsys, monkeypatch):
        hg = "3\n0 1\n0 2\n1 2\n"
        code, _, err = run(capsys, ["verify-proof", "-"],
                           stdin=hg, monkeypatch=monkeypatch)
        assert code == 2
        assert "quasi-bipartite" in err

    def test_long_matching_reaches_the_cap(self, capsys, monkeypatch):
        # 2,400 vertices: the entropy cap rejects the matching before the
        # recogniser runs
        hg = write_hypergraph(build_matching(2, 1200))
        code, out, err = run(capsys, ["verify-proof", "-"],
                             stdin=hg, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err == "error: joint_distribution capped at n <= 24, got n = 2400\n"

    def test_over_cap_input_reports_the_cap(self, capsys, monkeypatch):
        # C_25 is not quasi-bipartite either, but n = 25 is over the entropy
        # cap, which is checked before the recogniser runs
        monkeypatch.delenv("HYPERIND_CAPS", raising=False)
        hg = "25\n0 24\n" + "".join(f"{i} {i + 1}\n" for i in range(24))
        code, out, err = run(capsys, ["verify-proof", "-"],
                             stdin=hg, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == "error: joint_distribution capped at n <= 24, got n = 25\n"


#: ``check-conjecture`` output, byte for byte, text then ``--json``
GOLDEN_CHECKS = {
    "6\n0 2 3\n0 4 5\n1 2 3\n1 4 5\n": (  # H(3,2)
        'r=3 d=2 n=6\n'
        'ind(G) = 43\n'
        'lhs = ind(G)^(rd) = 6321363049\n'
        'rhs = ind(H)^n   = 6321363049\n'
        'holds: true  equality: true\n'
        'slack: 0 bits per block\n',
        '{"r": 3, "d": 2, "n": 6, "ind": "43", "lhs": "6321363049", '
        '"rhs": "6321363049", "holds": true, "equality": true, '
        '"slack_bits": 0.0}\n'
    ),
    "5\n0 1\n1 2\n2 3\n3 4\n0 4\n": (  # C_5
        'r=2 d=2 n=5\n'
        'ind(G) = 11\n'
        'lhs = ind(G)^(rd) = 14641\n'
        'rhs = ind(H)^n   = 16807\n'
        'holds: true  equality: false\n'
        'slack: 0.0497620339347078 bits per block\n',
        '{"r": 2, "d": 2, "n": 5, "ind": "11", "lhs": "14641", '
        '"rhs": "16807", "holds": true, "equality": false, '
        '"slack_bits": 0.0497620339347078}\n'
    ),
}

#: ``compare --r 3`` output, byte for byte, text then ``--json``
GOLDEN_COMPARES = {
    ("--t", "2"): (
        'complete-r-partite: r=3 d=4\n'
        'ind(H) = 1471  ind(rival) = 37\n'
        'at L=12 vertices: 1471 vs 1369\n'
        'winner: hrd\n',
        '{"kind": "complete-r-partite", "r": 3, "d": 4, "ind_hrd": "1471", '
        '"ind_rival": "37", "L": 12, "hrd_power": "1471", '
        '"rival_power": "1369", "winner": "hrd"}\n'
    ),
    ("--m", "3"): (
        'transversal-design-3: r=3 d=3\n'
        'ind(H) = 253  ind(rival) = 214\n'
        'at L=9 vertices: 253 vs 214\n'
        'winner: hrd\n',
        '{"kind": "transversal-design-3", "r": 3, "d": 3, "ind_hrd": "253", '
        '"ind_rival": "214", "L": 9, "hrd_power": "253", '
        '"rival_power": "214", "winner": "hrd"}\n'
    ),
}


class TestCheckAndCompareGolden:
    @pytest.mark.parametrize("hg", list(GOLDEN_CHECKS))
    def test_check_conjecture_byte_for_byte(self, capsys, monkeypatch, hg):
        for argv, expected in zip(([], ["--json"]), GOLDEN_CHECKS[hg]):
            code, out, err = run(capsys, ["check-conjecture", "-"] + argv,
                                 stdin=hg, monkeypatch=monkeypatch)
            assert (code, out, err) == (0, expected, ""), argv

    @pytest.mark.parametrize("rival", list(GOLDEN_COMPARES))
    def test_compare_byte_for_byte(self, capsys, rival):
        for argv, expected in zip(([], ["--json"]), GOLDEN_COMPARES[rival]):
            code, out, err = run(capsys, ["compare", "--r", "3", *rival] + argv)
            assert (code, out, err) == (0, expected, ""), argv


#: ``verify-proof`` output, byte for byte, as the float-loop entropy gave it
#: before the checker summed powers of two exactly; keyed by the
#: ``random_quasi_bipartite(r, d, num_a, Random(seed))`` arguments, or None
#: for H(3,2).  The instances hold margins of a few ulps that any change to
#: an entropy sum would move.
GOLDEN_PROOFS = {
    None: (
        'r=3 d=2 n=6  ind(G)=43\n'
        'log2 ind(G) = 5.4262647547021  bound = 5.4262647547021\n'
        'cover-validity: lhs=2 rhs=2 margin=0 PASS\n'
        'shearer: lhs=3.75184615005093 rhs=3.75184615005093 margin=0 PASS\n'
        'subadditivity: lhs=1.67441860465116 rhs=1.67441860465116 '
        'margin=8.88178419700125e-16 PASS\n'
        'conditioning-reduction: lhs=0 rhs=0 margin=0 PASS\n'
        'lambda-bound: lhs=1 rhs=1 margin=0 PASS\n'
        'jensen: lhs=5.4262647547021 rhs=5.4262647547021 margin=0 PASS\n'
        'counting-bound: lhs=43 rhs=43 margin=0 PASS\n'
        'link-bound: lhs=9 rhs=9 margin=0 PASS\n'
        'final-bound: lhs=5.4262647547021 rhs=5.4262647547021 margin=0 PASS\n'
        'all steps passed\n',
        '{"r": 3, "d": 2, "n": 6, "ind": "43", "log2_ind": 5.4262647547021, '
        '"hrd_bound_bits": 5.4262647547021, "steps": [{"name": '
        '"cover-validity", "lhs": 2.0, "rhs": 2.0, "margin": 0.0, "pass": '
        'true}, '
        '{"name": "shearer", "lhs": 3.75184615005093, "rhs": '
        '3.75184615005093, "margin": 0.0, "pass": true}, '
        '{"name": "subadditivity", "lhs": 1.67441860465116, "rhs": '
        '1.67441860465116, "margin": 8.88178419700125e-16, "pass": true}, '
        '{"name": "conditioning-reduction", "lhs": 0.0, "rhs": 0.0, '
        '"margin": 0.0, "pass": true}, '
        '{"name": "lambda-bound", "lhs": 1.0, "rhs": 1.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "jensen", "lhs": 5.4262647547021, "rhs": 5.4262647547021, '
        '"margin": 0.0, "pass": true}, '
        '{"name": "counting-bound", "lhs": 43.0, "rhs": 43.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "link-bound", "lhs": 9.0, "rhs": 9.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "final-bound", "lhs": 5.4262647547021, "rhs": '
        '5.4262647547021, "margin": 0.0, "pass": true}], "findings": [], '
        '"all_passed": true}\n'
    ),
    (3, 2, 5, 1): (
        'r=3 d=2 n=15  ind(G)=10859\n'
        'log2 ind(G) = 13.4066036317279  bound = 13.5656618867552\n'
        'cover-validity: lhs=2 rhs=2 margin=0 PASS\n'
        'shearer: lhs=9.49445702522636 rhs=9.56861712708046 '
        'margin=0.0741601018541083 PASS\n'
        'subadditivity: lhs=3.91214660650152 rhs=3.91214660650152 '
        'margin=-1.77635683940025e-15 PASS\n'
        'conditioning-reduction: lhs=1.77635683940025e-15 rhs=0 '
        'margin=-1.77635683940025e-15 PASS\n'
        'lambda-bound: lhs=1 rhs=1 margin=0 PASS\n'
        'jensen: lhs=5.39664250140674 rhs=5.4262647547021 '
        'margin=0.0296222532953578 PASS\n'
        'counting-bound: lhs=43 rhs=43 margin=0 PASS\n'
        'link-bound: lhs=9 rhs=9 margin=0 PASS\n'
        'final-bound: lhs=13.4066036317279 rhs=13.5656618867552 '
        'margin=0.159058255027368 PASS\n'
        'all steps passed\n',
        '{"r": 3, "d": 2, "n": 15, "ind": "10859", "log2_ind": '
        '13.4066036317279, "hrd_bound_bits": 13.5656618867552, "steps": '
        '[{"name": "cover-validity", "lhs": 2.0, "rhs": 2.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "shearer", "lhs": 9.49445702522636, "rhs": '
        '9.56861712708046, "margin": 0.0741601018541083, "pass": true}, '
        '{"name": "subadditivity", "lhs": 3.91214660650152, "rhs": '
        '3.91214660650152, "margin": -1.77635683940025e-15, "pass": true}, '
        '{"name": "conditioning-reduction", "lhs": 1.77635683940025e-15, '
        '"rhs": 0.0, "margin": -1.77635683940025e-15, "pass": true}, '
        '{"name": "lambda-bound", "lhs": 1.0, "rhs": 1.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "jensen", "lhs": 5.39664250140674, "rhs": 5.4262647547021, '
        '"margin": 0.0296222532953578, "pass": true}, '
        '{"name": "counting-bound", "lhs": 43.0, "rhs": 43.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "link-bound", "lhs": 9.0, "rhs": 9.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "final-bound", "lhs": 13.4066036317279, "rhs": '
        '13.5656618867552, "margin": 0.159058255027368, "pass": true}], '
        '"findings": [], "all_passed": true}\n'
    ),
    (2, 3, 7, 2): (
        'r=2 d=3 n=14  ind(G)=473\n'
        'log2 ind(G) = 8.88569637333939  bound = 9.11607805641988\n'
        'cover-validity: lhs=3 rhs=3 margin=0 PASS\n'
        'shearer: lhs=5.39309595050641 rhs=5.51523534297458 '
        'margin=0.122139392468171 PASS\n'
        'subadditivity: lhs=3.49260042283298 rhs=3.49260042283298 '
        'margin=-4.44089209850063e-15 PASS\n'
        'conditioning-reduction: lhs=1.77635683940025e-15 rhs=0 '
        'margin=-1.77635683940025e-15 PASS\n'
        'lambda-bound: lhs=1 rhs=1 margin=0 PASS\n'
        'jensen: lhs=3.8714864271095 rhs=3.90689059560852 '
        'margin=0.0354041684990145 PASS\n'
        'counting-bound: lhs=15 rhs=15 margin=0 PASS\n'
        'link-bound: lhs=1 rhs=1 margin=0 PASS\n'
        'final-bound: lhs=8.88569637333939 rhs=9.11607805641988 '
        'margin=0.230381683080482 PASS\n'
        'all steps passed\n',
        '{"r": 2, "d": 3, "n": 14, "ind": "473", "log2_ind": '
        '8.88569637333939, "hrd_bound_bits": 9.11607805641988, "steps": '
        '[{"name": "cover-validity", "lhs": 3.0, "rhs": 3.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "shearer", "lhs": 5.39309595050641, "rhs": '
        '5.51523534297458, "margin": 0.122139392468171, "pass": true}, '
        '{"name": "subadditivity", "lhs": 3.49260042283298, "rhs": '
        '3.49260042283298, "margin": -4.44089209850063e-15, "pass": true}, '
        '{"name": "conditioning-reduction", "lhs": 1.77635683940025e-15, '
        '"rhs": 0.0, "margin": -1.77635683940025e-15, "pass": true}, '
        '{"name": "lambda-bound", "lhs": 1.0, "rhs": 1.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "jensen", "lhs": 3.8714864271095, "rhs": 3.90689059560852, '
        '"margin": 0.0354041684990145, "pass": true}, '
        '{"name": "counting-bound", "lhs": 15.0, "rhs": 15.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "link-bound", "lhs": 1.0, "rhs": 1.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "final-bound", "lhs": 8.88569637333939, "rhs": '
        '9.11607805641988, "margin": 0.230381683080482, "pass": true}], '
        '"findings": [], "all_passed": true}\n'
    ),
    (4, 2, 4, 3): (
        'r=4 d=2 n=16  ind(G)=41610\n'
        'log2 ind(G) = 15.3446426679321  bound = 15.4421983774144\n'
        'cover-validity: lhs=2 rhs=2 margin=0 PASS\n'
        'shearer: lhs=11.7810762175596 rhs=11.8297550210223 '
        'margin=0.0486788034627299 PASS\n'
        'subadditivity: lhs=3.56356645037251 rhs=3.56356645037251 '
        'margin=1.77635683940025e-15 PASS\n'
        'conditioning-reduction: lhs=3.5527136788005e-15 rhs=0 '
        'margin=-3.5527136788005e-15 PASS\n'
        'lambda-bound: lhs=1 rhs=1 margin=0 PASS\n'
        'jensen: lhs=7.69920982436131 rhs=7.72109918870718 '
        'margin=0.0218893643458724 PASS\n'
        'counting-bound: lhs=211 rhs=211 margin=0 PASS\n'
        'link-bound: lhs=49 rhs=49 margin=0 PASS\n'
        'final-bound: lhs=15.3446426679321 rhs=15.4421983774144 '
        'margin=0.0975557094822488 PASS\n'
        'all steps passed\n',
        '{"r": 4, "d": 2, "n": 16, "ind": "41610", "log2_ind": '
        '15.3446426679321, "hrd_bound_bits": 15.4421983774144, "steps": '
        '[{"name": "cover-validity", "lhs": 2.0, "rhs": 2.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "shearer", "lhs": 11.7810762175596, "rhs": '
        '11.8297550210223, "margin": 0.0486788034627299, "pass": true}, '
        '{"name": "subadditivity", "lhs": 3.56356645037251, "rhs": '
        '3.56356645037251, "margin": 1.77635683940025e-15, "pass": true}, '
        '{"name": "conditioning-reduction", "lhs": 3.5527136788005e-15, '
        '"rhs": 0.0, "margin": -3.5527136788005e-15, "pass": true}, '
        '{"name": "lambda-bound", "lhs": 1.0, "rhs": 1.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "jensen", "lhs": 7.69920982436131, "rhs": '
        '7.72109918870718, "margin": 0.0218893643458724, "pass": true}, '
        '{"name": "counting-bound", "lhs": 211.0, "rhs": 211.0, "margin": '
        '0.0, "pass": true}, '
        '{"name": "link-bound", "lhs": 49.0, "rhs": 49.0, "margin": 0.0, '
        '"pass": true}, '
        '{"name": "final-bound", "lhs": 15.3446426679321, "rhs": '
        '15.4421983774144, "margin": 0.0975557094822488, "pass": true}], '
        '"findings": [], "all_passed": true}\n'
    ),
}


class TestVerifyProofGolden:
    @pytest.mark.parametrize("spec", list(GOLDEN_PROOFS))
    def test_text_and_json_byte_for_byte(self, capsys, monkeypatch, spec):
        if spec is None:
            g = build_hrd(3, 2)[0]
        else:
            r, d, num_a, seed = spec
            g = random_quasi_bipartite(r, d, num_a, random.Random(seed))
        for argv, expected in zip(([], ["--json"]), GOLDEN_PROOFS[spec]):
            code, out, _ = run(capsys, ["verify-proof", "-"] + argv,
                               stdin=write_hypergraph(g),
                               monkeypatch=monkeypatch)
            assert code == 0
            assert out == expected, argv


class TestCompare:
    def test_complete_json(self, capsys):
        code, out, _ = run(capsys, ["compare", "--r", "3", "--t", "2", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["hrd_power"] == "1471"
        assert data["rival_power"] == "1369"
        assert data["winner"] == "hrd"

    @pytest.mark.parametrize("argv, n", [(["--r", "4", "--t", "60"], 240),
                                         (["--r", "3", "--m", "2000"], 6000)])
    def test_rival_past_the_brute_cap_is_never_built(self, capsys,
                                                     monkeypatch, argv, n):
        def refuse(*args):
            raise AssertionError("rival built past the brute cap")

        monkeypatch.delenv("HYPERIND_CAPS", raising=False)
        for name in ("build_complete_r_partite", "build_transversal_design_3"):
            monkeypatch.setattr(verification, name, refuse)
        code, out, err = run(capsys, ["compare"] + argv)
        assert (code, out) == (2, "")
        assert err == f"error: count_brute capped at n <= 30, got n = {n}\n"

    def test_cap_comes_before_d(self):
        # d = 3^(r-1) has tens of millions of digits here; the cap must come
        # first, in a fresh process so a slow power cannot hang the suite
        src = Path(cli.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "HYPERIND_CAPS"}
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run([sys.executable, "-m", "hyperind.cli", "compare",
                               "--r", "100000000", "--t", "3"], env=env,
                              capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == \
            "error: count_brute capped at n <= 30, got n = 300000000\n"

    def test_requires_t_or_m(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--r", "3"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestEnumerate:
    def test_iso_sweep_with_check(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--r", "3", "--d", "1",
                                    "--n", "6", "--up-to-iso",
                                    "--check-conjecture"])
        assert code == 0
        assert "emitted: 1" in out
        assert "violations: 0" in out

    def test_labeled_matchings(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--r", "2", "--d", "1", "--n", "4"])
        assert code == 0
        assert "emitted: 3" in out

    def test_emit_dir(self, capsys, tmp_path):
        outdir = tmp_path / "out"
        code, out, _ = run(capsys, ["enumerate", "--r", "2", "--d", "1",
                                    "--n", "4", "--emit", str(outdir)])
        assert code == 0
        files = sorted(outdir.iterdir())
        assert len(files) == 3
        assert files[0].read_text() == "4\n0 1\n2 3\n"

    def test_workers_match_serial(self, capsys):
        code1, out1, _ = run(capsys, ["enumerate", "--r", "2", "--d", "2", "--n", "6"])
        code2, out2, _ = run(capsys, ["enumerate", "--r", "2", "--d", "2",
                                      "--n", "6", "--workers", "2"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_workers_emit_same_files(self, capsys, tmp_path):
        written = []
        for workers in ("1", "2"):
            outdir = tmp_path / workers
            code, out, _ = run(capsys, ["enumerate", "--r", "2", "--d", "2",
                                        "--n", "7", "--emit", str(outdir),
                                        "--workers", workers])
            assert code == 0
            assert out == "emitted: 465\n"
            written.append({f.name: f.read_text() for f in outdir.iterdir()})
        assert len(written[0]) == 465
        assert written[0] == written[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_up_to_iso_checks_each_class_once(self, capsys, tmp_path,
                                              monkeypatch, workers):
        # up to isomorphism every run is one chunk in this process, so the
        # patch sees every call under any start method
        log = []
        real = cli.check_conjecture

        def logged(g, **kwargs):
            log.append(write_hypergraph(g))
            return real(g, **kwargs)

        monkeypatch.setattr(cli, "check_conjecture", logged)
        outdir = tmp_path / "out"
        code, out, _ = run(capsys, ["enumerate", "--r", "2", "--d", "2",
                                    "--n", "7", "--up-to-iso",
                                    "--check-conjecture", "--emit", str(outdir),
                                    "--workers", workers])
        assert code == 0
        assert out == "emitted: 2\nchecked: 2\nviolations: 0\n"
        assert log == [f.read_text() for f in sorted(outdir.iterdir())]

    def test_infeasible(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--r", "3", "--d", "1", "--n", "4"])
        assert code == 0
        assert "emitted: 0" in out

    def test_pool_size_capped_at_chunk_count(self, capsys, monkeypatch):
        # the pool starts every worker up front; r=2 d=2 n=6 splits into
        # the 5 first edges through vertex 0, so 5 workers are enough
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        code, out, _ = run(capsys, ["enumerate", "--r", "2", "--d", "2",
                                    "--n", "6", "--check-conjecture",
                                    "--workers", "1000"])
        assert code == 0
        assert out == "emitted: 70\nchecked: 70\nviolations: 0\n"
        assert sizes == [5]

    def test_up_to_iso_starts_no_pool(self, capsys, monkeypatch):
        # up to isomorphism the search is the one first-edge chunk (0, 1)
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a single chunk must not start a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        code, out, _ = run(capsys, ["enumerate", "--r", "2", "--d", "2",
                                    "--n", "7", "--up-to-iso",
                                    "--check-conjecture", "--workers", "4"])
        assert code == 0
        assert out == "emitted: 2\nchecked: 2\nviolations: 0\n"


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, monkeypatch):
        hg = "6\n0 2 3\n0 4 5\n1 2 3\n1 4 5\n"
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, ["verify-proof", "-", "--json"],
                            stdin=hg, monkeypatch=monkeypatch)
            outs.add(out)
        assert len(outs) == 1


class TestCapsEnv:
    def test_brute_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERIND_CAPS", "4,12,24")
        hg = "5\n0 1\n0 4\n1 2\n2 3\n3 4\n"
        code, _, err = run(capsys, ["count", "-", "--method", "brute"],
                           stdin=hg, monkeypatch=monkeypatch)
        assert code == 2
        assert "cap" in err

    def test_malformed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERIND_CAPS", "bogus")
        code, _, err = run(capsys, ["count", "-"], stdin="2\n", monkeypatch=monkeypatch)
        assert code == 2

    def test_entropy_cap(self, capsys, monkeypatch):
        # H(5,5) has n = 25, one past the default entropy cap
        _, hrd, _ = run(capsys, ["construct", "hrd", "--r", "5", "--d", "5"])
        code, out, err = run(capsys, ["verify-proof", "-"], stdin=hrd,
                             monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert "joint_distribution capped at n <= 24, got n = 25" in err

    def test_reaches_pool_workers_under_every_start_method(self, tmp_path):
        # the caps travel with each chunk of work, so a worker started by
        # spawn or forkserver gets them as well as a forked one
        script = tmp_path / "run.py"
        script.write_text(START_METHOD_SCRIPT)
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, HYPERIND_CAPS="5,12,24", PYTHONPATH=str(src))
        for method in multiprocessing.get_all_start_methods():
            proc = subprocess.run([sys.executable, str(script), method],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 2, (method, proc.stdout, proc.stderr)
            assert "count_brute capped at n <= 5" in proc.stderr, method


START_METHOD_SCRIPT = """\
import multiprocessing
import sys

from hyperind.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    sys.exit(main(["enumerate", "--r", "3", "--d", "1", "--n", "6",
                   "--check-conjecture", "--workers", "2"]))
"""


class TestWorkersFlag:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_below_one_exits_2(self, capsys, workers):
        code, out, err = run(capsys, ["enumerate", "--r", "2", "--d", "1",
                                      "--n", "4", "--workers", workers])
        assert code == 2
        assert out == ""
        assert "--workers" in err


class TestImports:
    def test_numpy_and_pool_load_only_when_needed(self, tmp_path):
        # pytest's own process has numpy loaded already, so the check runs
        # in a fresh interpreter
        script = tmp_path / "imports.py"
        script.write_text(IMPORTS_SCRIPT)
        hg = tmp_path / "h32.hg"
        hg.write_text("6\n0 2 3\n0 4 5\n1 2 3\n1 4 5\n")
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, str(script), str(hg)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (proc.stdout, proc.stderr)
        assert proc.stdout == "ok\n"


IMPORTS_SCRIPT = """\
import contextlib
import io
import json
import sys

import hyperind
from hyperind.cli import main

LAZY = ("numpy", "concurrent.futures")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


hg = sys.argv[1]
sweep = ["enumerate", "--r", "2", "--d", "2", "--n", "6",
         "--check-conjecture", "--workers", "1"]
for argv in (["count", hg], ["count", hg, "--method", "branch"],
             ["check-conjecture", hg], ["check-conjecture", hg, "--json"],
             ["construct", "hrd", "--r", "3", "--d", "2"],
             ["compare", "--r", "3", "--t", "2", "--json"],
             sweep, sweep + ["--up-to-iso"]):
    run(argv)
    loaded = [m for m in LAZY if m in sys.modules]
    assert not loaded, (argv, loaded)

report = json.loads(run(["verify-proof", hg, "--json"]))
assert report["all_passed"] is True
assert "numpy" in sys.modules
print("ok")
"""
