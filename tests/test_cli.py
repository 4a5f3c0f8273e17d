import hashlib
import json
import subprocess
import sys
import time

import pytest

from syncpaths.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_simulate_explicit_config(capsys):
    code, out, err = run_cli(
        "simulate", "--family", "kn", "--n", "4", "--eps", "1", "--x", "0,2,5,9",
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert [e["edge"] for e in payload["events"]] == [
        [1, 2], [2, 3], [3, 4], [1, 3], [2, 4], [1, 4]
    ]
    assert payload["initial_code"] == "1,2,3,4"
    assert payload["final_code"] == "4,4,4,4"
    assert "6 events" in err


def test_simulate_not_typical_exit_code(capsys):
    code, _, err = run_cli(
        "simulate", "--family", "kn", "--n", "4", "--eps", "0.5", "--x", "0,1,3,4",
        capsys=capsys,
    )
    assert code == 2
    assert "error" in err


def test_simulate_diagonal_zero_events(capsys):
    code, out, _ = run_cli(
        "simulate", "--family", "kn", "--n", "3", "--eps", "1", "--x", "2,2,2",
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["events"] == []


def test_simulate_seeded_deterministic(capsys):
    args = ("simulate", "--family", "kn", "--n", "4", "--seed", "7",
            "--flow", "kuramoto", "--eps", "0.001")
    code1, out1, _ = run_cli(*args, capsys=capsys)
    code2, out2, _ = run_cli(*args, capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_kuramoto_step_guard(capsys):
    for argv in (
        ("--n", "4", "--seed", "7", "--eps", "0.001", "--step", "1e-300"),
        # the effective step eps / (10 sigma n) underflows to 0: it never ends
        ("--n", "3", "--sigma", "1e308"),
        ("--n", "3", "--sigma", "4e307"),
    ):
        t0 = time.perf_counter()
        code, out, err = run_cli("simulate", "--family", "kn", "--flow", "kuramoto", *argv,
                                 capsys=capsys)
        assert code == 3 and out == "", argv
        assert "RK4 steps, above the guard" in err and "Traceback" not in err, argv
        assert time.perf_counter() - t0 < 1.0  # refused before the kernel starts


def test_simulate_kuramoto_path_in_diagram(capsys):
    code, out, _ = run_cli(
        "simulate", "--family", "kn", "--n", "4", "--seed", "7",
        "--flow", "kuramoto", "--eps", "0.001", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    from syncpaths.diagram import build_diagram
    from syncpaths.graphs import complete

    diagram = build_diagram(complete(4))
    arrows = {(a.source, a.site): a.target for a in diagram.arrows}
    node = tuple(int(t) for t in payload["initial_code"].split(","))
    for ev in payload["events"]:
        node = arrows[(node, ev["site"])]
    assert node == (4, 4, 4, 4)


def test_simulate_knn_balanced_linear(capsys):
    code, out, _ = run_cli(
        "simulate", "--family", "knn", "--n", "3", "--eps", "0.001",
        "--seed", "11", "--balanced", capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["final_code"] == "1,1,1|3,3,3"
    assert len(payload["events"]) >= 1
    assert all(ev["sign"] in (-1, 1) for ev in payload["events"])


def test_simulate_knn_unbalanced_linear_rejected(capsys):
    code, _, err = run_cli(
        "simulate", "--family", "knn", "--n", "2", "--eps", "0.5",
        "--x", "0,3,0.5,3.5", capsys=capsys,
    )
    assert code == 2
    assert "party means" in err


def test_encode(capsys):
    code, out, _ = run_cli(
        "encode", "--family", "kn", "--n", "4", "--eps", "1", "--x", "0,1,3,4",
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["code"] == "2,2,4,4"
    assert payload["edges"] == [[1, 2], [3, 4]]


def _exit_code(argv, capsys):
    """Exit code and stderr of main(); argparse rejections raise SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


KN3 = ("--family", "kn", "--n", "3")


@pytest.mark.parametrize(
    "argv, fault",
    [
        (("encode", *KN3, "--x", "0,1,3", "--eps", "nan"), "--eps: must be finite and > 0"),
        (("encode", *KN3, "--x", "0,1,3", "--eps", "inf"), "--eps: must be finite and > 0"),
        (("simulate", *KN3, "--x", "0,1,3", "--eps", "-1"), "--eps: must be finite and > 0"),
        (("simulate", *KN3, "--x", "nan,0,1"), "--x values must be finite, got nan"),
        (("simulate", *KN3, "--x", "0,1,inf"), "--x values must be finite, got inf"),
        (("simulate", *KN3, "--x", "0,1/0,3"), "--x values must be finite, got 1/0"),
        (
            ("simulate", *KN3, "--x", "0,1,3", "--flow", "kuramoto", "--step", "nan"),
            "--step: must be finite and > 0",
        ),
        (
            ("simulate", *KN3, "--x", "0,1,3", "--flow", "kuramoto", "--step", "0"),
            "--step: must be finite and > 0",
        ),
        (
            ("simulate", *KN3, "--x", "0,0.1,0.3", "--flow", "kuramoto", "--sigma", "inf"),
            "--sigma: must be finite and > 0",
        ),
        (("count", *KN3, "--jobs", "0"), "--jobs: must be >= 1"),
        (("encode", *KN3, "--x", "0,1,3", "--eps", "abc"), "--eps: must be finite and > 0"),
        (("count", *KN3, "--jobs", "abc"), "--jobs: must be >= 1, got abc"),
        (
            ("witness", "--family", "kn", "--code", "2,3,3", "--eps", "1/0"),
            "--eps: must be a decimal or p/q > 0, got 1/0",
        ),
        (
            ("simulate", *KN3, "--flow", "kuramoto", "--step", "1e308"),
            "RK4 step 1e+308 at sigma 1 overflows to inf",
        ),
    ],
)
def test_invalid_numbers_rejected_at_entry(argv, fault, capsys):
    code, err = _exit_code(argv, capsys)
    assert code == 2
    assert fault in err
    assert "_positive" not in err  # the option is named, not the converter
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "body, fault",
    [
        (None, "No such file or directory"),
        ('{"family": "kn", "n": 3}', "configuration JSON needs"),
        ("[1, 2, 3]", "configuration JSON needs"),
        ('{"family": "kn", "n": "3", "values": [0, 1, 2]}', "configuration JSON needs"),
        ('{"family": "kn", "n": 3, "values": 5}', "configuration JSON needs"),
        ('{"family": "kn", "n": 3, "values": [0, "1/0", 2]}', "values must be finite"),
        ('{"family": "kn", "n": 4, "values": [0, 1, 2, 3]}', "does not match --family/--n"),
    ],
    ids=[
        "missing", "no-values", "list", "string-n", "scalar-values", "zero-denominator",
        "wrong-n",
    ],
)
def test_bad_x_file_exits_2(body, fault, tmp_path, capsys):
    path = tmp_path / "config.json"
    if body is not None:
        path.write_text(body)
    code, err = _exit_code(("simulate", *KN3, "--x-file", str(path)), capsys)
    assert code == 2
    assert fault in err
    assert "Traceback" not in err


def test_unwritable_out_exits_2(tmp_path, capsys):
    missing_dir = tmp_path / "missing" / "x"
    code, err = _exit_code(("dist", *KN3, "--out", str(missing_dir)), capsys)
    assert code == 2
    assert "No such file or directory" in err


def test_x_file_values_must_be_finite(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"family": "kn", "n": 3, "values": [0, NaN, 2]}')
    code, err = _exit_code(("simulate", *KN3, "--x-file", str(path)), capsys)
    assert code == 2
    assert "--x-file values must be finite, got nan" in err


def test_diagram_counts(capsys):
    code, out, err = run_cli(
        "diagram", "--family", "kn", "--n", "4", "--format", "dot", capsys=capsys
    )
    assert code == 0
    assert out.count('";') == 14  # one line per vertex
    assert "14 vertices" in err

    code, _, err = run_cli("diagram", "--family", "knn", "--n", "2", capsys=capsys)
    assert code == 0
    assert "20 vertices" in err and "6 start codes" in err


def test_diagram_guard_exit_code(capsys):
    code, _, err = run_cli("diagram", "--family", "kn", "--n", "40", capsys=capsys)
    assert code == 3


def test_diagram_deterministic_bytes(capsys):
    args = ("diagram", "--family", "knn", "--n", "2", "--format", "json")
    _, out1, _ = run_cli(*args, capsys=capsys)
    _, out2, _ = run_cli(*args, capsys=capsys)
    assert out1 == out2


def test_count_kn(capsys):
    code, out, _ = run_cli(
        "count", "--family", "kn", "--n", "4", "--format", "json", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible_paths"] == "16"
    assert payload["realizable_paths"] == "10"
    assert payload["bounds"]["upper_thrall"] == "12"


def test_count_kn5(capsys):
    code, out, _ = run_cli(
        "count", "--family", "kn", "--n", "5", "--format", "json", capsys=capsys
    )
    assert json.loads(out)["realizable_paths"] == "114"


def test_count_knn(capsys):
    code, out, _ = run_cli(
        "count", "--family", "knn", "--n", "2", "--format", "json", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["start_codes"] == 6
    assert payload["interleaving_bound"] == "40"
    assert payload["realizable_orderings"] == 24  # exact enumeration


def test_count_knn_n1_stderr_empty():
    # a subprocess, because pytest would capture an in-process warning
    proc = subprocess.run(
        [sys.executable, "-m", "syncpaths.cli", "count", "--family", "knn", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "interleaving_bound: 0\n" in proc.stdout


def test_dist_rows(capsys):
    code, out, _ = run_cli("dist", "--family", "kn", "--n", "4", capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "lengths: 1,1,2,3,3,3,1"

    code, out, _ = run_cli(
        "dist", "--family", "knn", "--n", "2", "--format", "json", capsys=capsys
    )
    payload = json.loads(out)
    assert payload["counts"] == ["1", "2", "5", "6", "6"]


def test_dist_density(capsys):
    code, out, _ = run_cli(
        "dist", "--family", "kn", "--n", "8", "--bins", "10", capsys=capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 11


def test_dist_size_guard(capsys):
    for family, n in (("kn", "3000"), ("knn", "200")):
        t0 = time.perf_counter()
        code, out, err = run_cli("dist", "--family", family, "--n", n, capsys=capsys)
        assert code == 3 and out == ""
        assert "exceeds the distribution limit" in err
        assert time.perf_counter() - t0 < 1.0  # refused before any work
    for family, n in (("kn", "60"), ("knn", "20")):
        code, out, _ = run_cli("dist", "--family", family, "--n", n, capsys=capsys)
        assert code == 0 and out.startswith("lengths: 1,")


@pytest.mark.parametrize(
    "argv, fault",
    [
        (("dist", "--family", "kn", "--n", "5", "--bins", "100000000"), "exceeds the density limit"),
        (("count", "--family", "knn", "--n", "7"), "interleaving bound"),
        (("diagram", "--family", "kn", "--n", "14"), "2674440 codes exceeds the size guard"),
        (("diagram", "--family", "knn", "--n", "7"), "2760615 codes exceeds the size guard"),
        (("count", "--family", "kn", "--n", "14"), "2674440 codes exceeds the size guard"),
    ],
    ids=["dist-bins", "count-knn", "diagram-kn14", "diagram-knn7", "count-kn14"],
)
def test_guards_refuse_before_work(argv, fault, capsys):
    # neither the bins nor the kn14 (2,674,440 codes) or knn7 (2,760,615)
    # diagram is built: each would need gigabytes
    t0 = time.perf_counter()
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 3 and out == ""
    assert fault in err
    assert time.perf_counter() - t0 < 1.0


def test_witness_commands(capsys):
    code, out, err = run_cli(
        "witness", "--family", "kn", "--code", "2,2,4,4", "--eps", "1", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == ["0", "1", "3", "4"]
    assert "roundtrip confirmed" in err

    code, out, err = run_cli(
        "witness", "--family", "knn", "--code", "1,2|1,2", capsys=capsys
    )
    assert code == 0
    assert "roundtrip confirmed" in err

    code, out, _ = run_cli(
        "witness", "--family", "kn", "--code", "1,2,3,4", "--eps", "1", capsys=capsys
    )
    assert json.loads(out)["values"] == ["0", "2", "4", "6"]


def test_witness_invalid_code(capsys):
    code, _, err = run_cli(
        "witness", "--family", "kn", "--code", "3,2,1", capsys=capsys
    )
    assert code == 2


def test_verify_exit_codes(monkeypatch, capsys, tmp_path):
    import syncpaths.cli as cli

    def fake_verify(quick=False):
        return {
            "checks": [
                {"name": "a", "passed": True, "detail": ""},
                {"name": "knn2_ordering_table", "passed": False, "detail": "documented"},
            ],
            "passed": False,
            "documented_discrepancies": ["knn2_ordering_table"],
        }

    monkeypatch.setattr(cli, "run_verify", fake_verify)
    report = tmp_path / "r.json"
    code = cli.main(["verify", "--quick", "--report", str(report)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "documented discrepancies: knn2_ordering_table" in err
    assert report.exists()

    monkeypatch.setattr(
        cli,
        "run_verify",
        lambda quick=False: {"checks": [], "passed": True, "documented_discrepancies": []},
    )
    assert cli.main(["verify"]) == 0


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "syncpaths.cli", "dist", "--family", "kn", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("lengths: 1,1,2,1")


# Every command once or more, with exits 0, 1, 2 and 3: (argv, exit code, and
# the first 16 hex digits of the sha256 of stdout and of stderr).
CLI_CORPUS = [
    ("simulate --family kn --n 4 --eps 1 --x 0,2,5,9", 0, "afc03968fdf464ad", "b294583c660849da"),
    ("simulate --family kn --n 4 --eps 0.5 --x 0,1,3,4", 2, "e3b0c44298fc1c14", "207d22eef8c89378"),
    ("simulate --family kn --n 3 --eps 1 --x 2,2,2", 0, "c743e16f79ef36f7", "2854d0de8cec37c7"),
    ("simulate --family kn --n 3 --x nan,0,1", 2, "e3b0c44298fc1c14", "b9109697230d609f"),
    ("simulate --family kn --n 4 --seed 7 --flow kuramoto --eps 0.001", 0, "12cc9935e818bb53", "b294583c660849da"),
    ("simulate --family knn --n 3 --flow kuramoto --seed 12 --eps 0.001", 1, "e3b0c44298fc1c14", "d02bbe2190f30c8d"),
    ("simulate --family kn --n 3 --flow kuramoto --step 1e308", 2, "e3b0c44298fc1c14", "b7c4b0745519e9bc"),
    ("simulate --family kn --n 3 --flow kuramoto --step 1e200", 1, "e3b0c44298fc1c14", "1db2d2b652bdef36"),
    ("simulate --family kn --n 3 --flow kuramoto --sigma 1e308", 3, "e3b0c44298fc1c14", "f35ad6212114fb5b"),
    ("simulate --family knn --n 3 --eps 0.001 --seed 11 --balanced", 0, "d2548d0353a89baa", "4d1e56a088d1a6c3"),
    ("simulate --family knn --n 3 --seed 11 --flow kuramoto --sigma 0.5 --eps 0.01", 0, "b0e79370514ff937", "4d1e56a088d1a6c3"),
    ("simulate --family knn --n 2 --eps 0.5 --x 0,3,0.5,3.5", 2, "e3b0c44298fc1c14", "1eebb8d6ec2b09c6"),
    ("encode --family kn --n 4 --eps 1 --x 0,1,3,4", 0, "a9fcce09a5bc66da", "e3b0c44298fc1c14"),
    ("encode --family knn --n 2 --eps 1 --x 0,3,1,2", 0, "a5aa70d4435e11a3", "e3b0c44298fc1c14"),
    ("diagram --family kn --n 4", 0, "043b1641a66da4c8", "d82fe325c0781877"),
    ("diagram --family knn --n 2 --format json", 0, "03261f2fbb32f7d9", "faff5c2ca7d4f2e4"),
    ("diagram --family kn --n 14", 3, "e3b0c44298fc1c14", "042e16c0f09242eb"),
    ("count --family kn --n 4 --jobs 1 --format json", 0, "c519e964d425cf10", "e3b0c44298fc1c14"),
    ("count --family kn --n 7 --jobs 1", 0, "4597daad6791ba59", "e3b0c44298fc1c14"),
    ("count --family knn --n 2 --jobs 1", 0, "a3d72748c0c1eaf6", "e3b0c44298fc1c14"),
    ("count --family knn --n 1 --jobs 1", 0, "27f8296ded384c3d", "e3b0c44298fc1c14"),
    ("count --family knn --n 7 --jobs 1", 3, "e3b0c44298fc1c14", "2a538a697d763e00"),
    ("dist --family kn --n 4", 0, "ab9a81e23db7ef74", "e3b0c44298fc1c14"),
    ("dist --family knn --n 2 --format json", 0, "2d0f994d1db015b1", "e3b0c44298fc1c14"),
    ("dist --family kn --n 8 --bins 10", 0, "31499194ea0bad6e", "e3b0c44298fc1c14"),
    ("dist --family kn --n 3000", 3, "e3b0c44298fc1c14", "fbd2b1603080804e"),
    ("witness --family kn --code 2,2,4,4 --eps 1", 0, "d26d3bf9c6b8fda2", "5f288a1d0fd9a186"),
    ("witness --family knn --code 1,2|1,2", 0, "f8068e1402dec66b", "5f288a1d0fd9a186"),
    ("witness --family kn --code 3,2,1", 2, "e3b0c44298fc1c14", "c46fc1a73c687e01"),
    ("verify --report", 2, "e3b0c44298fc1c14", "44c99523a25224aa"),
]


@pytest.mark.parametrize(
    "argv, exit_code, out_sha, err_sha", CLI_CORPUS, ids=[c[0] for c in CLI_CORPUS]
)
def test_cli_corpus_pinned(argv, exit_code, out_sha, err_sha, capsys):
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    out, err = capsys.readouterr()
    digest = [hashlib.sha256(s.encode()).hexdigest()[:16] for s in (out, err)]
    assert (code, *digest) == (exit_code, out_sha, err_sha), (out, err)
