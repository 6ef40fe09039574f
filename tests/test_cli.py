"""Command line behavior: formats, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

from nilorbit.cli import main
from nilorbit.partitions import enumerate_bipartitions


def run_cli(args, tmp_path=None):
    out = tmp_path / "out.json" if tmp_path else None
    argv = list(args) + (["--out", str(out)] if out else [])
    code = main(argv)
    text = out.read_text() if out else None
    return code, text


def test_classify_example(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"p": 5, "rows": [[0, 0], [1, 0]], "v": [1, 0]}))
    code, text = run_cli(["classify", "--in", str(pair)], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["bpartition"] == [[1], [1]]
    assert doc["result"]["a"] == 1
    assert doc["result"]["dim"] == 3
    assert doc["seed"] == 0


def test_classify_mixed_pair(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"p": 5, "rows": [[1, 0], [0, 2]], "v": [1, 0]}))
    code, text = run_cli(["classify", "--in", str(pair)], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["mu"] == 1
    assert doc["result"]["blocks"] == [
        {"eigenvalue": 1, "bpartition": [[1], []]},
        {"eigenvalue": 2, "bpartition": [[], [1]]},
    ]


def test_census_json_and_csv(tmp_path):
    code, text = run_cli(["census", "--n", "2", "--prime", "2"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert len(doc["classes"]) == 5
    assert sum(row["count"] for row in doc["classes"]) == 16

    code, text = run_cli(
        ["census", "--n", "2", "--prime", "2", "--format", "csv"], tmp_path
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "lambda1,lambda2,count,a,dim"
    assert len(lines) == 6
    assert lines[1] == "2,,6,0,4"


def test_census_csv_rows_in_canonical_order(tmp_path):
    code, text = run_cli(
        ["census", "--n", "3", "--prime", "2", "--format", "csv"], tmp_path
    )
    assert code == 0
    cells = [line.split(",")[:2] for line in text.strip().split("\n")[1:]]
    expected = [
        [" ".join(map(str, first)), " ".join(map(str, second))]
        for first, second in enumerate_bipartitions(3)
    ]
    assert cells == expected


def test_census_budget_exit_code(tmp_path):
    code = main(
        ["census", "--n", "3", "--prime", "3", "--budget", "10", "--out", str(tmp_path / "x")]
    )
    assert code == 3


def test_invalid_input_exit_code(tmp_path):
    code = main(["classify", "--in", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 9, "rows": [[0]], "v": [0]}))
    assert main(["classify", "--in", str(bad)]) == 2


def test_springer_rejects_non_primes(capsys):
    for primes in (["4", "9", "25"], ["1", "5", "7"]):
        code = main(["springer", "--n", "2", "--m", "1", "--primes", *primes])
        assert code == 2
        assert capsys.readouterr().err == f"invalid input: {primes[0]} is not prime\n"


def test_springer_rejects_prime_lists_it_cannot_use(capsys):
    for primes, message in (
        (["5", "7"], "need 4 points for degree 3, got 2"),
        (["7", "5", "3", "2"], "primes must be distinct and increasing"),
    ):
        code = main(["springer", "--n", "3", "--primes", *primes])
        assert code == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"


def test_springer_single_mu(tmp_path):
    code, text = run_cli(["springer", "--mu", "[[1],[1]]"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    rep = doc["reports"][0]
    assert rep["d_mu"] == 0 and rep["degree_ok"] and rep["leading_ok"]


def test_closure_command(tmp_path):
    code, text = run_cli(["closure", "--n", "2"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert {"lower": [[1], [1]], "upper": [[2], []]} in doc["hasse"]
    assert len(doc["hasse"]) == 5


def test_galois_command(tmp_path):
    code, text = run_cli(["galois", "--n", "2"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["p"] == 3
    assert doc["ok"] is True
    assert [row["count"] for row in doc["rows"]] == [2, 1, 2]


def test_slice_command_n1(tmp_path):
    code, text = run_cli(["slice", "--n", "1", "--primes", "3", "5", "7"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    assert all(row["check"] == "slice-dimension" for row in doc["rows"])


def test_slice_rejects_prime_lists_it_cannot_use(capsys):
    for primes, message in (
        (["4", "5", "7"], "4 is not prime"),
        (["3", "5", "9"], "9 is not prime"),
        (["3", "3", "5"], "primes must be distinct and increasing"),
        (["5", "3"], "primes must be distinct and increasing"),
    ):
        assert main(["slice", "--n", "2", "--primes", *primes]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"


def test_slice_names_the_case_and_prime_of_a_singular_s(capsys):
    # diagonals [1, 2] and [1, 1, 2] reduce to a singular s at p = 2
    for n, case in (("2", "split-torus"), ("3", "mixed-zero")):
        assert main(["slice", "--n", n, "--primes", "2", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {case} at p=2: s must be invertible\n"


def test_slice_at_a_single_prime_reads_the_same_dimensions(tmp_path):
    _, text = run_cli(["slice", "--n", "3"], tmp_path)
    default = json.loads(text)["rows"]
    code, text = run_cli(["slice", "--n", "3", "--primes", "5"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    assert all(row["primes"] == [5] and len(row["counts"]) == 1 for row in doc["rows"])
    dims = [(row["case"], row["m"], row["dim_estimate"]) for row in doc["rows"]]
    assert dims == [(row["case"], row["m"], row["dim_estimate"]) for row in default]


def test_springer_stratum_command(tmp_path):
    code, text = run_cli(["springer", "--n", "2", "--m", "2"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert [rep["mu"] for rep in doc["reports"]] == [[[2], []], [[1, 1], []]]
    assert doc["ok"] is True


def test_springer_n5_stratum_fits_the_default_budget(tmp_path):
    code, text = run_cli(["springer", "--n", "5", "--m", "5"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert len(doc["reports"]) == len(list(enumerate_bipartitions(5, 5)))
    assert all(rep["degree_ok"] and rep["leading_ok"] for rep in doc["reports"])
    assert doc["ok"] is True


def test_exotic_roots_command(tmp_path):
    code, text = run_cli(["exotic", "--n", "2", "--checks", "roots"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["rows"][0]["check"] == "roots" and doc["rows"][0]["ok"]


def test_exotic_twisted_set_and_z_bound_rows(tmp_path):
    code, text = run_cli(["exotic", "--n", "2", "--checks", "twisted-set", "z-bound"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    assert doc["rows"] == [
        {"check": "twisted-set", "n": 1, "ok": True},
        {
            "check": "z-bound",
            "n": 2,
            "counts": [103680, 4680000],
            "dim_estimate": 7,
            "expected": 8,
            "ok": True,
        },
    ]


def test_exotic_primes_reach_the_twisted_set_and_z_bound_rows(tmp_path):
    argv = ["exotic", "--n", "2", "--checks", "twisted-set", "z-bound", "--primes", "3", "5", "7"]
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    rows = json.loads(text)["rows"]
    assert rows[0] == {"check": "twisted-set", "n": 1, "ok": True}
    assert rows[1]["counts"] == [103680, 4680000, 61465600]
    assert rows[1]["dim_estimate"] == 8


def test_commands_that_would_check_nothing_are_invalid_input(capsys):
    """Out-of-range sizes exit 2 instead of passing on empty or vacuous rows."""
    messages = {
        "slice --n 4": "slice cases are tabulated for n in {1, 2, 3}",
        "slice --n 0": "slice cases are tabulated for n in {1, 2, 3}",
        "exotic --n -1": "the exotic checks need n >= 1, got -1",
        "exotic --n 0": "the exotic checks need n >= 1, got 0",
        "exotic --n 1 --checks z-bound": "none of the selected checks runs at n=1",
        "exotic --checks twisted-set --primes 2": (
            "the twisted-set coincidence holds for odd primes only, got p=2"
        ),
        "galois --n -1": "n must be nonnegative, got -1",
        "verify --suite all --n-max -1": "n_max must be nonnegative, got -1",
        "verify --suite exotic --n-max 0": "the exotic suite needs n_max >= 1, got 0",
    }
    for command, message in messages.items():
        assert main(command.split()) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"invalid input: {message}\n"), command


def test_size_zero_commands_with_cases_stay_valid(tmp_path):
    for command in ("verify --suite all --n-max 0", "galois --n 0"):
        code, text = run_cli(command.split(), tmp_path)
        assert code == 0, command
        assert json.loads(text)["ok"] is True, command


def test_verify_partitions_deterministic(tmp_path):
    code1, text1 = run_cli(["verify", "--suite", "partitions", "--n-max", "4"], tmp_path)
    code2, text2 = run_cli(["verify", "--suite", "partitions", "--n-max", "4"], tmp_path)
    assert code1 == code2 == 0
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["ok"] is True
    assert all(check["ok"] for check in doc["checks"])


# sha256 of each command's report.  Criterion 9 compares two runs of the same
# code; these pins catch a change to a report body against earlier code.
PINNED_REPORTS = {
    "verify --suite partitions --n-max 6": "d4ee948bd3c882788ac2979f2475c7e33e0c1b0cb341b798a28316fbb2498cde",
    "verify --suite enhanced --n-max 3": "1568709bfecc6562ce3cb8d2776c08b1be6fef126f83a2c98392475f0964da05",
    "verify --suite springer --n-max 3": "190e7ae66d603fe84c9742f66e8363e28cf18554e639a1c320c1affdab4b7e02",
    "verify --suite exotic --n-max 1": "b1b0ddf6ddfde39a763655cf9077abbe2f87ac33878ef8d760d43b08818f25ea",
    "verify --suite exotic --n-max 3": "fa1fbf367186c729413ae4454919659df9f8f5a19c74e338ed0086e12758f447",
    "exotic --n 2": "3c3d9828038aad22c04066b53d326718ccac32be0ed7def3284d9237b878c1c6",
    "exotic --n 2 --checks roots twisted-set z-bound": "819aa224462d0d08a50dec8f8c9c23ccc580708062b82c7a9ebd787875827bd7",
    "springer --n 4 --m 4": "803b698238893a32049c46969d97700108e725ec62297eca31ecbf17ae848af0",
    "springer --n 5": "e4a3c80dec2d4b3c6fc735ccf01b25e472fe5846822dccc6ed5458d7ffb038aa",
    "springer --n 6": "ec7997e4c2721ae22b295d0803befe50d19f208db29c2b365cca11adff731e43",
    "galois --n 4": "fb41128ac71f5be9b8c076569c4a6e496c13532b0e172091432dda02e387b95a",
    "galois --n 3 --prime 7": "861e2891c7a047b69125e88ec2ef59d79ff0409ae83d8990c4dfd27e2f765fc6",
    "slice --n 2": "6b2c6a7f645334c34a68d192af6d6935d49ebc42d52e3f7d9a84918de6409611",
    "slice --n 3": "f4fc2105ccf7e6fbe3a7d84642ec1dd03619e495b76c4ca960f621ae6b5dc49f",
    "slice --n 1 --primes 2 3": "cfde70a25e07329dba9392faab4e19916df585e5fe585140d2c69d965bba9468",
}


def test_reports_match_pinned_digests(tmp_path):
    digests = {}
    for command in PINNED_REPORTS:
        code, text = run_cli(command.split(), tmp_path)
        assert code == 0, command
        digests[command] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == PINNED_REPORTS


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nilorbit.cli", "verify", "--suite", "partitions", "--n-max", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "verify" and doc["ok"]
