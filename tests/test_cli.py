import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evensets import certificates, cli, formulas, gf2


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def kummer_file(tmp_path):
    text = (resources.files("evensets") / "data" / "kummer.txt").read_text()
    path = tmp_path / "kummer.txt"
    path.write_text(text)
    return str(path)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of the stdout bytes, pinned so that refactors of the encoders
# and the certificate checks cannot change a report unnoticed.
PINNED = [
    (["verify", "paper"],
     "01bbdcab15bed5a87b969dc2080710d6c4bfce0b2e365fdfcb840f7325d08d1d"),
    (["--json", "verify", "paper"],
     "cee55818e6d7abd56bd63a0bd79d19736dd14622da833d8ffeffb7ad1c4e4595"),
    (["gaps", "--degree", "10", "--parity", "strict"],
     "46d80a35b03f62b8bbf51830981c4581bb2612e0c159d9b92f05958a4b0590cd"),
    (["--json", "gaps", "--degree", "10", "--parity", "strict"],
     "31ecf4716fd9e4bbce24713e338f743dcdaaca2a21625ef450f7dbc7e216e0b4"),
    (["--json", "code", "analyze", "kummer.txt"],
     "bed30ded240d65b0e98c66fab1d89d8671f6326029394bf9311e17f07e54b826"),
    (["--json", "code", "analyze", "togliatti.txt"],
     "1c1d96822c5caeb17e902c8351a4556cfddb70f3907c03bda36bb16c61768d7b"),
    (["--json", "code", "project", "kummer.txt", "--word", "1111111100000000"],
     "1a069da0561df96d20202cb63adf2dc1a7d343b50afa09f9f237c89bf4d7c890"),
    (["griesmer", "--k", "12", "--d", "32"],
     "57c11fdcd54bca9dc2c07bb37d89f1913b8a2726b19b460fab10da51f5c4cc5c"),
    (["--json", "griesmer", "--k", "12", "--d", "32"],
     "6eee291a0b1e1f65dda25b2adb907a39869091deac82eabd80744fbad9232586"),
    (["griesmer", "--n", "65", "--d", "32"],
     "f71a1fa6463fb44a78506d2ed39a10764fee67d98e2c6267ecf7c2acf9d3c3b8"),
    (["--json", "griesmer", "--n", "65", "--d", "32"],
     "4cecb0adde47a866d016a1a7b3372776446fd3433d98b0ccd1ef766169c199e0"),
    (["chi", "--degree", "4", "--twist", "1", "--weight", "2"],
     "1ebc5fb8dfd13ddeeb3694b715b1088e216c4d8e8ba24b2c55537a66e67f30c5"),
    (["--json", "chi", "--degree", "4", "--twist", "1", "--weight", "2"],
     "6b624d313d2c5d372fdd764737020c79eec66bfccdf76e4695b02b3f3342d90a"),
    (["emin", "--degree", "8", "--weak"],
     "b1f0bfbdcf8be6fab18044429978593d8e48369a4a09253419d18d869dd511d6"),
    (["--json", "emin", "--degree", "8", "--weak"],
     "bd815e5be09197e2c73a89e1d477a184954c5afcc6bda498d498deb797ce4e0d"),
    (["surface", "bounds", "--degree", "6", "--nodes", "65"],
     "684821705c81d967e18db4a90edd076809f5ddb208b540bd1504f57a1e423283"),
    (["--json", "surface", "bounds", "--degree", "6", "--nodes", "65"],
     "22198dbcb91e99228e8fbf74302969e99900933e64f1110d4250f45ef1487620"),
]


# sha256 of `--json code analyze reed_muller_2_6.txt`, run from tests/data.
REED_MULLER_DIGEST = "358372908601afe22680e12070d1107ffd330d3cbd72336ff966f51a0f655068"
# The same for reed_muller_3_6.txt, first recorded with a ripple-carry plane
# adder and per-value Krawtchouk sums, so it pins that the faster kernels
# print the same report.
REED_MULLER_3_6_DIGEST = "254d3d78d55efca45e1ebfacbfe0d2e56c865bc30d34286a66a4ff1bbd06a65c"
# Weight enumerator of RM(2,6) (MacWilliams & Sloane, ch. 15).
REED_MULLER_2_6_WEIGHTS = {0: 1, 16: 2604, 24: 291648, 28: 888832, 32: 1828134,
                           36: 888832, 40: 291648, 48: 2604, 64: 1}
# sha256 of `--json code analyze reed_muller_2_5.txt`, run from tests/data,
# first recorded when each of the two words of the row above the lanes made
# its own carry-save pass over all 32 column tables, so it pins that the
# grouped count prints the same report.
REED_MULLER_2_5_DIGEST = "b112dd65bfd9e7c41f13de8372f3311b614f43b02041c8796c0dd1b9dde5e7be"
# Weight enumerator of RM(2,5) (MacWilliams & Sloane, ch. 15).
REED_MULLER_2_5_WEIGHTS = {0: 1, 8: 620, 12: 13888, 16: 36518, 20: 13888, 24: 620, 32: 1}


def macwilliams_transform(n, dual_dimension, counts):
    """A code's enumerator from its dual's, by binomial sums (zero counts dropped)."""
    transform = {}
    for j in range(n + 1):
        total = sum(b * sum((-1) ** h * comb(i, h) * comb(n - i, j - h)
                            for h in range(min(i, j) + 1))
                    for i, b in counts.items())
        assert total % (1 << dual_dimension) == 0
        if total:
            transform[j] = total >> dual_dimension
    return transform


@pytest.mark.parametrize("argv, digest", PINNED)
def test_stdout_bytes_pinned(capsys, monkeypatch, argv, digest):
    # The code reports carry the file path, so read the bundled files by
    # their bare names.
    monkeypatch.chdir(str(resources.files("evensets") / "data"))
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert sha256(out) == digest


# sha256 of `gaps` stdout, text then --json, for every proven (degree,
# parity), recorded when the command printed the certificate's to_dict().
# Checked in-process only; (10, strict) also runs in a fresh process above.
GAPS_PINNED = [
    (3, "strict", "6b93e00d6dfcb410f48829d80cf72590223eb2add318d2f575de8ffee593a6ca",
     "27a6d71e55d8766aa6ca164ac1a02f440d73e1c566de6e536f85dca637821a2a"),
    (4, "strict", "e8216471906d2a36b6e5f934ebfdbe57bcab0c3949f0459d8d133e8e08d1a039",
     "17af6dc096e8f1278114d2fe1452f87304b534ccd7d665a2d5b363573138b0f8"),
    (5, "strict", "d83f3809c9e08f94c91cab9b609a5a01d0f7e0fe8a716225ed8b59173884b8ad",
     "86a7455e36faae4190723318595624a3d35263d7f50f3c968f1d79ee3ff0c9d6"),
    (6, "strict", "03de8b1f3ee66988989b9649ee58f9779a6e6f7062232c169914abf5a7cdf2a8",
     "98338f92b692ae31a6814de8f476bdad8abfa6de53ad667b0ccee2bd99396d68"),
    (7, "strict", "728813651c7eb5458fa83d18fa167655c839095041f39318779d0ed2b39aaa58",
     "03d6a263d048fc039c46ff40e0807e711cc16b096129555c2a1cb26443ce06cf"),
    (8, "strict", "9ef9abd877c1b4f2a348c31222ec3b5faaef77b5b87fd7f3546d3f410eaa36df",
     "494f0f8bf4c1b61c5f2536c98ebed0a28fd202860581e4b6f5b422278dbd2943"),
    (10, "strict", "46d80a35b03f62b8bbf51830981c4581bb2612e0c159d9b92f05958a4b0590cd",
     "31ecf4716fd9e4bbce24713e338f743dcdaaca2a21625ef450f7dbc7e216e0b4"),
    (2, "weak", "1756ea62557dd00da5a3758a8fb028fa4b39a2408a01022e908e489857fb850d",
     "ca19108f0961bf7bdb870836df632c457fd806e47a36ca8a30a35a1ed7a3bff0"),
    (4, "weak", "164c5faf559ea022a9e753391af024cd4432fee5eeade9ec374030de9d8964bc",
     "e7d4564da918a8003ca315931b2fa41982a6e060d6219c84352d2255bb275904"),
    (6, "weak", "bede14caec5d3690f306dab6d9ff0f60adc7b203fb38319d2a2c939280315e14",
     "8c3cdd25beed03221284e126966429739053e4ed690ae7e81845746c12febb78"),
    (8, "weak", "1088d246eb28304610814ca8618c9bd43fae3d210ad2b7c4b2d8cd805a3c11fb",
     "0f71a83500573c94682e6bb60a6b78b9bd17736fedaa25b8e6723a17c5f39874"),
]


@pytest.mark.parametrize("degree, parity, text_digest, json_digest", GAPS_PINNED)
def test_gaps_stdout_pinned(capsys, degree, parity, text_digest, json_digest):
    argv = ["gaps", "--degree", str(degree), "--parity", parity]
    for flags, digest in (([], text_digest), (["--json"], json_digest)):
        code, out, _ = run_cli(capsys, flags + argv)
        assert (code, sha256(out)) == (0, digest), flags


# Every pinned report, run the way a user runs it: `(argv, digest, cwd)`.
# The code reports carry the file path, so each runs where its matrix is.
FRESH_PROCESS = (
    [(argv, digest, str(resources.files("evensets") / "data")) for argv, digest in PINNED]
    + [(["--json", "code", "analyze", name], digest, str(Path(__file__).parent / "data"))
       for name, digest in [("reed_muller_2_5.txt", REED_MULLER_2_5_DIGEST),
                            ("reed_muller_2_6.txt", REED_MULLER_DIGEST),
                            ("reed_muller_3_6.txt", REED_MULLER_3_6_DIGEST)]])


@pytest.mark.parametrize("argv, digest, cwd", FRESH_PROCESS,
                         ids=[" ".join(argv) for argv, _, _ in FRESH_PROCESS])
def test_fresh_process_stdout_pinned(argv, digest, cwd):
    # A cold start builds the parser on its first call. The console script
    # runs when it is installed, the module otherwise; neither writes bytecode.
    exe = shutil.which("evensets")
    command = [exe] if exe else [sys.executable, "-m", "evensets.cli"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run(command + argv, cwd=cwd, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def leaf_parsers(parser, path=()):
    """(command path, parser) for every parser with no subcommands below it."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, path + (name,))


class TestParserReuse:
    """main parses with one tree per process, so parsing must not change it."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_pinned_cases_twice_in_both_orders(self, capsys, monkeypatch):
        monkeypatch.chdir(str(resources.files("evensets") / "data"))
        for argv, digest in PINNED + PINNED[::-1]:
            code, out, _ = run_cli(capsys, argv)
            assert (code, sha256(out)) == (0, digest), argv

    def test_no_flag_carries_over(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as bad:
            cli.main(["--json", "--output", str(tmp_path / "bad"), "emin", "--degree", "x"])
        assert bad.value.code == 2
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["emin", "--degree", "4", "--json",
                                        "--output", str(target)])
        assert (code, out) == (0, "")
        assert json.loads(target.read_text())["payload"]["min_weight"] == 8
        code, out, _ = run_cli(capsys, ["emin", "--degree", "4"])
        assert code == 0
        assert out == "command: emin\nstatus: info\ndegree: 4\nparity: strict\nmin_weight: 8\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_every_leaf_has_a_handler(self):
        leaves = {"cmd_" + "_".join(path) for path, _ in leaf_parsers(cli.build_parser())}
        assert len(leaves) == 8
        assert leaves == {name for name in vars(cli) if name.startswith("cmd_")}
        assert all(callable(getattr(cli, name)) for name in leaves)

    def test_handlers_looked_up_at_call_time(self, capsys, monkeypatch):
        cli.build_parser()
        monkeypatch.setattr(cli, "cmd_emin", lambda args: ("info", {"patched": args.degree}))
        code, out, _ = run_cli(capsys, ["--json", "emin", "--degree", "4"])
        assert code == 0
        assert json.loads(out) == {"command": "emin", "status": "info",
                                   "payload": {"patched": 4}}


class TestCodeAnalyze:
    def test_text_output(self, capsys, kummer_file):
        code, out, _ = run_cli(capsys, ["code", "analyze", kummer_file])
        assert code == 0
        assert "n: 16" in out
        assert "k: 5" in out
        assert "minimum_distance: 8" in out
        assert "doubly-even" in out

    def test_json_output(self, capsys, kummer_file):
        code, out, _ = run_cli(capsys, ["--json", "code", "analyze", kummer_file])
        assert code == 0
        doc = json.loads(out)
        payload = doc["payload"]
        assert payload["weight_distribution"] == {"0": 1, "8": 30, "16": 1}
        assert payload["self_orthogonal"] is True
        assert payload["dual_dimension"] == 11

    def test_weight_key_order_per_format(self, capsys, monkeypatch):
        # The text report lists weights in numeric order; --json sorts every
        # key as a string, so weight 16 comes before weight 8.
        monkeypatch.chdir(str(resources.files("evensets") / "data"))
        _, text, _ = run_cli(capsys, ["code", "analyze", "kummer.txt"])
        assert "weight_distribution: {'0': 1, '8': 30, '16': 1}\n" in text
        _, out, _ = run_cli(capsys, ["--json", "code", "analyze", "kummer.txt"])
        assert list(json.loads(out)["payload"]["weight_distribution"]) == ["0", "16", "8"]

    def test_json_flag_after_subcommand(self, capsys, kummer_file):
        _, before, _ = run_cli(capsys, ["--json", "code", "analyze", kummer_file])
        _, after, _ = run_cli(capsys, ["code", "analyze", kummer_file, "--json"])
        assert before == after

    def test_ragged_matrix_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1100\n101\n")
        code, _, err = run_cli(capsys, ["code", "analyze", str(bad)])
        assert code == 2
        assert "error:" in err and "line 2" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["code", "analyze", str(tmp_path / "nope")])
        assert code == 2
        assert "error:" in err

    def test_no_data_rows_cites_no_line(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# only comments\n\n")
        code, out, err = run_cli(capsys, ["code", "analyze", str(empty)])
        assert (code, out, err) == (2, "", "error: no data rows found\n")

    def test_over_the_cap_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(gf2, "ENUMERATION_CAP", 11)
        matrix = tmp_path / "twelve.txt"
        matrix.write_text("".join(gf2.bit_string(24, 1 << i | 1 << (i + 12)) + "\n"
                                  for i in range(12)))
        code, out, err = run_cli(capsys, ["code", "analyze", str(matrix)])
        assert (code, out) == (2, "")
        assert err == "error: refusing to enumerate 2^12 codewords (cap is 2^11)\n"

    def test_reed_muller_2_6(self, capsys, monkeypatch):
        # RM(2,6) is [64,22,16]; its enumerator is the classical one
        # (MacWilliams & Sloane, ch. 15), which no walk here computes.
        monkeypatch.chdir(Path(__file__).parent / "data")
        code, out, _ = run_cli(capsys, ["--json", "code", "analyze", "reed_muller_2_6.txt"])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert (payload["n"], payload["k"], payload["minimum_distance"]) == (64, 22, 16)
        assert payload["parity_class"] == "doubly-even"
        assert payload["weight_distribution"] == {
            str(w): a for w, a in REED_MULLER_2_6_WEIGHTS.items()}
        # test_fresh_process_stdout_pinned checks the same digest cold.
        assert sha256(out) == REED_MULLER_DIGEST

    def test_reed_muller_2_5(self, capsys, monkeypatch):
        # RM(2,5) is the self-dual [32,16,8] doubly-even code, so the count
        # walks the code itself at dimension 16: one row above the lanes.
        monkeypatch.chdir(Path(__file__).parent / "data")
        code, out, _ = run_cli(capsys, ["--json", "code", "analyze", "reed_muller_2_5.txt"])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert (payload["n"], payload["k"], payload["dual_dimension"]) == (32, 16, 16)
        assert (payload["minimum_distance"], payload["parity_class"]) == (8, "doubly-even")
        assert payload["weight_distribution"] == {
            str(w): a for w, a in REED_MULLER_2_5_WEIGHTS.items()}
        assert macwilliams_transform(32, 16, REED_MULLER_2_5_WEIGHTS) == REED_MULLER_2_5_WEIGHTS
        # test_fresh_process_stdout_pinned checks the same digest cold.
        assert sha256(out) == REED_MULLER_2_5_DIGEST

    def test_reed_muller_3_6(self, capsys, monkeypatch):
        # RM(3,6) is [64,42,8], the dual of RM(2,6), so its enumerator is
        # the MacWilliams transform of RM(2,6)'s.  The count walks the
        # 22-dimensional dual bit-sliced and maps it back at n = 64.
        monkeypatch.chdir(Path(__file__).parent / "data")
        code, out, _ = run_cli(capsys, ["--json", "code", "analyze", "reed_muller_3_6.txt"])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert (payload["n"], payload["k"], payload["dual_dimension"]) == (64, 42, 22)
        assert (payload["minimum_distance"], payload["parity_class"]) == (8, "even")
        transform = macwilliams_transform(64, 22, REED_MULLER_2_6_WEIGHTS)
        assert payload["weight_distribution"] == {str(w): a for w, a in transform.items()}
        # test_fresh_process_stdout_pinned checks the same digest cold.
        assert sha256(out) == REED_MULLER_3_6_DIGEST


def text_mode_result(path):
    """What parsing a text-mode read of the file gives: a code or an error line."""
    try:
        return gf2.parse_generator_matrix(Path(path).read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:
        return f"error: {exc}\n"


class TestMatrixFileRead:
    """Matrix files are read as bytes; they parse as a text-mode read does."""

    @pytest.mark.parametrize("ends", [("\n",) * 4, ("\r\n",) * 4, ("\r",) * 4,
                                      ("\r\n", "\r", "\n", "\r\n"),
                                      ("\r", "\r\n", "\r\r\n", "")])
    def test_line_ends_parse_as_in_text_mode(self, tmp_path, ends):
        lines = ["# header", "1100 11", "0011 00", "1010 10"]
        path = tmp_path / "matrix.txt"
        path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode())
        code = gf2.read_generator_matrix(str(path))
        assert code == text_mode_result(path)
        assert code == gf2.LinearCode.from_strings([line.replace(" ", "") for line in lines[1:]])

    @pytest.mark.parametrize("ends", [("\n", "\n"), ("\r\n", "\r"), ("\r", "\r\r\n")])
    def test_parse_errors_cite_the_text_mode_line(self, capsys, tmp_path, ends):
        path = tmp_path / "ragged.txt"
        path.write_bytes(f"1100{ends[0]}0011{ends[1]}101\n".encode())
        code, out, err = run_cli(capsys, ["code", "analyze", str(path)])
        assert (code, out, err) == (2, "", text_mode_result(path))

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_unreadable_files_exit_2_with_the_text_mode_error(self, capsys, tmp_path, kind):
        path = tmp_path / "matrix.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(b"1100\n\xff\xfe11\n")
        expected = text_mode_result(path)
        assert expected.startswith("error: ")
        code, out, err = run_cli(capsys, ["code", "analyze", str(path)])
        assert (code, out, err) == (2, "", expected)

    def test_a_leading_byte_order_mark_is_dropped(self, capsys, tmp_path):
        # Some editors start a UTF-8 file with U+FEFF.
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"1111\n")
        marked.write_bytes(b"\xef\xbb\xbf1111\n")
        assert gf2.read_generator_matrix(str(marked)) == gf2.read_generator_matrix(str(plain))
        code, out, err = run_cli(capsys, ["code", "analyze", str(marked)])
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("text, line", [("1\ufeff100\n", "1\ufeff100"),
                                            ("\ufeff\ufeff1100\n", "\ufeff1100"),
                                            ("1100\n\ufeff0011\n", "\ufeff0011")])
    def test_a_byte_order_mark_after_the_first_character_is_a_bad_character(
            self, capsys, tmp_path, text, line):
        path = tmp_path / "matrix.txt"
        path.write_bytes(text.encode())
        lineno = text.count("\n", 0, text.index(line)) + 1
        code, out, err = run_cli(capsys, ["code", "analyze", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: line {lineno}: expected only '0', '1' and spaces, got {line!r}\n"

    def test_crlf_data_files_pass_verify_paper(self, capsys, tmp_path):
        data = resources.files("evensets") / "data"
        for name in ("kummer.txt", "togliatti.txt"):
            text = (data / name).read_text(encoding="utf-8")
            (tmp_path / name).write_bytes(text.replace("\n", "\r\n").encode())
        code, out, _ = run_cli(capsys, ["verify", "paper", "--data-dir", str(tmp_path)])
        assert code == 0 and "status: pass" in out


class TestCodeProject:
    def test_projection(self, capsys, kummer_file):
        word = "1111111100000000"
        code, out, _ = run_cli(capsys, ["--json", "code", "project",
                                        kummer_file, "--word", word])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["image_n"] == 8
        assert payload["image_k"] + payload["kernel_dimension"] == 5
        assert all(int(w) % 4 == 0
                   for w in payload["image_weight_distribution"])

    def test_non_codeword_exits_2(self, capsys, kummer_file):
        code, _, err = run_cli(capsys, ["code", "project", kummer_file,
                                        "--word", "1" + "0" * 15])
        assert code == 2
        assert "error:" in err

    def test_wrong_length_word_names_both_lengths(self, capsys, kummer_file):
        code, out, err = run_cli(capsys, ["code", "project", kummer_file, "--word", "111"])
        assert (code, out) == (2, "")
        assert err == "error: cannot project a word of length 3 onto a code of length 16\n"


class TestCalculators:
    def test_griesmer_by_dimension(self, capsys):
        code, out, _ = run_cli(capsys, ["--json", "griesmer", "--k", "12",
                                        "--d", "32"])
        assert code == 0
        assert json.loads(out)["payload"]["n_min"] == 69

    def test_griesmer_by_length(self, capsys):
        code, out, _ = run_cli(capsys, ["--json", "griesmer", "--n", "65",
                                        "--d", "32"])
        assert code == 0
        assert json.loads(out)["payload"]["k_max"] == 8

    def test_griesmer_requires_one_of_n_k(self, capsys):
        with pytest.raises(SystemExit) as neither:
            cli.main(["griesmer", "--d", "32"])
        assert neither.value.code == 2
        with pytest.raises(SystemExit) as both:
            cli.main(["griesmer", "--n", "65", "--k", "12", "--d", "32"])
        assert both.value.code == 2

    def test_griesmer_huge_dimension_is_fast(self, capsys):
        code, out, _ = run_cli(capsys, ["--json", "griesmer", "--k", "100000000",
                                        "--d", "1"])
        assert code == 0
        assert json.loads(out)["payload"]["n_min"] == 100000000

    def test_griesmer_zero_distance_names_d(self, capsys):
        code, _, err = run_cli(capsys, ["griesmer", "--n", "5", "--d", "0"])
        assert code == 2
        assert err == "error: minimum distance must be at least 1, got 0\n"

    @pytest.mark.parametrize("argv, message", [
        (["--k", "5", "--d", "0"], "minimum distance must be at least 1, got 0"),
        (["--k", "0", "--d", "5"], "dimension must be at least 1, got 0"),
        (["--n", "-5", "--d", "1"], "length must be at least 1, got -5"),
    ])
    def test_griesmer_length_names_the_bad_argument(self, capsys, argv, message):
        code, out, err = run_cli(capsys, ["griesmer", *argv])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_chi_integer(self, capsys):
        code, out, _ = run_cli(capsys, ["--json", "chi", "--degree", "8",
                                        "--twist", "4", "--weight", "56"])
        payload = json.loads(out)["payload"]
        assert code == 0
        assert payload["chi"] == "6"
        assert payload["is_integer"] is True
        assert payload["serre_dual_twist"] == 4

    def test_chi_fractional(self, capsys):
        _, out, _ = run_cli(capsys, ["--json", "chi", "--degree", "4",
                                     "--twist", "1", "--weight", "0"])
        payload = json.loads(out)["payload"]
        assert payload["chi"] == "5/2"
        assert payload["is_integer"] is False

    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_chi_nonpositive_degree_exits_2(self, capsys, degree):
        code, out, err = run_cli(capsys, ["chi", "--degree", degree,
                                          "--twist", "1", "--weight", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "degree" in err

    def test_emin(self, capsys):
        _, out, _ = run_cli(capsys, ["--json", "emin", "--degree", "7"])
        assert json.loads(out)["payload"]["min_weight"] == 36
        _, out, _ = run_cli(capsys, ["--json", "emin", "--degree", "8",
                                     "--weak"])
        assert json.loads(out)["payload"]["min_weight"] == 28

    @pytest.mark.parametrize("argv", [["--degree", "-1"], ["--degree", "0", "--weak"]])
    def test_emin_nonpositive_degree_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, ["emin", *argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "at least 1" in err

    @pytest.mark.parametrize("argv", [["emin", "--degree", "3", "--weak"],
                                      ["gaps", "--degree", "3", "--parity", "weak"]])
    def test_weak_parity_on_odd_degree_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: degree 3 is odd; weakly even sets need even degree\n"

    @pytest.mark.parametrize("argv, degree", [
        (["emin", "--degree", "2"], 2),
        (["gaps", "--degree", "1", "--parity", "strict"], 1),
    ])
    def test_strict_parity_on_low_degree_exits_2(self, capsys, argv, degree):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == (f"error: no nonzero strictly even set exists in degree "
                       f"{degree}; a degree-{degree} surface has at most 1 node\n")

    def test_emin_unproven_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["emin", "--degree", "9"])
        assert code == 2
        assert "conjectural" in err

    def test_surface_bounds(self, capsys):
        _, out, _ = run_cli(capsys, ["--json", "surface", "bounds",
                                     "--degree", "6", "--nodes", "65"])
        payload = json.loads(out)["payload"]
        assert payload["b2_resolution"] == 106
        assert payload["dim_lower_bound_strict"] == 12
        assert payload["dim_lower_bound_even"] == 13
        assert payload["strict_weight_modulus"] == 8
        assert payload["weak_weight_residue"] == 3

    def test_surface_bounds_of_the_plane(self, capsys):
        code, out, _ = run_cli(capsys, ["--json", "surface", "bounds",
                                        "--degree", "1", "--nodes", "0"])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["b2_resolution"] == 1
        assert payload["dim_lower_bound_strict"] == 0

    def test_surface_bounds_too_many_nodes_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["surface", "bounds", "--degree", "6",
                                        "--nodes", "66"])
        assert code == 2
        assert "error:" in err

    def test_surface_bounds_degree_zero_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["surface", "bounds", "--degree", "0",
                                          "--nodes", "0"])
        assert code == 2
        assert out == ""
        assert err == "error: surface degree must be at least 1, got 0\n"

    def test_surface_bounds_negative_nodes_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["surface", "bounds", "--degree", "4",
                                          "--nodes", "-1"])
        assert code == 2
        assert out == ""
        assert err == "error: node count must be nonnegative, got -1\n"

    def test_surface_bounds_above_miyaoka_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["surface", "bounds", "--degree", "7",
                                          "--nodes", "1000000"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "at most 112 nodes" in err


class TestGaps:
    def test_gap_certificate(self, capsys):
        code, out, _ = run_cli(capsys, ["--json", "gaps", "--degree", "10",
                                        "--parity", "strict"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["payload"]["conclusion"]["min_weight"] == 80
        assert doc["payload"]["conclusion"]["excluded_weights"] == \
            [88, 96, 104, 112]

    def test_text_lists_steps(self, capsys):
        code, out, _ = run_cli(capsys, ["gaps", "--degree", "7",
                                        "--parity", "strict"])
        assert code == 0
        assert "instability-exclusion" in out
        assert "conclusion:" in out

    def test_unproven_degree_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["gaps", "--degree", "9",
                                        "--parity", "strict"])
        assert code == 2
        assert err == ("error: minimal-weight value for degree 9 is conjectural; "
                       "established degrees are [3, 4, 5, 6, 7, 8, 10]\n")

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_nonpositive_degree_exits_2(self, capsys, degree):
        code, out, err = run_cli(capsys, ["gaps", "--degree", degree,
                                          "--parity", "strict"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: surface degree must be at least 1")


class TestVerifyPaper:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "paper"])
        assert code == 0
        assert "status: pass" in out
        assert "FAIL" not in out

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, ["--json", "verify", "paper"])
        _, second, _ = run_cli(capsys, ["--json", "verify", "paper"])
        assert first == second
        assert json.loads(first)["status"] == "pass"

    @pytest.mark.parametrize("label", ["kummer", "togliatti"])
    def test_corrupted_data_file_fails(self, capsys, tmp_path, label):
        data = resources.files("evensets") / "data"
        for name in ("kummer.txt", "togliatti.txt"):
            shutil.copy(str(data / name), tmp_path / name)
        path = tmp_path / f"{label}.txt"
        rows = path.read_text().splitlines()
        flip = next(i for i, row in enumerate(rows) if row.startswith("1"))
        rows[flip] = "0" + rows[flip][1:]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, ["--json", "verify", "paper",
                                        "--data-dir", str(tmp_path)])
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        failing = [c["name"] for c in doc["payload"]["checks"] if not c["pass"]]
        assert failing == [f"{label} data file round trip"]


    def test_empty_data_dir_is_not_ignored(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, ["verify", "paper", "--data-dir", ""])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestOutputHandling:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["--json", "--output", str(target),
                                        "chi", "--degree", "6", "--twist", "2",
                                        "--weight", "32"])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["payload"]["chi"] == "0"

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.json"
        code, out, err = run_cli(capsys, ["--json", "--output", str(target),
                                          "emin", "--degree", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [["verify", "paper"],
                                      ["--json", "gaps", "--degree", "8", "--parity", "weak"]])
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        target = tmp_path / "report"
        _, stdout, _ = run_cli(capsys, argv)
        code, out, _ = run_cli(capsys, ["--output", str(target)] + argv)
        assert (code, out) == (0, "")
        assert target.read_bytes() == stdout.encode("utf-8")

    def test_empty_output_is_not_ignored(self, capsys):
        code, out, err = run_cli(capsys, ["--output", "", "emin", "--degree", "4"])
        assert code == 2
        assert out == ""
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    def test_text_and_json_agree_numerically(self, capsys):
        argv = ["surface", "bounds", "--degree", "4", "--nodes", "16"]
        _, text, _ = run_cli(capsys, argv)
        _, raw, _ = run_cli(capsys, ["--json"] + argv)
        payload = json.loads(raw)["payload"]
        for key, value in payload.items():
            assert f"{key}: {value}" in text

    def test_installed_entry_point(self, kummer_file):
        exe = shutil.which("evensets")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run([exe, "--json", "emin", "--degree", "3"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"]["min_weight"] == 4

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "evensets.cli", "griesmer", "--k", "5",
             "--d", "8"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "n_min: 16" in proc.stdout


def written_json(value):
    out = []
    cli._write_json(value, "\n", out)
    return "".join(out)


json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
               | st.text())


def json_containers(children):
    return (st.lists(children) | st.lists(children).map(tuple)
            | st.dictionaries(st.text(), children))


json_values = st.recursive(json_leaves, json_containers, max_leaves=40)


class TestJsonWriter:
    """The --json writer against json.dumps(sort_keys=True, indent=2)."""

    @settings(max_examples=300)
    @given(json_values)
    @example({"\u00e9\x00\n\u2028\U0001f600": [[], {}, (), -1, True, None],
              "A": {"b": [False, "\x1f\\\""]}})
    def test_equals_json_dumps(self, value):
        assert written_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("cert", [
        *(certificates.derive_gaps(s, parity)
          for parity in (formulas.STRICT, formulas.WEAK)
          for s in formulas.PROVEN_DEGREES[parity]),
        certificates.sextic_dim_certificate()])
    def test_certificate_fields_equal_to_dict(self, cert):
        assert (written_json({"schema_version": certificates.SCHEMA_VERSION, **vars(cert)})
                == json.dumps(cert.to_dict(), sort_keys=True, indent=2))

    @settings(max_examples=150)
    @given(st.recursive(json_leaves | st.builds(Fraction, st.integers(), st.integers(1, 8)),
                        json_containers, max_leaves=40))
    def test_fractions_are_written_as_encoded(self, value):
        assert (written_json(value)
                == json.dumps(certificates._encode(value), sort_keys=True, indent=2))

    @pytest.mark.parametrize("value", [1.0, {1: 2}, object()])
    def test_rejects_what_a_report_never_holds(self, value):
        with pytest.raises(TypeError):
            written_json(value)


# Loads the CLI in a fresh interpreter, runs the sweep and a code analysis,
# and prints every top-level module loaded since start-up that is neither
# evensets nor part of the standard library.
NON_STDLIB_IMPORTS = """
import sys
before = set(sys.modules)
import contextlib, io, json
from importlib import resources
import evensets.cli
kummer = str(resources.files("evensets") / "data" / "kummer.txt")
for argv in (["--json", "verify", "paper"], ["--json", "code", "analyze", kummer]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert evensets.cli.main(argv) == 0, argv
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"evensets"})))
"""


def test_runs_on_the_standard_library_alone():
    proc = subprocess.run([sys.executable, "-c", NON_STDLIB_IMPORTS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# Prints which slow modules importing the CLI loads in a fresh interpreter,
# beyond what the stdlib modules the package needs load there, which varies
# by Python version.  dataclasses and inspect pull in ast, dis and tokenize,
# and pathlib pulls in urllib.parse and ipaddress; each costs more start-up
# time than most commands take to run.  argv[1] holds the package directory.
SLOW_IMPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import argparse, fractions, functools, math
before = set(sys.modules)
import evensets.cli
slow = {"dataclasses", "inspect", "typing", "pathlib", "urllib", "ipaddress"}
print(json.dumps(sorted(slow & (set(sys.modules) - before))))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S as well: a .pth file in site-packages may import typing or pathlib
    # before the script starts, which would hide them from the check.
    package_dir = str(Path(cli.__file__).parent.parent)
    for flags in ([], ["-S"]):
        proc = subprocess.run([sys.executable, *flags, "-c", SLOW_IMPORTS, package_dir],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [], flags


# Placeholders in fuzzed argv, replaced by paths inside a temporary directory
# and, for FIRST_ROW, by the first line of the matrix file (a codeword when
# the file is a 0/1 matrix).
MATRIX, OUTPUT, DIRECTORY, FIRST_ROW = "<matrix>", "<output>", "<dir>", "<row>"
# Each real subcommand with its positional argument and options.
COMMANDS = {
    ("code", "analyze"): (MATRIX,),
    ("code", "project"): (MATRIX, "--word"),
    ("griesmer",): ("--n", "--k", "--d"),
    ("chi",): ("--degree", "--twist", "--weight"),
    ("emin",): ("--degree", "--weak"),
    ("gaps",): ("--degree", "--parity"),
    ("surface", "bounds"): ("--degree", "--nodes"),
    ("verify", "paper"): ("--data-dir",),
}
# No '/' or '-' in random text: a random token is then never an absolute
# path or an option, so with the working directory in the temporary
# directory, --output writes nowhere else.
TOKENS = st.one_of(
    st.sampled_from(sorted({o for opts in COMMANDS.values() for o in opts}
                           | {"--json", "--output", "--help", "code", "strict"})),
    st.integers(-3, 12).map(str),
    st.integers(-10**12, 10**12).map(str),
    st.text(st.characters(blacklist_characters="/\\-"), max_size=6),
    st.text("01", max_size=30),
)
VALUES = {
    "--word": st.one_of(st.just(FIRST_ROW), st.text("01", max_size=30)),
    "--parity": st.sampled_from(["strict", "weak"]),
    "--data-dir": st.just(DIRECTORY),
}
INTEGER = st.integers(-3, 12).map(str)


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    for option in COMMANDS[command]:
        if draw(st.integers(0, 7)) == 0:
            continue
        argv.append(option)
        if option.startswith("--") and option != "--weak":
            value = VALUES.get(option, INTEGER)
            argv.append(draw(TOKENS if draw(st.integers(0, 3)) == 0 else value))
    if draw(st.booleans()):
        argv.insert(0, "--json")
    if draw(st.integers(0, 3)) == 0:
        argv[:0] = ["--output", OUTPUT]
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.lists(TOKENS, min_size=1, max_size=3))
    return draw(st.permutations(argv)) if draw(st.integers(0, 9)) == 0 else argv


@st.composite
def matrix_files(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    n = draw(st.integers(1, 24))
    rows = draw(st.lists(st.text("01", min_size=n, max_size=n), min_size=1, max_size=12))
    return ("\n".join(rows) + "\n").encode()


def test_commands_are_the_parser_grammar():
    # An option added to the parser but not to COMMANDS would never be fuzzed.
    grammar = {}
    for path, parser in leaf_parsers(cli.build_parser()):
        options = []
        for action in parser._actions:
            if not action.option_strings:
                options.append({"file": MATRIX}.get(action.dest, action.dest))
            options += [o for o in action.option_strings
                        if o not in ("-h", "--help", "--json", "--output")]
        grammar[path] = tuple(options)
    assert grammar == COMMANDS


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(fuzzed_argv(), matrix_files())
    def test_any_argv_exits_0_1_or_2_without_traceback(self, argv, matrix):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "m.txt").write_bytes(matrix)
            paths = {MATRIX: str(Path(tmp) / "m.txt"), OUTPUT: str(Path(tmp) / "out"),
                     DIRECTORY: tmp,
                     FIRST_ROW: matrix.decode("utf-8", "replace").split("\n")[0]}
            argv = [paths.get(t, t) for t in argv]
            out, err = io.StringIO(), io.StringIO()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()


def parse_outcome(parse, argv):
    """vars(parse(argv)), or the (exit code, stdout, stderr) of its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestLeafParse:
    """main parses at the leaf its leading words name and falls back to the tree."""

    def test_leaf_table_is_the_tree_leaves(self):
        tree = dict(leaf_parsers(cli.build_parser()))
        assert cli._LEAVES.keys() == tree.keys()
        assert all(cli._LEAVES[path] is parser for path, parser in tree.items())

    @pytest.mark.parametrize("argv", [argv for argv, _ in PINNED]
                             + [list(path) + ["-h"] for path in COMMANDS],
                             ids=" ".join)
    def test_pinned_and_help_argv_parse_as_the_tree(self, argv):
        assert (parse_outcome(cli._parse_args, argv)
                == parse_outcome(cli.build_parser().parse_args, argv))

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_argv(), matrix_files())
    def test_fuzzed_argv_parse_as_the_tree(self, argv, matrix):
        paths = {MATRIX: "m.txt", OUTPUT: "out", DIRECTORY: ".",
                 FIRST_ROW: matrix.decode("utf-8", "replace").split("\n")[0]}
        argv = [paths.get(t, t) for t in argv]
        assert (parse_outcome(cli._parse_args, argv)
                == parse_outcome(cli.build_parser().parse_args, argv)), argv

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["evensets", "emin", "--degree", "4"])
        code = cli.main()
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ("command: emin\nstatus: info\ndegree: 4\n"
                                "parity: strict\nmin_weight: 8\n")

    def test_leftover_strings_get_the_root_usage(self, capsys, kummer_file):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["code", "analyze", kummer_file, "extra"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: evensets [-h]")
        assert err.rstrip().endswith("error: unrecognized arguments: extra")
