"""Command-line behavior: outputs, formats, exit codes."""

import contextlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockperm import cli, constructions, enumeration, graph, perm, selftest
from blockperm.bounds import bound_report_from_payload, gv_lower, sp_upper, table1
from blockperm.cli import main
from blockperm.constructions import (codebook_from_payload, codebook_from_text, codebook_payload,
                                     codebook_to_text, even_n_code)
from blockperm.enumeration import enumerate_spheres, sphere_profile, sphere_profile_payload

WORKED = ["4 8 3 2 6 7 5 1 9", "6 7 8 3 2 5 1 9 4"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_worked_example(capsys):
    code, out, _ = run(capsys, "dist", *WORKED)
    assert code == 0
    assert out.strip() == "3"


def test_dist_with_definition_check(capsys):
    code, out, err = run(capsys, "dist", *WORKED, "--check-definition")
    assert (code, out, err) == (0, "3\n", "")  # the default guard admits the n = 9 example


def test_dist_json(capsys):
    code, out, _ = run(capsys, "dist", "1 2 3", "2 3 1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"distance": 1, "n": 3}


def test_dist_validation_error(capsys):
    code, _, err = run(capsys, "dist", "1 1 2", "1 2 3")
    assert code == 1
    assert "error" in err


def run_python(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=60)


def run_module(*argv):
    return run_python("-m", *argv)


@pytest.mark.parametrize("module", ["blockperm", "blockperm.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = run_module(module, "dist", "1 2 3", "2 1 3")
    assert (done.returncode, done.stdout) == (0, "2\n")
    done = run_module(module, "dist", "1 1 2", "1 2 3")
    assert done.returncode == 1
    assert done.stderr.startswith("error:")


def test_cli_import_starts_no_process_machinery():
    done = run_python("-c", "import sys, blockperm.cli; "
                            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    assert (done.returncode, done.stdout) == (0, "[]\n")


ALWAYS = ["cli", "enumeration", "perm"]


@pytest.mark.parametrize("argv, loaded", [
    (["dist", "1 2 3", "2 3 1", "--check-definition"], ALWAYS),
    (["spheres", "--n", "4"], ALWAYS),
    (["construct", "--method", "syndrome", "--n", "4", "--d", "3"], ALWAYS + ["constructions"]),
    (["bounds", "--n", "5", "--d", "3", "--exact"], ALWAYS + ["bounds"]),
    (["graph", "--n", "4", "--d", "3", "--greedy"], ALWAYS + ["constructions", "graph"]),
    (["selftest"], ALWAYS + ["bounds", "constructions", "graph", "selftest"]),
], ids=["dist", "spheres", "construct", "bounds", "graph", "selftest"])
def test_each_subcommand_loads_only_the_modules_it_calls(argv, loaded):
    done = run_python("-c", "import sys\n"
                            "from blockperm import cli\n"
                            "code = cli.main(sys.argv[1:])\n"
                            "print(sorted(m for m in sys.modules if m.startswith('blockperm.')),"
                            " file=sys.stderr)\n"
                            "sys.exit(code)\n", *argv)
    assert done.returncode == (2 if argv == ["selftest"] else 0)  # criterion 4 fails by design
    assert done.stderr.splitlines()[-1] == str(sorted(f"blockperm.{m}" for m in loaded))


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_charset_json(capsys):
    code, out, _ = run(capsys, "charset", "2 1 3")
    assert code == 0
    assert json.loads(out) == {"n": 3, "pairs": [[1, 3], [2, 1]]}


def test_spheres_csv(capsys):
    code, out, _ = run(capsys, "spheres", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["k,count", "0,1", "1,3", "2,9", "3,11"]


def test_spheres_json_round_trip(capsys):
    code, out, _ = run(capsys, "spheres", "--n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == sphere_profile_payload(enumerate_spheres(5))


@pytest.mark.parametrize("n", range(9, 13))
def test_spheres_past_the_scan_guard(capsys, n):
    code, out, err = run(capsys, "spheres", "--n", str(n))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(k) for k, _ in rows] == list(range(n))
    counts = [int(c) for _, c in rows]
    assert sum(counts) == math.factorial(n)
    assert tuple(counts) == sphere_profile(n).counts


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's int/text conversion limit while a test reads the CLI's
    output; the CLI itself must print under the default limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, mode", [
    (["bounds", "--n", "2000", "--d", "3", "--exact"], "exact"),
    (["bounds", "--n", "1700", "--d", "5"], "estimate"),
])
def test_bounds_print_integers_past_the_digit_limit(capsys, argv, mode):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # restored after the command
    n, d = int(argv[2]), int(argv[4])
    with unlimited_int_digits():
        values = dict(line.split(maxsplit=1) for line in out.splitlines()[1:])
        exact = mode == "exact"
        assert int(values["gv_lower"].split()[0]) == gv_lower(n, d, exact=exact)
        assert int(values["sp_upper"].split()[0]) == sp_upper(n, d, exact=exact)
        assert len(values["sp_upper"]) > 4300  # past the interpreter's default limit


def test_spheres_json_past_the_digit_limit(capsys):
    code, out, err = run(capsys, "spheres", "--n", "2000", "--format", "json")
    assert (code, err) == (0, "")
    with unlimited_int_digits():
        payload = json.loads(out)
        assert payload["n"] == 2000 and len(payload["counts"]) == 2000
        assert sum(payload["counts"]) == math.factorial(2000)


def test_ball_exact_and_bounds(capsys):
    assert run(capsys, "ball", "--n", "4", "--t", "1")[1].strip() == "4"
    code, out, _ = run(capsys, "ball", "--n", "13", "--t", "4", "--bounds")
    assert code == 0
    assert out.split() == ["11880", "154440"]


def test_exact_balls_and_bounds_need_no_guard(capsys):
    code, out, _ = run(capsys, "ball", "--n", "13", "--t", "4")
    assert (code, out) == (0, f"{enumeration.ball_size_exact(13, 4).size}\n")
    code, out, _ = run(capsys, "bounds", "--n", "13", "--d", "9", "--exact")
    assert code == 0
    assert "gv_lower        71\n" in out and "sp_upper        215721\n" in out


@pytest.mark.parametrize("argv", [
    ["ball", "--n", "4", "--t", "1", "--max-n", "9"],
    ["bounds", "--n", "5", "--d", "3", "--exact", "--max-n", "9"],
    ["ball", "--n", "4", "--t", "1", "--threads", "2"],
    ["spheres", "--n", "4", "--threads", "2"],
    ["spheres", "--n", "4", "--max-n", "8"],
    ["selftest", "--max-n", "7"],
    ["graph", "--n", "4", "--d", "3", "--greedy", "--order", "degree"],
    ["dist", "1 2 3", "2 3 1", "--check-definition", "--max-n", "16"],
    ["construct", "--method", "syndrome", "--n", "4", "--d", "3", "--max-n", "8"],
    ["construct", "--method", "cyclic", "--n", "4", "--format", "json", "--max-words", "5"],
    ["verify", "--d", "2", "code.txt", "--max-words", "5"],
    ["graph", "--n", "4", "--d", "3", "--stats", "--max-n", "7"],
    ["graph", "--n", "4", "--d", "3", "--exact", "--max-vertices", "5000"],
    ["graph", "--n", "4", "--d", "3", "--greedy", "--format", "json", "--max-words", "1"],
])
def test_removed_options_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


def test_construct_even_text(capsys):
    code, out, _ = run(capsys, "construct", "--method", "even", "--n", "4")
    assert code == 0
    book = codebook_from_text(out)
    assert book.words == even_n_code(4).words
    assert out.splitlines()[0] == "4 3 even"


def test_construct_syndrome_with_vector(capsys):
    code, out, _ = run(capsys, "construct", "--method", "syndrome", "--n", "4",
                       "--d", "3", "--f", "1,1", "--format", "json")
    assert code == 0
    assert (1, 2, 3, 4) in codebook_from_payload(json.loads(out)).words
    assert json.loads(out)["verified_min_distance"] >= 3


def test_construct_syndrome_defaults_to_largest_class(capsys):
    code, out, _ = run(capsys, "construct", "--method", "syndrome", "--n", "5",
                       "--d", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["words"]) >= 1


def test_construct_syndrome_rejects_d_past_n_minus_1(capsys):
    code, out, err = run(capsys, "construct", "--method", "syndrome", "--n", "5", "--d", "5",
                         "--format", "json")
    assert (code, out) == (1, "")
    assert err == "error: design distance must be an int in [2, 4], got 5\n"


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--n", "1", "--d", "1"], "n must be an int >= 2, got 1"),
    (["bounds", "--n", "0", "--d", "0", "--exact"], "n must be an int >= 2, got 0"),
    (["construct", "--method", "syndrome", "--n", "2", "--d", "2"], "n must be an int >= 3, got 2"),
], ids=["bounds-n-1", "bounds-n-0-d-0", "syndrome-n-2"])
def test_an_n_with_no_valid_distance_is_named(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


UNRECOGNIZED = "unrecognized arguments: "


def _removed(argv, option, id):
    """A row of the table below for an option the subcommand does not have."""
    return pytest.param(argv, UNRECOGNIZED + option, id=id)


@pytest.mark.parametrize("argv, named", [
    pytest.param(["construct", "--method", "even", "--n", "4", "--d", "3"],
                 "--d not used by --method even", id="construct-even-d"),
    pytest.param(["construct", "--method", "even", "--n", "4", "--d", "3", "--f", "1,1"],
                 "--d, --f not used by --method even", id="construct-even-d-f"),
    pytest.param(["construct", "--method", "zn1", "--n", "4", "--f", "1"],
                 "--f not used by --method zn1", id="construct-zn1-f"),
    pytest.param(["construct", "--method", "cyclic", "--n", "4", "--d", "0"],
                 "--d not used by --method cyclic", id="construct-cyclic-d-0"),
    pytest.param(["bounds", "--table1", "--n", "0"], "--n not used by --table1",
                 id="bounds-table1-n-0"),
    pytest.param(["bounds", "--table1", "--exact"], "--exact not used by --table1",
                 id="bounds-table1-exact"),
    pytest.param(["bounds", "--table1", "--exact", "--n", "5", "--d", "3"],
                 "--exact, --n, --d not used by --table1", id="bounds-table1-exact-n-d"),
    pytest.param(["construct", "--method", "hamdecomp", "--n", "7", "--d", "6"],
                 "--d not used by --method hamdecomp", id="construct-hamdecomp-d"),
    # Guard options these modes once rejected themselves; the subcommands no
    # longer have them, so argparse rejects them before any mode is chosen.
    _removed(["construct", "--method", "cyclic", "--n", "8", "--max-words", "3"],
             "--max-words 3", "construct-text-max-words"),
    _removed(["construct", "--method", "syndrome", "--n", "5", "--d", "3", "--max-words", "0"],
             "--max-words 0", "construct-text-max-words-0"),
    _removed(["graph", "--n", "4", "--d", "3", "--greedy", "--max-words", "3"],
             "--max-words 3", "graph-text-max-words"),
    _removed(["graph", "--n", "4", "--d", "3", "--stats", "--format", "json", "--max-words", "3"],
             "--max-words 3", "graph-stats-max-words"),
    _removed(["graph", "--n", "4", "--d", "3", "--greedy", "--max-vertices", "3"],
             "--max-vertices 3", "graph-greedy-max-vertices"),
    _removed(["graph", "--n", "4", "--d", "3", "--stats", "--max-vertices", "3"],
             "--max-vertices 3", "graph-stats-max-vertices"),
    _removed(["dist", "1 2 3", "2 3 1", "--max-n", "2"], "--max-n 2", "dist-max-n"),
    _removed(["dist", "1 2 3", "2 3 1", "--format", "json", "--max-n", "16"], "--max-n 16",
             "dist-json-max-n"),
    _removed(["construct", "--method", "even", "--n", "4", "--max-n", "3"], "--max-n 3",
             "construct-even-max-n"),
    _removed(["construct", "--method", "cyclic", "--n", "6", "--max-n", "10"], "--max-n 10",
             "construct-cyclic-max-n"),
    _removed(["construct", "--method", "zn1", "--n", "6", "--max-n", "10"], "--max-n 10",
             "construct-zn1-max-n"),
    _removed(["construct", "--method", "even", "--n", "4", "--d", "3", "--max-n", "8"],
             "--max-n 8", "construct-even-d-max-n"),
])
def test_options_the_mode_ignores_exit_1(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    # argparse prints the usage and the program name before its own errors
    usage = cli.build_parser().format_usage() + "blockperm: "
    assert err == f"{usage if named.startswith(UNRECOGNIZED) else ''}error: {named}\n"


def test_text_output_does_not_verify(capsys, monkeypatch):
    argv = ["construct", "--method", "cyclic", "--n", "5"]
    _, expected, _ = run(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("text output verified the code")

    with monkeypatch.context() as patch:
        patch.setattr("blockperm.constructions.verify_min_distance", refuse)
        assert run(capsys, *argv) == (0, expected, "")
        assert run(capsys, "graph", "--n", "4", "--d", "3", "--exact")[0] == 0
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["verified_min_distance"] == 2


def test_construct_hamdecomp_not_found_exits_2(capsys):
    code, _, err = run(capsys, "construct", "--method", "hamdecomp", "--n", "5")
    assert code == 2
    assert "no code found" in err


def test_construct_hamdecomp_default_guard_reaches_9(capsys):
    code, out, _ = run(capsys, "construct", "--method", "hamdecomp", "--n", "9")
    assert code == 0
    book = codebook_from_text(out)
    assert len(book.words) == 9 and constructions.verify_min_distance(book) == 8


def test_construct_hamdecomp_reaches_17(capsys):
    code, out, err = run(capsys, "construct", "--method", "hamdecomp", "--n", "17")
    assert (code, err) == (0, "")
    book = codebook_from_text(out)
    assert len(book.words) == 17 and constructions.verify_min_distance(book) == 16
    pairs = [pair for w in book.words for pair in perm.char_set(w)]
    assert len(set(pairs)) == len(pairs) == 17 * 16  # every ordered pair exactly once


@pytest.mark.parametrize("method", ["even", "cyclic", "zn1"])
def test_construct_without_a_guard_does_not_warn(capsys, method):
    code, out, err = run(capsys, "construct", "--method", method, "--n", "6")
    assert (code, err) == (0, "")
    assert codebook_from_text(out).provenance == method


def test_construct_zn1_names_its_n_range(capsys):
    # 2 = 1 + 1 is prime, so n = 1 used to reach the code's d = n-1 = 0
    assert run(capsys, "construct", "--method", "zn1", "--n", "1") == (
        1, "", "error: n must be an int >= 2, got 1\n")


def test_construct_needs_d_for_syndrome(capsys):
    assert run(capsys, "construct", "--method", "syndrome", "--n", "4")[0] == 1


def test_verify_pass_and_fail(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text(codebook_to_text(even_n_code(4)))
    assert run(capsys, "verify", "--d", "3", str(path))[0] == 0
    assert run(capsys, "verify", "--d", "4", str(path))[0] == 2


def test_verify_bare_permutation_file(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("1 2 3 4\n4 3 2 1\n")
    code, out, _ = run(capsys, "verify", "--d", "3", str(path))
    assert code == 0
    assert "minimum distance 3" in out


def test_verify_header_with_integer_provenance(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text("3 2 7\n1 2 3\n3 2 1\n")
    code, out, err = run(capsys, "verify", "--d", "2", str(path))
    assert (code, err) == (0, "")
    assert out == "2 words, minimum distance 2, required 2\n"


def _is_permutation_line(line):
    tokens = line.split()
    return sorted(tokens) == sorted(str(i) for i in range(1, len(tokens) + 1))


@settings(max_examples=60, deadline=None)
@given(words=st.integers(2, 6).flatmap(lambda n: st.lists(
           st.permutations(range(1, n + 1)), min_size=1, max_size=6, unique_by=tuple)),
       d=st.integers(1, 6),
       provenance=st.one_of(
           st.integers(-10**6, 10**6).map(str),
           st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8),
           st.lists(st.integers(0, 9), min_size=1, max_size=4).map(lambda xs: " ".join(map(str, xs))),
       ),
       headed=st.booleans())
def test_code_files_read_back_to_the_same_words(tmp_path_factory, words, d, provenance, headed):
    words = tuple(tuple(w) for w in words)
    n = len(words[0])
    header = f"{n} {d} {provenance}"
    # a header that is itself a permutation reads as a word: the one ambiguity
    # of the format, and the rule's documented choice
    headed = headed and not _is_permutation_line(header)
    lines = ([header] if headed else []) + [" ".join(map(str, w)) for w in words]
    path = tmp_path_factory.mktemp("codes") / "code.txt"
    path.write_text("\n".join(lines) + "\n")
    book = codebook_from_text(path.read_text(), d)
    assert book.words == words
    assert book.provenance == (provenance if headed else "file")
    assert main(["verify", "--d", str(d), str(path)]) in (0, 2)  # read, not rejected


CONSTRUCT_METHODS = [["syndrome", "--n", "5", "--d", "3"], ["cyclic", "--n", "5"],
                     ["even", "--n", "6"], ["zn1", "--n", "6"], ["hamdecomp", "--n", "7"]]


@pytest.mark.parametrize("method", CONSTRUCT_METHODS, ids=[m[0] for m in CONSTRUCT_METHODS])
def test_verify_reads_construct_output_in_both_formats(capsys, tmp_path, method):
    argv = ["construct", "--method", *method]
    lines = set()
    for fmt in ("text", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        path = tmp_path / f"code.{fmt}"
        path.write_text(out)
        d = str(codebook_from_text(out).design_distance)
        code, out, err = run(capsys, "verify", "--d", d, str(path))
        assert (code, err) == (0, "")
        lines.add(out)
    assert len(lines) == 1


def test_verify_a_json_code_from_construct(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(run(capsys, "construct", "--method", "even", "--n", "6", "--format", "json")[1])
    assert run(capsys, "verify", "--d", "5", str(path)) == (
        0, "6 words, minimum distance 5, required 5\n", "")


def test_verify_computes_the_distance_a_json_file_states(capsys, tmp_path):
    path = tmp_path / "lying.json"
    path.write_text(json.dumps(dict(codebook_payload(even_n_code(4)), verified_min_distance=99)))
    assert run(capsys, "verify", "--d", "3", str(path)) == (
        0, "4 words, minimum distance 3, required 3\n", "")
    assert run(capsys, "verify", "--d", "4", str(path)) == (
        2, "4 words, minimum distance 3, required 4\n", "")


GOOD_JSON = codebook_payload(even_n_code(4))
CUT_JSON = json.dumps(GOOD_JSON)[:30]


def _json_error(text):
    """The message the json module gives for text, in this Python version."""
    try:
        json.loads(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is valid JSON")


@pytest.mark.parametrize("text, message", [
    (CUT_JSON, _json_error(CUT_JSON)),
    (json.dumps({k: v for k, v in GOOD_JSON.items() if k != "words"}),
     "code payload lacks 'words'"),
    (json.dumps(dict(GOOD_JSON, words=5)), "malformed code payload: 'int' object is not iterable"),
    (json.dumps(dict(GOOD_JSON, words=[[1.0, 2.0, 3.0, 4.0]])),
     "not a rearrangement of 1..4: [1.0, 2.0, 3.0, 4.0]"),
    (json.dumps(dict(GOOD_JSON, n=2.5)), "n must be positive, got 2.5"),
    (json.dumps(dict(GOOD_JSON, d=True)), "design distance must be positive, got True"),
    (json.dumps(dict(GOOD_JSON, n="2")), "n must be positive, got '2'"),
], ids=["invalid-json", "no-words", "words-5", "float-labels", "n-2.5", "d-true", "n-string"])
def test_verify_rejects_a_malformed_json_file(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(capsys, "verify", "--d", "3", str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("x 2 foo\n1 2 3\n", "malformed header 'x 2 foo'; expected 'n d provenance'"),
    ("3 2.0 foo\n1 2 3\n", "malformed header '3 2.0 foo'; expected 'n d provenance'"),
    ("3 2\n1 2 3\n", "malformed header '3 2'; expected 'n d provenance'"),
    ("3 2 foo\n1 2 x\n", "permutation tokens must be integers: '1 2 x'"),
    ("4 3 foo\n1 2 5\n", "not a rearrangement of 1..4: [1, 2, 5]"),
    # every line is read before CodeBook checks the words
    ("4 3 foo\n1 1 1 1\nx\n", "permutation tokens must be integers: 'x'"),
    ("1 2 3\n1 3\n", "not a rearrangement of 1..3: [1, 3]"),
], ids=["n-x", "d-2.0", "no-provenance", "token-x", "word-short", "tokens-first", "bare-short"])
def test_verify_rejects_a_malformed_text_file(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert run(capsys, "verify", "--d", "3", str(path)) == (1, "", f"error: {message}\n")


def test_verify_duplicate_words_is_validation_error(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("1 2 3\n1 2 3\n")
    code, _, err = run(capsys, "verify", "--d", "3", str(path))
    assert code == 1
    assert "duplicate" in err


def test_verify_rejects_header_with_n_0(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 2 file\n")
    code, out, err = run(capsys, "verify", "--d", "2", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("headed", [True, False], ids=["headed", "bare"])
@pytest.mark.parametrize("d", [0, -3])
def test_verify_rejects_d_below_1(tmp_path, capsys, headed, d):
    path = tmp_path / "code.txt"
    path.write_text(codebook_to_text(even_n_code(4)) if headed else "1 2 3\n3 2 1\n")
    code, out, err = run(capsys, "verify", "--d", str(d), str(path))
    assert (code, out) == (1, "")
    assert err == f"error: design distance must be positive, got {d}\n"


def test_verify_missing_file(capsys):
    assert run(capsys, "verify", "--d", "2", "/nonexistent/code.txt")[0] == 1


def test_bounds_single_json_round_trip(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "13", "--d", "9", "--format", "json")
    assert code == 0
    rep = bound_report_from_payload(json.loads(out))
    assert rep.sp_upper == 40320
    assert rep.new_upper == 24786


def test_bounds_exact_text(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "5", "--d", "3", "--exact")
    assert code == 0
    assert "gv_lower        6" in out
    assert "sp_upper        24" in out


def test_bounds_needs_n_and_d(capsys):
    assert run(capsys, "bounds")[0] == 1


def test_bounds_csv_needs_table1(capsys):
    code, out, err = run(capsys, "bounds", "--n", "8", "--d", "5", "--format", "csv")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "--table1" in err


def test_bounds_table_reports_known_reference_deviation(capsys):
    # the (18, 11) reference entry disagrees with the exact formula by 156,
    # beyond the rounding tolerance, so the table command signals it
    code, out, err = run(capsys, "bounds", "--table1")
    assert code == 2
    assert len(out.splitlines()) == 11  # header + ten rows
    assert "deviation" in err and "(18,11)" in err


def test_bounds_table_json_rows_read_back(capsys):
    code, out, err = run(capsys, "bounds", "--table1", "--format", "json")
    assert code == 2  # the (18, 11) deviation, as for text and CSV
    assert err == run(capsys, "bounds", "--table1")[2]
    rows = [bound_report_from_payload(row) for row in json.loads(out)]
    assert rows == table1()


def test_code_json_past_the_pairwise_guard_is_unverified(capsys):
    argv = ["construct", "--method", "cyclic", "--n", "4", "--format", "json"]
    assert json.loads(run(capsys, *argv)[1])["verified_min_distance"] == 2
    argv[4] = "9"  # 8! words, past the guard: printed without a distance
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert len(payload["words"]) > constructions.PAIRWISE_MAX_WORDS
    assert payload["verified_min_distance"] is None


def test_bounds_table_csv_deterministic(capsys):
    _, first, _ = run(capsys, "bounds", "--table1", "--format", "csv")
    _, second, _ = run(capsys, "bounds", "--table1", "--format", "csv")
    assert first == second
    assert first.splitlines()[0] == "n,d,sp_upper,new_upper"
    assert "13,9,40320,24786" in first


def test_graph_stats_json(capsys):
    code, out, _ = run(capsys, "graph", "--n", "4", "--d", "3", "--stats")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 12
    assert payload["zero_x_edges"] == 0


def test_graph_exact_independent_set(capsys):
    code, out, _ = run(capsys, "graph", "--n", "3", "--d", "2", "--exact")
    assert code == 0
    book = codebook_from_text(out)
    assert len(book.words) == 2


# Pinned as the solver printed them when this test was written, so that a
# change to the search order, not only to the set size, fails here.
EXACT_5_3 = """5 3 exact-independent
1 2 3 4 5
1 4 2 3 5
2 3 1 5 4
2 4 3 5 1
2 4 5 3 1
2 5 3 4 1
3 2 4 1 5
3 2 5 1 4
3 5 4 1 2
4 2 1 5 3
4 3 1 2 5
4 5 2 1 3
5 1 3 4 2
5 4 3 2 1
"""
EXACT_6_5 = """6 5 exact-independent
1 2 3 4 5 6
2 4 6 1 3 5
3 6 2 5 1 4
4 1 5 2 6 3
5 3 1 6 4 2
6 5 4 3 2 1
"""


@pytest.mark.parametrize("n, d, expected", [(5, 3, EXACT_5_3), (6, 5, EXACT_6_5)],
                         ids=["5-3", "6-5"])
def test_graph_exact_output_is_pinned(capsys, n, d, expected):
    assert run(capsys, "graph", "--n", str(n), "--d", str(d), "--exact") == (0, expected, "")


@pytest.mark.parametrize("mode", ["--stats", "--greedy", "--exact"])
@pytest.mark.parametrize("d", [0, -1])
def test_graph_rejects_d_below_1(capsys, mode, d):
    code, out, err = run(capsys, "graph", "--n", "4", "--d", str(d), mode)
    assert (code, out) == (1, "")
    assert err == f"error: design distance must be positive, got {d}\n"


@pytest.mark.parametrize("mode", ["--greedy", "--exact"])
def test_graph_rejects_d_past_n(capsys, tmp_path, mode):
    code, out, err = run(capsys, "graph", "--n", "3", "--d", "9", mode, "--format", "json")
    assert (code, out) == (1, "")
    assert err == "error: design distance must be an int in [1, 3], got 9\n"
    code, out, err = run(capsys, "graph", "--n", "3", "--d", "3", mode)  # d = n: one word
    assert (code, err) == (0, "") and len(codebook_from_text(out).words) == 1
    (tmp_path / "code.txt").write_text(out)
    assert run(capsys, "verify", "--d", "3", str(tmp_path / "code.txt"))[0] == 0


@pytest.mark.parametrize("n, d, message", [
    (7, 6, f"5040 vertices exceed exact-solver guard {graph.EXACT_MAX_VERTICES}"),
    (8, 3, f"n=8 exceeds graph guard {graph.GRAPH_MAX_N} (n! vertices)"),
    (0, 2, "n must be positive, got 0"),
])
def test_graph_exact_exits_1_with_its_guard_message_within_a_second(capsys, n, d, message):
    start = time.perf_counter()
    result = run(capsys, "graph", "--n", str(n), "--d", str(d), "--exact")
    assert time.perf_counter() - start < 1.0  # S_7 is built (tens of ms), then the solver stops
    assert result == (1, "", f"error: {message}\n")


def test_graph_rejects_n_0(capsys):
    code, out, err = run(capsys, "graph", "--n", "0", "--d", "2", "--greedy")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


# Each mode of a subcommand that had guard options, with each option it had.
DIST = ["dist", "1 2", "2 1"]
JSON = ["--format", "json"]
GRAPH = ["graph", "--n", "3", "--d", "2"]
GUARD_MODES = {
    "dist": (DIST, ["max_n"]),
    "dist-json": (DIST + JSON, ["max_n"]),
    "dist-check-definition": (DIST + ["--check-definition"], ["max_n"]),
    "dist-check-definition-json": (DIST + ["--check-definition"] + JSON, ["max_n"]),
    "verify": (["verify", "--d", "2", "code.txt"], ["max_words"]),
}
for mode in ["stats", "greedy", "exact"]:
    GUARD_MODES[f"graph-{mode}"] = (GRAPH + [f"--{mode}"], ["max_n", "max_vertices", "max_words"])
    GUARD_MODES[f"graph-{mode}-json"] = (GRAPH + [f"--{mode}"] + JSON,
                                         ["max_n", "max_vertices", "max_words"])
for method, sizes in [("syndrome", ["--n", "4", "--d", "3"]), ("hamdecomp", ["--n", "9"]),
                      ("even", ["--n", "4"]), ("cyclic", ["--n", "4"]), ("zn1", ["--n", "4"])]:
    argv = ["construct", "--method", method, *sizes]
    GUARD_MODES[f"construct-{method}"] = (argv, ["max_n", "max_words"])
    GUARD_MODES[f"construct-{method}-json"] = (argv + JSON, ["max_n", "max_words"])


@pytest.mark.parametrize("mode, option", [
    pytest.param(mode, option, id=f"{mode}-{option}")
    for mode, (_, options) in GUARD_MODES.items() for option in options])
def test_guard_defaults_come_from_the_library(capsys, monkeypatch, tmp_path, mode, option):
    """The mode takes no guard option, and runs cleanly without one; the
    library's functions take no guard value either (see test_package)."""
    monkeypatch.chdir(tmp_path)  # verify reads its code from here
    (tmp_path / "code.txt").write_text(codebook_to_text(even_n_code(4)))
    argv, _ = GUARD_MODES[mode]
    flag = f"--{option.replace('_', '-')}"
    code, out, err = run(capsys, *argv, flag, "1")
    assert (code, out) == (1, "") and f"unrecognized arguments: {flag} 1" in err
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def _guard_edge(mode, argv, at, past, message):
    """A row of the table below: the mode's argv at the largest size within
    its guard, its argv just past it, and the library's message there."""
    return pytest.param(argv(at), argv(past), message.format(at=at, past=past), id=mode)


def _identity(n):
    return " ".join(map(str, range(1, n + 1)))


@pytest.mark.parametrize("at, past, message", [
    _guard_edge("dist-check-definition",
                lambda n: ["dist", _identity(n), _identity(n), "--check-definition"],
                perm.DEFINITION_SEARCH_MAX_N, perm.DEFINITION_SEARCH_MAX_N + 1,
                "n={past} exceeds search guard {at}"),
    _guard_edge("construct-syndrome",
                lambda n: ["construct", "--method", "syndrome", "--n", str(n), "--d", "3",
                           "--f", "0,0"],
                enumeration.DEFAULT_MAX_N, enumeration.DEFAULT_MAX_N + 1,
                "n={past} exceeds enumeration guard {at}"),
    _guard_edge("construct-hamdecomp",  # the search takes odd n only
                lambda n: ["construct", "--method", "hamdecomp", "--n", str(n)],
                constructions.HAM_SEARCH_MAX_N, constructions.HAM_SEARCH_MAX_N + 2,
                "n={past} exceeds search guard {at}"),
    _guard_edge("verify", lambda words: ["verify", "--d", "1", f"{words}.txt"],
                constructions.PAIRWISE_MAX_WORDS, constructions.PAIRWISE_MAX_WORDS + 1,
                "{past} words exceed pairwise guard {at}"),
    _guard_edge("graph-stats", lambda n: ["graph", "--n", str(n), "--d", "3", "--stats"],
                graph.GRAPH_MAX_N, graph.GRAPH_MAX_N + 1, "n={past} exceeds graph guard {at}"),
    _guard_edge("graph-greedy", lambda n: ["graph", "--n", str(n), "--d", "3", "--greedy"],
                graph.GRAPH_MAX_N, graph.GRAPH_MAX_N + 1,
                "n={past} exceeds graph guard {at} (n! vertices)"),
    # 6! vertices are within the solver's guard and 7! past it; d = 3 keeps
    # the graph at n = 7 quick to build, and d = 5 the search at n = 6 quick
    pytest.param(["graph", "--n", "6", "--d", "5", "--exact"],
                 ["graph", "--n", "7", "--d", "3", "--exact"],
                 f"5040 vertices exceed exact-solver guard {graph.EXACT_MAX_VERTICES}",
                 id="graph-exact"),
])
def test_each_mode_stops_just_past_its_guard(capsys, monkeypatch, tmp_path, at, past, message):
    monkeypatch.chdir(tmp_path)  # verify reads its codes from here
    words = [" ".join(map(str, p)) for p in itertools.islice(
        itertools.permutations(range(1, 9)), constructions.PAIRWISE_MAX_WORDS + 1)]
    for count in (len(words) - 1, len(words)):
        (tmp_path / f"{count}.txt").write_text("\n".join(words[:count]) + "\n")
    code, out, err = run(capsys, *at)
    assert (code, err) == (0, "") and out
    assert run(capsys, *past) == (1, "", f"error: {message}\n")


def test_selftest_summary_counts_and_exit_code(capsys, monkeypatch):
    results = [selftest.CriterionResult(1, "one", "pass", "ok"),
               selftest.CriterionResult(2, "two", "fail", "bad")]
    monkeypatch.setattr(selftest, "run_all", lambda: results)
    code, out, _ = run(capsys, "selftest")
    assert code == 2
    assert out.splitlines() == ["PASS criterion 1: one (ok)", "FAIL criterion 2: two (bad)",
                                "1 passed, 1 failed, 0 skipped"]
    monkeypatch.setattr(selftest, "run_all", lambda: results[:1])
    assert run(capsys, "selftest")[0] == 0
