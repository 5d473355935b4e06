"""Command-line behavior: outputs, formats, exit codes."""

import contextlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockperm import cli, constructions, enumeration, graph, perm, selftest
from blockperm.bounds import bound_report_from_payload, gv_lower, sp_upper, table1
from blockperm.cli import _read_codebook, main
from blockperm.constructions import codebook_from_payload, codebook_from_text, even_n_code, codebook_to_text
from blockperm.enumeration import sphere_profile_from_payload, enumerate_spheres

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
    assert sphere_profile_from_payload(json.loads(out)) == enumerate_spheres(5)


@pytest.mark.parametrize("n", range(9, 13))
def test_spheres_past_the_scan_guard(capsys, n):
    code, out, err = run(capsys, "spheres", "--n", str(n))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(k) for k, _ in rows] == list(range(n))
    counts = [int(c) for _, c in rows]
    assert sum(counts) == math.factorial(n)
    if n == 9:
        assert tuple(counts) == enumerate_spheres(9, max_n=9).counts


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
        profile = sphere_profile_from_payload(json.loads(out))
        assert profile.n == 2000 and len(profile.counts) == 2000
        assert sum(profile.counts) == math.factorial(2000)


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
    book = codebook_from_payload(json.loads(out))
    assert (1, 2, 3, 4) in book.words
    assert book.verified_min_distance >= 3


def test_construct_syndrome_defaults_to_largest_class(capsys):
    code, out, _ = run(capsys, "construct", "--method", "syndrome", "--n", "5",
                       "--d", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["words"]) >= 1


def test_construct_syndrome_rejects_d_past_n_minus_1(capsys):
    code, out, err = run(capsys, "construct", "--method", "syndrome", "--n", "5", "--d", "5",
                         "--format", "json")
    assert (code, out) == (1, "")
    assert err == "error: syndrome codes need 2 <= d <= n-1, got (n, d) = (5, 5)\n"


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
    pytest.param(["construct", "--method", "cyclic", "--n", "8", "--max-words", "3"],
                 "--max-words not used by --format text", id="construct-text-max-words"),
    pytest.param(["construct", "--method", "syndrome", "--n", "5", "--d", "3", "--max-words",
                  "0"], "--max-words not used by --format text", id="construct-text-max-words-0"),
    pytest.param(["graph", "--n", "4", "--d", "3", "--greedy", "--max-words", "3"],
                 "--max-words not used by --format text", id="graph-text-max-words"),
    pytest.param(["graph", "--n", "4", "--d", "3", "--stats", "--format", "json",
                  "--max-words", "3"], "--max-words not used by --stats",
                 id="graph-stats-max-words"),
    pytest.param(["graph", "--n", "4", "--d", "3", "--greedy", "--max-vertices", "3"],
                 "--max-vertices not used by --greedy", id="graph-greedy-max-vertices"),
    pytest.param(["graph", "--n", "4", "--d", "3", "--stats", "--max-vertices", "3"],
                 "--max-vertices not used by --stats", id="graph-stats-max-vertices"),
    pytest.param(["dist", "1 2 3", "2 3 1", "--max-n", "2"],
                 "--max-n not used by dist without --check-definition", id="dist-max-n"),
    pytest.param(["dist", "1 2 3", "2 3 1", "--format", "json", "--max-n", "16"],
                 "--max-n not used by dist without --check-definition", id="dist-json-max-n"),
    pytest.param(["construct", "--method", "even", "--n", "4", "--max-n", "3"],
                 "--max-n not used by --method even", id="construct-even-max-n"),
    pytest.param(["construct", "--method", "cyclic", "--n", "6", "--max-n", "10"],
                 "--max-n not used by --method cyclic", id="construct-cyclic-max-n"),
    pytest.param(["construct", "--method", "zn1", "--n", "6", "--max-n", "10"],
                 "--max-n not used by --method zn1", id="construct-zn1-max-n"),
    pytest.param(["construct", "--method", "even", "--n", "4", "--d", "3", "--max-n", "8"],
                 "--d, --max-n not used by --method even", id="construct-even-d-max-n"),
])
def test_options_the_mode_ignores_exit_1(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {named}\n"


def test_text_output_does_not_verify(capsys, monkeypatch):
    argv = ["construct", "--method", "cyclic", "--n", "5"]
    _, expected, _ = run(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("text output verified the code")

    with monkeypatch.context() as patch:
        patch.setattr("blockperm.cli.with_verified_min_distance", refuse)
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


def test_construct_hamdecomp_respects_a_lower_guard(capsys):
    code, out, err = run(capsys, "construct", "--method", "hamdecomp", "--n", "9", "--max-n", "5")
    assert (code, out) == (1, "")
    assert err == "error: n=9 exceeds search guard 5\n"


@pytest.mark.parametrize("method", ["even", "cyclic", "zn1"])
def test_construct_without_a_guard_does_not_warn(capsys, method):
    code, out, err = run(capsys, "construct", "--method", method, "--n", "6")
    assert (code, err) == (0, "")
    assert codebook_from_text(out).provenance == method


@pytest.mark.parametrize("argv, default", [
    (["construct", "--method", "syndrome", "--n", "4", "--d", "3"], 8),
    (["construct", "--method", "hamdecomp", "--n", "7"], 9),
])
def test_construct_warns_when_raising_a_guard(capsys, argv, default):
    code, _, err = run(capsys, *argv, "--max-n", "10")
    assert code == 0
    assert err == f"warning: raising enumeration n guard to 10 (default {default})\n"


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
    book = _read_codebook(str(path), d)
    assert book.words == words
    assert book.provenance == (provenance if headed else "file")
    assert main(["verify", "--d", str(d), str(path)]) in (0, 2)  # read, not rejected


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


def test_code_json_reads_max_words(capsys):
    argv = ["construct", "--method", "cyclic", "--n", "4", "--format", "json"]
    assert json.loads(run(capsys, *argv)[1])["verified_min_distance"] == 2
    assert json.loads(run(capsys, *argv, "--max-words", "5")[1])["verified_min_distance"] is None
    argv = ["graph", "--n", "4", "--d", "3", "--greedy", "--format", "json", "--max-words", "1"]
    assert json.loads(run(capsys, *argv)[1])["verified_min_distance"] is None


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
1 3 5 2 4
1 4 2 5 3
2 1 5 3 4
2 3 5 1 4
3 1 4 5 2
3 2 4 5 1
3 5 4 1 2
4 1 3 2 5
4 1 5 2 3
5 1 3 4 2
5 3 1 2 4
5 4 2 3 1
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


@pytest.mark.parametrize("n, d, expected", [(5, 3, EXACT_5_3), (6, 5, EXACT_6_5)])
def test_graph_exact_output_is_pinned(capsys, n, d, expected):
    assert run(capsys, "graph", "--n", str(n), "--d", str(d), "--exact") == (0, expected, "")


@pytest.mark.parametrize("mode", ["--stats", "--greedy", "--exact"])
@pytest.mark.parametrize("d", [0, -1])
def test_graph_rejects_d_below_1(capsys, mode, d):
    code, out, err = run(capsys, "graph", "--n", "4", "--d", str(d), mode)
    assert (code, out) == (1, "")
    assert err == f"error: design distance must be positive, got {d}\n"


def test_graph_rejects_n_0(capsys):
    code, out, err = run(capsys, "graph", "--n", "0", "--d", "2", "--greedy")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


# What each mode does with each guard option of its subcommand: a pair
# (library default, the cli-imported library function that receives it) when
# the mode reads the option, else the mode its rejection names.
DIST_N = (perm.DEFINITION_SEARCH_MAX_N, "distance_by_definition")
SYNDROME_N = (enumeration.DEFAULT_MAX_N, "largest_syndrome_class")
HAMDECOMP_N = (constructions.HAM_SEARCH_MAX_N, "ham_decomp_code")
STATS_N = (graph.GRAPH_MAX_N, "neighborhood_stats")
GRAPH_N = (graph.GRAPH_MAX_N, "build_graph")
VERTICES = (graph.EXACT_MAX_VERTICES, "exact_independent_set")
CODE_WORDS = (constructions.PAIRWISE_MAX_WORDS, "with_verified_min_distance")
VERIFY_WORDS = (constructions.PAIRWISE_MAX_WORDS, "verify_min_distance")
DIST = ["dist", "1 2", "2 1"]
JSON = ["--format", "json"]
GRAPH = ["graph", "--n", "3", "--d", "2"]
GUARD_MODES = {
    "dist": (DIST, {"max_n": "dist without --check-definition"}),
    "dist-json": (DIST + JSON, {"max_n": "dist without --check-definition"}),
    "dist-check-definition": (DIST + ["--check-definition"], {"max_n": DIST_N}),
    "dist-check-definition-json": (DIST + ["--check-definition"] + JSON, {"max_n": DIST_N}),
    "verify": (["verify", "--d", "2", "code.txt"], {"max_words": VERIFY_WORDS}),
    "graph-stats": (GRAPH + ["--stats"],
                    {"max_n": STATS_N, "max_vertices": "--stats", "max_words": "--stats"}),
    "graph-stats-json": (GRAPH + ["--stats"] + JSON,
                         {"max_n": STATS_N, "max_vertices": "--stats", "max_words": "--stats"}),
    "graph-greedy": (GRAPH + ["--greedy"],
                     {"max_n": GRAPH_N, "max_vertices": "--greedy", "max_words": "--format text"}),
    "graph-greedy-json": (GRAPH + ["--greedy"] + JSON,
                          {"max_n": GRAPH_N, "max_vertices": "--greedy", "max_words": CODE_WORDS}),
    "graph-exact": (GRAPH + ["--exact"],
                    {"max_n": GRAPH_N, "max_vertices": VERTICES, "max_words": "--format text"}),
    "graph-exact-json": (GRAPH + ["--exact"] + JSON,
                         {"max_n": GRAPH_N, "max_vertices": VERTICES, "max_words": CODE_WORDS}),
}
for method, sizes, max_n in [("syndrome", ["--n", "4", "--d", "3"], SYNDROME_N),
                             ("hamdecomp", ["--n", "9"], HAMDECOMP_N),
                             ("even", ["--n", "4"], "--method even"),
                             ("cyclic", ["--n", "4"], "--method cyclic"),
                             ("zn1", ["--n", "4"], "--method zn1")]:
    argv = ["construct", "--method", method, *sizes]
    GUARD_MODES[f"construct-{method}"] = (argv, {"max_n": max_n, "max_words": "--format text"})
    GUARD_MODES[f"construct-{method}-json"] = (argv + JSON,
                                               {"max_n": max_n, "max_words": CODE_WORDS})


@pytest.mark.parametrize("mode, option", [
    pytest.param(mode, option, id=f"{mode}-{option}")
    for mode, (_, options) in GUARD_MODES.items() for option in options])
def test_guard_defaults_come_from_the_library(capsys, monkeypatch, tmp_path, mode, option):
    monkeypatch.chdir(tmp_path)  # verify reads its code from here
    (tmp_path / "code.txt").write_text(codebook_to_text(even_n_code(4)))
    argv, options = GUARD_MODES[mode]
    flag = f"--{option.replace('_', '-')}"
    if isinstance(options[option], str):
        assert run(capsys, *argv, flag, "1") == (
            1, "", f"error: {flag} not used by {options[option]}\n")
        return
    default, reader = options[option]
    seen = []
    real = getattr(cli, reader)

    def spy(*a, **kw):
        seen.append(kw[option])
        return real(*a, **kw)

    monkeypatch.setattr(cli, reader, spy)
    code, out, err = run(capsys, *argv)
    assert (code, seen, err) == (0, [default], "")
    raised = run(capsys, *argv, flag, str(default + 1))
    assert raised[:2] == (0, out) and seen[-1] == default + 1
    warning = rf"warning: raising [a-z -]+ guard to {default + 1} \(default {default}\)\n"
    assert re.fullmatch(warning, raised[2])
    code, out, err = run(capsys, *argv, flag, "-1")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: [a-z -]+ guard must be nonnegative, got -1\n", err)


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
