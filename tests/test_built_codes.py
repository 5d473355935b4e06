"""Codes the library builds from its own words are not checked again on
construction (``CodeBook._built``); words that come from outside are checked
once, where they enter.  So each builder's words are checked here, with
``perm._check_words``, over the builder's documented range, and the number
of checks each path makes is pinned."""

import itertools
import json
import math
import random

import pytest

from blockperm import constructions, graph, perm
from blockperm.constructions import (
    CodeBook,
    PairEncoder,
    codebook_from_payload,
    codebook_from_text,
    codebook_payload,
    codebook_to_text,
    cyclic_class_code,
    even_n_code,
    ham_decomp_code,
    in_syndrome_class,
    largest_syndrome_class,
    syndrome,
    syndrome_class,
    syndrome_classes,
    zn1_code,
)
from blockperm.graph import build_graph, exact_independent_set, graph_on, greedy_independent_set
from blockperm.perm import _check_words

# every full-group graph whose exact solve finishes, as in test_graph
WHOLE_GROUP = [(n, d) for n in range(1, 6) for d in range(1, n + 1)]
WHOLE_GROUP += [(6, 1), (6, 2), (6, 5), (6, 6)]


def _checked(code, n, d, provenance):
    """code's words pass the check its constructor skipped, and its fields
    are the ones asked for."""
    _check_words(code.words, code.n)
    assert type(code) is CodeBook
    assert (code.n, code.design_distance, code.provenance) == (n, d, provenance)
    return code


# -- each builder's words over its range ----------------------------------------


def test_cyclic_class_code_words_are_checked_words():
    for n in range(2, 9):
        assert len(_checked(cyclic_class_code(n), n, 2, "cyclic")) == math.factorial(n - 1)


def test_even_n_code_words_are_checked_words():
    for n in range(2, 61, 2):
        assert len(_checked(even_n_code(n), n, n - 1, "even")) == n


def test_zn1_code_words_are_checked_words():
    primes = [n for n in range(2, 61) if constructions._is_prime(n + 1)]
    assert primes[:4] == [2, 4, 6, 10] and primes[-1] == 60
    for n in primes:
        assert len(_checked(zn1_code(n), n, n - 1, "zn1")) == n


def test_ham_decomp_code_words_are_checked_words():
    found = {n: ham_decomp_code(n) for n in range(1, 10, 2)}
    assert [n for n, code in found.items() if code is None] == [3, 5]
    for n, code in found.items():
        if code is not None:
            assert len(_checked(code, n, max(n - 1, 1), "hamdecomp")) == n


@pytest.mark.parametrize("n", range(3, 8))
def test_every_syndrome_fiber_is_a_checked_code(n):
    """syndrome_class builds each fiber of syndrome_classes, the same words
    in the same order, and the fibers partition S_n."""
    for d in range(2, n):
        classes = syndrome_classes(n, d)
        for f, words in classes.items():
            assert list(_checked(syndrome_class(n, d, f), n, d, "syndrome").words) == words
        assert sorted(itertools.chain.from_iterable(classes.values())) == list(
            itertools.permutations(range(1, n + 1)))


@pytest.mark.parametrize("n", [7, 8])
def test_scanned_fibers_at_the_top_of_the_range_are_checked_codes(n):
    enc = PairEncoder.for_n(n)
    rng = random.Random(n)
    for d in range(2, n):
        largest = _checked(largest_syndrome_class(n, d), n, d, "syndrome")
        f = syndrome(largest.words[0], d, enc)
        assert all(in_syndrome_class(w, d, f, enc) for w in largest.words)
        for _ in range(3):
            f = syndrome(tuple(rng.sample(range(1, n + 1), n)), d, enc)
            code = _checked(syndrome_class(n, d, f), n, d, "syndrome")
            assert code.words and all(in_syndrome_class(w, d, f, enc) for w in code.words)


def _solved(g):
    """The three codes the solvers build on g, each checked."""
    return [_checked(greedy_independent_set(g, order), g.n, g.d, f"greedy-{order}")
            for order in ("lexicographic", "degree")] + [
        _checked(exact_independent_set(g), g.n, g.d, "exact-independent")]


@pytest.mark.parametrize("n,d", WHOLE_GROUP)
def test_solver_words_on_the_whole_group_are_checked_words(n, d):
    _solved(build_graph(n, d))


@pytest.mark.parametrize("seed", range(4))
def test_solver_words_on_seeded_subsets_are_checked_words(seed):
    rng = random.Random(seed)
    for n in (5, 6, 7, 8):
        group = list(itertools.permutations(range(1, n + 1)))
        verts = rng.sample(group, rng.randint(1, 60))
        for d in range(1, n + 1):
            for code in _solved(graph_on(verts, d)):
                assert set(code.words) <= set(verts)


# -- who checks, and how often ---------------------------------------------------


@pytest.fixture
def checks(monkeypatch):
    """The word lists passed to perm._check_words, through every module that
    imports it, from the fixture on."""
    seen = []

    def spy(words, n):
        seen.append(list(words))
        return _check_words(words, n)

    for module in (perm, constructions, graph):
        monkeypatch.setattr(module, "_check_words", spy)
    return seen


def test_the_builders_check_no_word(checks):
    # a subset whose exact solve searches past its seed, as in test_graph
    graphs = [build_graph(5, 3), graph_on(random.Random(0).sample(
        list(itertools.permutations(range(1, 6))), 60), 3)]
    del checks[:]
    cyclic_class_code(8)
    even_n_code(60)
    zn1_code(58)
    ham_decomp_code(9)
    syndrome_class(7, 3, (0, 0))
    largest_syndrome_class(8, 3)
    for g in graphs:
        greedy_independent_set(g)
        greedy_independent_set(g, "degree")
        exact_independent_set(g)
    assert checks == []


def test_graph_on_checks_its_vertices_once(checks):
    verts = list(itertools.permutations(range(1, 5)))
    for d in (1, 3, 4):
        graph_on(iter(verts), d)
    assert checks == [verts] * 3


WORDS = ((1, 2, 3), (3, 1, 2), (2, 3, 1))
BAD = [(((1, 2, 3), (3, 1, 2), (1, 2, 3)), "duplicate word: [1, 2, 3]"),
       (((1, 2, 3), (1, 2, 2)), "not a rearrangement of 1..3: [1, 2, 2]")]


def _header_text(words):
    return "3 2 file\n" + "".join(" ".join(map(str, w)) + "\n" for w in words)


def _payload(words):
    return {"n": 3, "d": 2, "provenance": "file", "words": [list(w) for w in words]}


ENTRY = {  # each builds a code of 3-label words through the checked constructor
    "CodeBook": lambda words: CodeBook(3, 2, words, "file"),
    "_replace": lambda words: CodeBook._built(3, 2, ((2, 1, 3),), "file")._replace(words=words),
    "codebook_from_text": lambda words: codebook_from_text(_header_text(words)),
    "codebook_from_text-json": lambda words: codebook_from_text(json.dumps(_payload(words))),
    "codebook_from_payload": lambda words: codebook_from_payload(_payload(words)),
}


@pytest.mark.parametrize("entry", ENTRY)
def test_each_code_entry_checks_its_words_once(checks, entry):
    code = ENTRY[entry](WORDS)
    assert code == CodeBook._built(3, 2, WORDS, "file")
    assert checks == [list(WORDS)]


@pytest.mark.parametrize("entry", ENTRY)
@pytest.mark.parametrize("words, message", BAD, ids=["duplicate", "not-a-permutation"])
def test_each_code_entry_still_refuses_bad_words(checks, entry, words, message):
    with pytest.raises(ValueError) as raised:
        ENTRY[entry](words)
    assert str(raised.value) == message
    assert len(checks) == 1


def test_a_bare_code_file_checks_its_first_line_then_every_word(checks):
    """Given d, the first line is read as a word to tell bare words from a
    header; the code then checks them all."""
    text = "".join(" ".join(map(str, w)) + "\n" for w in WORDS)
    assert codebook_from_text(text, 2) == CodeBook._built(3, 2, WORDS, "file")
    assert checks == [[WORDS[0]], list(WORDS)]


@pytest.mark.parametrize("code", [cyclic_class_code(4), even_n_code(6), ham_decomp_code(7),
                                  syndrome_class(5, 3, (1, 2)),
                                  greedy_independent_set(build_graph(4, 3)),
                                  exact_independent_set(build_graph(5, 4)),
                                  CodeBook._built(1, 1, (), "empty")],
                         ids=lambda code: code.provenance)
def test_a_built_code_is_the_checked_code(code):
    checked = CodeBook(*code)
    assert code == checked and hash(code) == hash(checked)
    assert type(code) is type(checked) is CodeBook
    assert repr(code) == repr(checked)
    assert codebook_from_text(codebook_to_text(code)) == code
    assert codebook_from_payload(codebook_payload(code)) == code
