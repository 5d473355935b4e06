"""Size guards: each is a constant of its module, checked by the function it
guards, which admits the input at the constant and raises its message just
past it.  Input outside a function's domain is rejected before its work
starts, too, by the one range rule of ``perm``."""

import argparse
import itertools

import pytest

from blockperm import bounds, cli, constructions, enumeration, graph, perm
from blockperm.constructions import CodeBook, PairEncoder
from blockperm.perm import identity

SCAN = enumeration.DEFAULT_MAX_N
WORDS = constructions.PAIRWISE_MAX_WORDS


def _code(words):
    """The first `words` permutations of S_8 as a code; verifying 10,000 of
    them takes milliseconds."""
    return CodeBook(8, 1, tuple(itertools.islice(itertools.permutations(range(1, 9)), words)),
                    "file")


def _edgeless(count):
    """A graph on the first `count` permutations of S_7 with no edges, so the
    exact solver's greedy seed is already maximum."""
    return graph.graph_on(itertools.islice(itertools.permutations(range(1, 8)), count), 1)


def _row(name, call, at, past, message):
    """call(at) must return and call(past) raise message, for the guard of
    the library function name."""
    return pytest.param(call, at, past, message.format(at=at, past=past), id=name)


@pytest.mark.parametrize("call, at, past, message", [
    _row("distance_by_definition", lambda n: perm.distance_by_definition(identity(n), identity(n)),
         perm.DEFINITION_SEARCH_MAX_N, perm.DEFINITION_SEARCH_MAX_N + 1,
         "n={past} exceeds search guard {at}"),
    _row("enumerate_spheres", enumeration.enumerate_spheres, SCAN, SCAN + 1,
         "n={past} exceeds enumeration guard {at}"),
    _row("syndrome_classes", lambda n: constructions.syndrome_classes(n, 3), SCAN, SCAN + 1,
         "n={past} exceeds enumeration guard {at}"),
    _row("syndrome_class", lambda n: constructions.syndrome_class(n, 3, (0, 0)), SCAN, SCAN + 1,
         "n={past} exceeds enumeration guard {at}"),
    _row("largest_syndrome_class", lambda n: constructions.largest_syndrome_class(n, 3),
         SCAN, SCAN + 1, "n={past} exceeds enumeration guard {at}"),
    _row("ham_decomp_code", constructions.ham_decomp_code,  # the search takes odd n only
         constructions.HAM_SEARCH_MAX_N, constructions.HAM_SEARCH_MAX_N + 2,
         "n={past} exceeds search guard {at}"),
    _row("verify_min_distance", lambda words: constructions.verify_min_distance(_code(words)),
         WORDS, WORDS + 1, "{past} words exceed pairwise guard {at}"),
    _row("build_graph", lambda n: graph.build_graph(n, 3), graph.GRAPH_MAX_N, graph.GRAPH_MAX_N + 1,
         "n={past} exceeds graph guard {at} (n! vertices)"),
    _row("neighborhood_stats", lambda n: graph.neighborhood_stats(n, 3),
         graph.GRAPH_MAX_N, graph.GRAPH_MAX_N + 1, "n={past} exceeds graph guard {at}"),
    _row("exact_independent_set", lambda count: graph.exact_independent_set(_edgeless(count)),
         graph.EXACT_MAX_VERTICES, graph.EXACT_MAX_VERTICES + 1,
         "{past} vertices exceed exact-solver guard {at}"),
])
def test_each_guard_admits_its_constant_and_stops_just_past_it(call, at, past, message):
    assert call(at) is not None
    with pytest.raises(ValueError) as raised:
        call(past)
    assert str(raised.value) == message


def test_the_guards_keep_their_values():
    assert (perm.DEFINITION_SEARCH_MAX_N, enumeration.DEFAULT_MAX_N,
            constructions.HAM_SEARCH_MAX_N, constructions.PAIRWISE_MAX_WORDS,
            graph.GRAPH_MAX_N, graph.EXACT_MAX_VERTICES) == (16, 8, 17, 10_000, 7, 1000)


def _refuse(*args, **kwargs):
    raise AssertionError("the work started before the input was checked")


@pytest.mark.parametrize("call, work, message", [
    pytest.param(lambda: constructions.ham_decomp_code(-1), "constructions._hub_cycles",
                 "n must be positive, got -1", id="ham_decomp_code-n-minus-1"),
    pytest.param(lambda: graph.neighborhood_stats(0, 2), "graph._identity_ball",
                 "n must be positive, got 0", id="neighborhood_stats-n-0"),
    pytest.param(lambda: graph.neighborhood_stats(-2, 3), "graph._identity_ball",
                 "n must be positive, got -2", id="neighborhood_stats-n-minus-2"),
    pytest.param(lambda: graph.build_graph(7, 0), "graph._neighbor_bits",
                 "design distance must be positive, got 0", id="build_graph-d-0"),
    pytest.param(lambda: graph.build_graph(3, -1), "graph._neighbor_bits",
                 "design distance must be positive, got -1", id="build_graph-d-minus-1"),
    pytest.param(lambda: graph.graph_on([(1, 2, 3)], -3), "graph._neighbor_bits",
                 "design distance must be positive, got -3", id="graph_on-d-minus-3"),
    pytest.param(lambda: graph.graph_on([(2, 1)], 0), "graph._neighbor_bits",
                 "design distance must be positive, got 0", id="graph_on-d-0"),
    pytest.param(lambda: perm.distance_by_definition((1, 1, 1), (1, 2, 3)), "perm._fewest_blocks",
                 "not a rearrangement of 1..3: [1, 1, 1]", id="distance_by_definition-repeat"),
    pytest.param(lambda: perm.distance_by_definition((1, 2, 3), (3, 1, 4)), "perm._fewest_blocks",
                 "not a rearrangement of 1..3: [3, 1, 4]", id="distance_by_definition-second"),
    pytest.param(lambda: perm.distance_by_definition((), ()), "perm._fewest_blocks",
                 "empty input: a permutation has length at least 1",
                 id="distance_by_definition-empty"),
    pytest.param(lambda: bounds.gv_lower(0, 3), "bounds._gv_lower",
                 "n must be positive, got 0", id="gv_lower-n-0"),
    pytest.param(lambda: bounds.sp_upper(-1, 3, exact=False), "bounds._sp_upper",
                 "n must be positive, got -1", id="sp_upper-n-minus-1"),
    # bound_report's first work is new_upper, so refusing it shows n and d came first
    pytest.param(lambda: bounds.bound_report(0, 3), "bounds.new_upper",
                 "n must be an int >= 2, got 0", id="bound_report-n-0"),
    pytest.param(lambda: bounds.bound_report(0, 4, exact=True), "bounds.new_upper",
                 "n must be an int >= 2, got 0", id="bound_report-exact-n-0"),
    pytest.param(lambda: bounds.bound_report(0, 0), "bounds.new_upper",
                 "n must be an int >= 2, got 0", id="bound_report-n-0-d-0"),
    pytest.param(lambda: bounds.bound_report(5, 0), "bounds.new_upper",
                 "distance must be positive, got 0", id="bound_report-d-0"),
    pytest.param(lambda: bounds.corollary_applies(0, 3), "bounds._corollary_applies",
                 "n must be positive, got 0", id="corollary_applies-n-0"),
    pytest.param(lambda: PairEncoder(0, 2), "constructions._is_prime",
                 "n must be positive, got 0", id="PairEncoder-n-0"),
])
def test_out_of_domain_input_stops_before_the_work(monkeypatch, call, work, message):
    module, name = work.split(".")
    monkeypatch.setattr(f"blockperm.{module}.{name}", _refuse)
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


# One rule for a word, one for n and d: every entry point answers alike.
ENC_2 = PairEncoder.for_n(2)
WORD_ENTRY_POINTS = {  # each called on one word meant to lie in S_2
    "from_one_line": perm.from_one_line,
    "CodeBook": lambda w: CodeBook(2, 1, (w,), "file"),
    "graph_on": lambda w: graph.graph_on([(1, 2), w], 1),
    "syndrome": lambda w: constructions.syndrome(w, 2, ENC_2),
    "in_syndrome_class": lambda w: constructions.in_syndrome_class(w, 2, (0,), ENC_2),
    "codebook_from_payload": lambda w: constructions.codebook_from_payload(
        {"n": 2, "d": 1, "provenance": "file", "words": [list(w)]}),
    "distance_by_definition": lambda w: perm.distance_by_definition((1, 2), w),
}


@pytest.mark.parametrize("entry", WORD_ENTRY_POINTS)
@pytest.mark.parametrize("word", [(True, 2), (1.0, 2), (1, "2"), (1, 1), (0, 1)],
                         ids=["bool", "float", "string", "repeat", "zero"])
def test_every_word_entry_point_rejects_a_non_permutation_alike(entry, word):
    with pytest.raises(ValueError) as raised:
        WORD_ENTRY_POINTS[entry](word)
    assert str(raised.value) == f"not a rearrangement of 1..2: {list(word)!r}"


WORD_LIST_ENTRY_POINTS = {  # each called on a list of words of S_3
    "CodeBook": lambda words: CodeBook(3, 2, tuple(words), "file"),
    "graph_on": lambda words: graph.graph_on(words, 2),
    "codebook_from_payload": lambda words: constructions.codebook_from_payload(
        {"n": 3, "d": 2, "provenance": "file", "words": [list(w) for w in words]}),
}


@pytest.mark.parametrize("entry", WORD_LIST_ENTRY_POINTS)
def test_every_word_list_entry_point_rejects_a_repeated_word_alike(monkeypatch, entry):
    """The graph kernel relies on distinct vertices, so it never sees a repeat."""
    monkeypatch.setattr("blockperm.graph._neighbor_bits", _refuse)
    with pytest.raises(ValueError) as raised:
        WORD_LIST_ENTRY_POINTS[entry]([(2, 1, 3), (1, 2, 3), (2, 1, 3)])
    assert str(raised.value) == "duplicate word: [2, 1, 3]"


@pytest.mark.parametrize("entry", [name for name in WORD_ENTRY_POINTS if name != "from_one_line"])
def test_every_word_entry_point_rejects_a_word_of_the_wrong_length(entry):
    """from_one_line takes a word of any length as its own n; the syndrome
    functions check a word's size against their encoder's n first."""
    with pytest.raises(ValueError) as raised:
        WORD_ENTRY_POINTS[entry]((1, 2, 3))
    assert str(raised.value) == ("permutation size 3 does not match encoder n=2"
                                 if "syndrome" in entry else "not a rearrangement of 1..2: [1, 2, 3]")


SIZE_ENTRY_POINTS = [  # (id, call on the value, the name its message gives[, its top])
    ("identity", identity, "n"),
    ("CodeBook-n", lambda v: CodeBook(v, 1, (), "file"), "n"),
    ("CodeBook-d", lambda v: CodeBook(2, v, ((1, 2),), "file"), "design distance", 2),
    ("codebook_from_payload-n", lambda v: constructions.codebook_from_payload(
        {"n": v, "d": 1, "provenance": "file", "words": []}), "n"),
    ("codebook_from_payload-d", lambda v: constructions.codebook_from_payload(
        {"n": 2, "d": v, "provenance": "file", "words": [[1, 2]]}), "design distance", 2),
    ("PairEncoder", lambda v: PairEncoder(v, 2), "n"),
    ("ham_decomp_code", constructions.ham_decomp_code, "n"),
    ("graph_on-d", lambda v: graph.graph_on([(1, 2)], v), "design distance"),
    ("build_graph-n", lambda v: graph.build_graph(v, 2), "n"),
    ("build_graph-d", lambda v: graph.build_graph(3, v), "design distance"),
    ("neighborhood_stats-n", lambda v: graph.neighborhood_stats(v, 3), "n"),
    ("neighborhood_stats-d", lambda v: graph.neighborhood_stats(4, v), "design distance"),
    ("enumerate_spheres", enumeration.enumerate_spheres, "n"),
    ("sphere_profile", enumeration.sphere_profile, "n"),
    ("gv_lower-n", lambda v: bounds.gv_lower(v, 3), "n"),
    ("gv_lower-d", lambda v: bounds.gv_lower(5, v), "distance"),
    ("sp_upper-n", lambda v: bounds.sp_upper(v, 3), "n"),
    ("sp_upper-d", lambda v: bounds.sp_upper(5, v), "distance"),
    ("corollary_applies-n", lambda v: bounds.corollary_applies(v, 3), "n"),
    ("corollary_applies-d", lambda v: bounds.corollary_applies(5, v), "distance"),
    ("bound_report-d", lambda v: bounds.bound_report(5, v), "distance"),
    ("cli-verify-d", lambda v: cli.cmd_verify(argparse.Namespace(d=v, path="code.txt")),
     "design distance"),
    ("jv_lower_formula",
     lambda v: graph.jv_lower_formula(graph.NeighborhoodStats(v, 3, 10, 5, 0, 0)), "n"),
]


@pytest.mark.parametrize("value", [0, -1, True, 2.5], ids=["0", "minus-1", "true", "2.5"])
@pytest.mark.parametrize("call, name, top", [pytest.param(call, name, top, id=key)
                                             for key, call, name, *top in SIZE_ENTRY_POINTS])
def test_every_size_entry_point_rejects_a_value_that_is_not_a_positive_int(call, name, top, value):
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == f"{name} must be {_span(1, *top)}, got {value!r}"


def _graph(n, d):
    """A one-vertex graph record with the given n and d, which only the
    solvers reading it check."""
    return graph.BlockGraph(n, d, ((1, 2, 3),), (0,))


def _span(low, high=None):
    """How the range rule words [low, high]."""
    span = f"an int in [{low}, {high}]" if high is not None else f"an int >= {low}"
    return "positive" if span == "an int >= 1" else span


def _edges(key, call, work, n, param, low, high=None, name=None, also=(), n_low=1):
    """Rows rejecting call's argument param (name in its message) just below
    low, just above high, at 2.5, at True and at each value of also; when n is
    given, call takes (n, value), and four more rows reject n at 2.5, at True,
    and just below n_low, the least n with a valid value, with value at low
    and below it, each naming n."""
    bad = {"below": low - 1, "2.5": 2.5, "true": True, **{str(v): v for v in also}}
    if high is not None:
        bad["above"] = high + 1
    rows = [pytest.param(lambda v=v: call(v) if n is None else call(n, v), work,
                         f"{name or param} must be {_span(low, high)}, got {v!r}",
                         id=f"{key}-{param}-{tag}")
            for tag, v in bad.items()]
    if n is not None:
        rows += [pytest.param(lambda m=m, v=v: call(m, v), work,
                              f"n must be {_span(n_low)}, got {m!r}", id=f"{key}-n-{tag}")
                 for tag, m, v in [("2.5", 2.5, low), ("true", True, low),
                                   ("below", n_low - 1, low), ("both", n_low - 1, low - 1)]]
    return rows


DESIGN = "design distance"
DOMAIN_EDGES = [
    # below n = 2 no k, d or distance is left, so n is named
    *_edges("myers_count", enumeration.myers_count, "enumeration._minimal_orders", 5, "k", 1, 4,
            n_low=2),
    *_edges("identity_sphere", enumeration.identity_sphere, "enumeration.is_minimal",
            5, "k", 1, 4, n_low=2),
    *_edges("ball_size_exact", enumeration.ball_size_exact, "enumeration._sphere_sizes",
            5, "t", 0, 4),
    # its upper end is the sandwich's hypothesis, a row of its own below
    *_edges("ball_size_bounds", enumeration.ball_size_bounds, "enumeration.math.prod", 10, "t", 0),
    *_edges("sandwich_applies", enumeration.sandwich_applies, None, 10, "t", 0),
    # t = 5 is n; the counts are those of enumerate_spheres(5)
    *_edges("SphereProfile.ball", enumeration.SphereProfile(5, (1, 4, 18, 44, 53)).ball, None,
            None, "t", 0, 4),
    *_edges("new_upper", bounds.new_upper, "bounds.Fraction", 5, "d", 1, 4, "distance", n_low=2),
    *_edges("bound_report", lambda n: bounds.bound_report(n, 3), "bounds.new_upper", None,
            "n", 2, also=(0, -1)),
    *_edges("special_exact", bounds.special_exact, "bounds.math.factorial", 5, "d", 1,
            name="distance"),
    *_edges("select_prime", constructions.select_prime, "constructions._is_prime", None, "n", 2),
    *_edges("cyclic_class_code", constructions.cyclic_class_code, "constructions.CodeBook._built",
            None, "n", 2),
    *_edges("even_n_code", constructions.even_n_code, "constructions.CodeBook._built",
            None, "n", 2),
    *_edges("zn1_code", constructions.zn1_code, "constructions._is_prime", None, "n", 2),
    *_edges("PairEncoder", PairEncoder, "constructions._is_prime", 4, "q", 6, name="field size"),
    *_edges("syndrome", lambda d: constructions.syndrome((1, 2), d, ENC_2),
            "constructions._check_words", None, "d", 2, name=DESIGN, also=(0, -1)),
    *_edges("in_syndrome_class", lambda d: constructions.in_syndrome_class((1, 2), d, (), ENC_2),
            "constructions._check_words", None, "d", 2, name=DESIGN),
    # below n = 3 no d is left for a fiber
    *_edges("syndrome_classes", constructions.syndrome_classes, "constructions._word_keys",
            5, "d", 2, 4, DESIGN, n_low=3),
    *_edges("syndrome_class", lambda n, d: constructions.syndrome_class(n, d, (0, 0)),
            "constructions._word_keys", 5, "d", 2, 4, DESIGN, n_low=3),
    *_edges("largest_syndrome_class", constructions.largest_syndrome_class,
            "constructions._word_keys", 5, "d", 2, 4, DESIGN, n_low=3),
    *_edges("greedy_independent_set", lambda n, d: graph.greedy_independent_set(_graph(n, d)),
            "graph.CodeBook._built", 3, "d", 1, 3, DESIGN),
    # the exact solver's greedy seed checks the graph before the search
    *_edges("exact_independent_set", lambda n, d: graph.exact_independent_set(_graph(n, d)),
            "graph._grow", 3, "d", 1, 3, DESIGN),
    pytest.param(lambda: graph.greedy_independent_set(_graph(3, 3.0)), "graph.CodeBook._built",
                 "design distance must be an int in [1, 3], got 3.0", id="BlockGraph-d-float"),
    # a one-word code is n apart, and no two words are further
    pytest.param(lambda: CodeBook(3, 4, ((1, 2, 3),), "file"), None,
                 "design distance must be an int in [1, 3], got 4", id="CodeBook-d-above"),
    pytest.param(lambda: constructions.codebook_from_payload(
                     {"n": 3, "d": 4, "provenance": "file", "words": [[1, 2, 3]]}), None,
                 "design distance must be an int in [1, 3], got 4",
                 id="codebook_from_payload-d-above"),
    pytest.param(lambda: enumeration.enumerate_spheres(0), "enumeration.math.factorial",
                 "n must be positive, got 0", id="enumerate_spheres-n-0"),
    pytest.param(lambda: enumeration.ball_size_bounds(10, 6), "enumeration.math.prod",
                 "sandwich bounds need t <= n - sqrt(n) - 1; (n, t) = (10, 6) fails",
                 id="ball_size_bounds-t-above"),
    pytest.param(lambda: constructions.even_n_code(3), "constructions.CodeBook._built",
                 "n must be even, got 3", id="even_n_code-n-odd"),
    pytest.param(lambda: constructions.syndrome_class(5, 3, (2.5, 1)),
                 "constructions._word_keys", "syndrome coordinates must be ints, got (2.5, 1)",
                 id="syndrome_class-f-float"),
    # the word's syndrome comes first, so nothing is refused here
    pytest.param(lambda: constructions.in_syndrome_class((1, 2, 3), 3, (True, 0.0),
                                                         PairEncoder.for_n(3)),
                 None, "syndrome coordinates must be ints, got (True, 0.0)",
                 id="in_syndrome_class-f-bool"),
]


@pytest.mark.parametrize("call, work, message", DOMAIN_EDGES)
def test_each_domain_edge_is_rejected_before_the_work(monkeypatch, call, work, message):
    if work is not None:
        monkeypatch.setattr(f"blockperm.{work}", _refuse)
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
