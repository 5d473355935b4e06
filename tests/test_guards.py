"""Size guards: each is a constant of its module, checked by the function it
guards, which admits the input at the constant and raises its message just
past it.  Input outside a function's domain is rejected before its work
starts, too."""

import itertools

import pytest

from blockperm import constructions, enumeration, graph, perm
from blockperm.constructions import CodeBook
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
    pytest.param(lambda: constructions.ham_decomp_code(-1), "constructions._hub_cycle_decomposition",
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
    pytest.param(lambda: perm.distance_by_definition((1, 1, 1), (1, 2, 3)), "perm._blocks",
                 "not a rearrangement of 1..3: [1, 1, 1]", id="distance_by_definition-repeat"),
    pytest.param(lambda: perm.distance_by_definition((1, 2, 3), (3, 1, 4)), "perm._blocks",
                 "not a rearrangement of 1..3: [3, 1, 4]", id="distance_by_definition-second"),
    pytest.param(lambda: perm.distance_by_definition((), ()), "perm._blocks",
                 "empty input: a permutation has length at least 1",
                 id="distance_by_definition-empty"),
])
def test_out_of_domain_input_stops_before_the_work(monkeypatch, call, work, message):
    module, name = work.split(".")
    monkeypatch.setattr(f"blockperm.{module}.{name}", _refuse)
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
