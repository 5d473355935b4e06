"""Property tests: payload round trips and the metric's identities on random
inputs, drawn by hypothesis."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from blockperm.bounds import bound_report, bound_report_from_payload, bound_report_payload
from blockperm.constructions import CodeBook, codebook_from_payload, codebook_payload
from blockperm.enumeration import sphere_profile, sphere_profile_payload
from blockperm.perm import DEFINITION_SEARCH_MAX_N, block_distance, compose, distance_by_definition


def perms(n):
    return st.permutations(range(1, n + 1)).map(tuple)


def through_json(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


@st.composite
def codebooks(draw):
    n = draw(st.integers(1, 7))
    words = draw(st.lists(perms(n), max_size=min(8, math.factorial(n)), unique=True))
    provenance = draw(st.text(max_size=12) | st.text(" \t\n7x", max_size=6))
    return CodeBook(n, draw(st.integers(1, 8)), tuple(words), provenance)


@settings(max_examples=100, deadline=None)
@given(code=codebooks())
def test_codebook_payload_round_trip(code):
    assert codebook_from_payload(codebook_payload(code)) == code
    assert codebook_from_payload(through_json(codebook_payload(code))) == code


@settings(max_examples=100, deadline=None)
@given(nd=st.integers(2, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       exact=st.booleans())
def test_bound_report_payload_round_trip(nd, exact):
    rep = bound_report(*nd, exact=exact)
    assert bound_report_from_payload(bound_report_payload(rep)) == rep
    assert bound_report_from_payload(through_json(bound_report_payload(rep))) == rep


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 300))
def test_sphere_profile_payload_round_trip(n):
    profile = sphere_profile(n)
    payload = sphere_profile_payload(profile)
    assert payload == {"n": n, "counts": list(profile.counts)}
    assert through_json(payload) == payload


@settings(max_examples=200, deadline=None)
@given(abc=st.integers(1, 12).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
def test_metric_identities(abc):
    a, b, c = abc
    dab = block_distance(a, b)
    assert dab == block_distance(b, a)
    assert block_distance(compose(c, a), compose(c, b)) == dab
    assert block_distance(a, c) <= dab + block_distance(b, c)
    assert (dab == 0) == (a == b)


@settings(max_examples=40, deadline=None)
@given(ab=st.integers(1, DEFINITION_SEARCH_MAX_N).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_cut_search_agrees_with_pair_count_up_to_its_guard(ab):
    a, b = ab
    assert distance_by_definition(a, b) == block_distance(a, b)
