"""Permutations in one-line notation and the block permutation metric.

A permutation of [n] = {1, ..., n} is stored as a tuple ``(p(1), ..., p(n))``
of the labels 1..n (one-line notation; labels are 1-based everywhere,
including file and CLI formats).

The block permutation distance between two permutations is the smallest d
such that the first can be cut into d+1 consecutive blocks which, reordered
by a *minimal* permutation (one that glues no two blocks back together),
yield the second.  Equivalently, and far cheaper, it is the number of
adjacent pairs of the first that are not adjacent pairs of the second.
``block_distance`` computes the pair-count form; ``distance_by_definition``
spells the second permutation from blocks of the first by a dynamic program
over the definition itself, so the two routes can be checked against each
other.

The pair-count kernel counts the pairs each of a chunk of rows shares with
all N words at once: ``_holders`` gives each pair the bitset of the words
holding it, ``_planes`` adds the rows' holder bitsets into bit planes, and
``_at_least`` reads which words share at least s pairs.  Its input is the
n-1 pair-code columns of the words, for all of S_n ``_pair_columns``, which
the fiber scans also read.  The distance graphs run on it, and code
verification where neither end of the range settles it.

Input policy: entry points check integers with ``_int_in`` (ints, not bools, in
the range each docstring states) and words with ``_check_words`` (distinct
words, each rearranging 1..n in int labels).  Words are checked where they
enter.  Codes the library builds from its own constructions or from a
``BlockGraph``'s vertices (checked by ``graph_on``, or trusted as a hand-built
graph's bits are) are not checked again; the tests check each builder's
words over its range instead.  Metric primitives
(``block_distance``, ``char_set``, ``compose``, ``inverse``, ``cyclic_shifts``,
``is_minimal``) and the kernels (``_holders``, ``_planes``, ``_at_least``,
``_fewest_blocks``) trust their input, as a check would cost more than the
call: for n <= 255 ``block_distance`` translates and compares n-1 bytes, where
``_check_words`` type-checks, sorts and hashes each word's n labels.  So do the
private bodies of the bound functions (``bounds._gv_lower``, ``_sp_upper``,
``_new_upper``, ``_corollary_applies``, ``enumeration._sandwich_applies``),
which ``bound_report`` calls with values it has checked or derived.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import and_, itemgetter, ne, or_, xor
from typing import Iterable, Sequence

Perm = tuple[int, ...]
Pair = tuple[int, int]
CharSet = frozenset[Pair]

#: the cut-and-reorder DP takes at most n(n+1)/2 = 136 block steps at n = 16;
#: the guard keeps the CLI's domain, not the cost
DEFINITION_SEARCH_MAX_N = 16

_CHUNK_BITS = 1 << 18  #: rows times words in a chunk of the pair-count kernel: 32 KB a list


def _int_in(name: str, value, low: int = 1, high: int | None = None) -> None:
    """Raise unless value is an int, not a bool, in [low, high]; high None: no top end."""
    if type(value) is not int or value < low or high is not None and value > high:
        span = (("positive" if low == 1 else f"an int >= {low}") if high is None
                else f"an int in [{low}, {high}]")
        raise ValueError(f"{name} must be {span}, got {value!r}")


def _check_words(words: Sequence[Sequence[int]], n: int) -> None:
    """Raise unless n is positive and the words are distinct rearrangements
    of 1..n in int labels."""
    _int_in("n", n)
    labels = list(range(1, n + 1))
    typed = {int}.issuperset(map(type, itertools.chain.from_iterable(words)))
    seen = set()
    for w in words:  # types again only to find the bad word, before sorting [1, "2"] raises
        if not (typed or {int}.issuperset(map(type, w))) or sorted(w) != labels:
            raise ValueError(f"not a rearrangement of 1..{n}: {list(w)!r}")
        if (w := tuple(w)) in seen:
            raise ValueError(f"duplicate word: {list(w)!r}")
        seen.add(w)


def from_one_line(values: Sequence[int]) -> Perm:
    """Validate a 1-based one-line permutation of ints and return it as a tuple.

    >>> from_one_line([4, 8, 3, 2, 6, 7, 5, 1, 9])[:3]
    (4, 8, 3)
    >>> from_one_line((True, 2))
    Traceback (most recent call last):
    ValueError: not a rearrangement of 1..2: [True, 2]
    """
    p = tuple(values)
    if not p:
        raise ValueError("empty input: a permutation has length at least 1")
    _check_words((p,), len(p))
    return p


def identity(n: int) -> Perm:
    _int_in("n", n)
    return tuple(range(1, n + 1))


def _unrank(n: int, r: int) -> Perm:
    """The permutation of [n] of rank r < n! in the lexicographic order of
    ``itertools.permutations``: r's factorial-base digits pick each label."""
    labels = list(range(1, n + 1))
    word = []
    for k in reversed(range(n)):
        i, r = divmod(r, math.factorial(k))
        word.append(labels.pop(i))
    return tuple(word)


def compose(outer: Perm, inner: Perm) -> Perm:
    """Composition outer∘inner, mapping i to outer(inner(i)).  From n = 2 on,
    one ``itemgetter`` of inner's labels reads them from (0, *outer); with
    fewer labels it would not return a tuple."""
    if len(outer) != len(inner):
        raise ValueError(f"mismatched sizes {len(outer)} and {len(inner)}")
    if len(inner) < 2:
        return tuple([outer[j - 1] for j in inner])
    return itemgetter(*inner)((0, *outer))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


def char_set(p: Perm) -> CharSet:
    """The characteristic set of p: all adjacent ordered pairs (p(i), p(i+1)).

    Its n-1 pairs are the arcs of a directed Hamiltonian path on [n].

    >>> sorted(char_set((1, 2, 3, 4)))
    [(1, 2), (2, 3), (3, 4)]
    """
    return frozenset(zip(p, p[1:]))


def block_distance(p1: Perm, p2: Perm) -> int:
    """Number of adjacent pairs of p1 that are not adjacent pairs of p2.

    Symmetric, zero exactly on equal arguments, and at most n-1.  A pair
    (a, b) of p1 is shared exactly when b follows a in p2.  For n <= 255 the
    labels fit in a byte, so one byte table maps each label to its successor
    in p2, and the count is the positions where p1's next label differs; the
    last label of p2 maps to itself, which never follows itself in p1.  From
    n = 256 on, labels outgrow a byte and the two pair sets are differenced.
    """
    if len(p1) != len(p2):
        raise ValueError(f"mismatched sizes {len(p1)} and {len(p2)}")
    if len(p1) < 256:
        b1, b2 = bytes(p1), bytes(p2)
        return sum(map(ne, b1.translate(bytes.maketrans(b2[:-1], b2[1:])), b1[1:]))
    return len(set(zip(p1, p1[1:])).difference(zip(p2, p2[1:])))


def _pair_masks(perms, n: int) -> list[int]:
    """Each characteristic set as an int: bit (a-1)·n + (b-1) marks the pair
    (a, b), so popcount(mask_p & mask_q) counts the pairs p and q share."""
    return [sum(1 << (a - 1) * n + b - 1 for a, b in zip(p, p[1:])) for p in perms]


@functools.cache
def _pair_columns(n: int) -> tuple[bytes, ...]:
    """The adjacent pairs of every word of S_n, n <= 16, one column per place:
    byte r of column i is the code (a-1)·n + b-1 of the labels a, b at places
    i and i+1 of word r, in lexicographic order.  Cached per n, since every
    full-group scan and build reads them: 7 columns of 40,320 bytes at n = 8.

    S_k is each first label a followed by S_(k-1) relabelled x -> x + (x >= a),
    which keeps the order, so column 0 of S_k is a run of (k-2)! pairs of a
    and each relabelled first label in turn, and column i is S_(k-1)'s column
    i-1 with both labels relabelled: one ``bytes.translate`` per first label.
    """
    columns: tuple[bytes, ...] = ()
    for k in range(2, n + 1):
        relabels = [[x + (x >= a) for x in range(k - 1)] for a in range(k)]  # labels from 0
        tables = [bytes(x * k + y for x, y in itertools.product(r, repeat=2)).ljust(256, b"\0")
                  for r in relabels]
        first = b"".join(bytes([a * k + x]) * math.factorial(k - 2)
                         for a, r in enumerate(relabels) for x in r)
        columns = (first, *(b"".join(map(column.translate, tables)) for column in columns))
    return columns


def _holders(columns, n: int) -> list[int]:
    """For each pair code x < n², the bitset of the rows of the columns that hold x."""
    holders = [0] * (n * n)
    for i, codes in enumerate(zip(*columns)):
        bit = 1 << i
        for x in codes:
            holders[x] |= bit
    return holders


def _chunks(rows: range, count: int):
    """rows in runs of _CHUNK_BITS // count rows, at least one."""
    step = max(1, _CHUNK_BITS // max(count, 1))
    return (rows[i:i + step] for i in range(0, len(rows), step))


def _planes(columns, holders: list[int], rows: range) -> list[list[int]]:
    """The (n-1).bit_length() count planes of the rows of the pair-code
    columns: bit j of entry r of plane k is bit k of the count of row r's
    pairs that word j holds.  Each step is one ``map`` over the rows: as the
    columns come in, a full adder turns three lists of weight 2**k into a sum
    and a carry of weight 2**(k+1), so at most two wait at each weight, and a
    half adder joins any two left at the end."""
    pending: list[list[list[int]]] = [[] for _ in range(len(columns).bit_length())]
    for column in columns:
        _carry_in(pending, 0, list(map(holders.__getitem__, column[rows.start:rows.stop])))
    for k, waiting in enumerate(pending):
        if len(waiting) == 2:
            a, b = waiting
            waiting[:] = [list(map(xor, a, b))]
            _carry_in(pending, k + 1, list(map(and_, a, b)))
    return [plane for plane, in pending]


def _carry_in(pending: list[list[list[int]]], k: int, x: list[int]) -> None:
    """Add x at weight 2**k: a full adder if two wait there, its carry on up."""
    while len(pending[k]) == 2:
        a, b = pending[k]
        t = list(map(xor, a, b))
        pending[k] = [list(map(xor, t, x))]
        x = list(map(or_, map(and_, a, b), map(and_, t, x)))
        k += 1
    pending[k].append(x)


def _at_least(planes: list[list[int]], need: int, among) -> list[int]:
    """For each row of planes, the words of its bitset in among whose count is
    at least need, 0 <= need < 2**len(planes): one comparator from the top
    plane down to need's lowest 1, more holding the words already above need.
    Only a word itself shares all n-1 of its pairs, so callers leave it out."""
    among, more, k = list(among), [], len(planes)
    while need:  # need < 2**(k+1) after k -= 1, so need >> k is its bit k
        k -= 1
        if need >> k:
            need ^= 1 << k
            among = list(map(and_, among, planes[k]))
        else:
            above = list(map(and_, among, planes[k]))
            more = list(map(or_, more, above)) if more else above
            among = list(map(xor, among, above))
    return list(map(or_, more, among)) if more else among


def is_minimal(p: Perm) -> bool:
    """True when p has no adjacent pair of consecutive labels (p(i+1) = p(i)+1).

    Minimal permutations are the valid block reorderings: they never glue two
    cut blocks back together.
    """
    return all(b != a + 1 for a, b in zip(p, p[1:]))


def cyclic_shifts(p: Perm) -> set[Perm]:
    """All n rotations of p, including p itself."""
    return {p[t:] + p[:t] for t in range(len(p))}


def _fewest_blocks(p1: Perm, p2: Perm) -> int:
    """The fewest cuts of p1 whose blocks, put back in a minimal order, spell
    p2.

    fewest[j] is the fewest blocks that spell p2[j:], right to left from
    fewest[n] = 0.  The block spelling p2 from j starts where p2[j] sits in
    p1, and every length is tried until the block no longer spells p2.  A
    length counts only if the next block does not start where this one ends
    in p1, or the order would glue the two back together.  At most n(n+1)/2
    block steps, for the identity pair.

    That rule never changes the count: blocks that a non-minimal order glues
    together spell one block, so a fewest spelling is already minimal.  It
    stays as the definition's literal rule, and only a test of the spelling,
    not of d, could see it.
    """
    n = len(p1)
    at = {v: i for i, v in enumerate(p1)}
    fewest = [0] * (n + 1)
    for j in reversed(range(n)):
        shift = at[p2[j]] - j  # p2[k] must sit at k + shift in p1
        fewest[j] = n
        for k in range(j, min(n, n - shift)):  # k and k + shift both in [0, n)
            if p1[k + shift] != p2[k]:
                break
            if k + 1 == n or at[p2[k + 1]] != k + 1 + shift:
                fewest[j] = min(fewest[j], 1 + fewest[k + 1])
    return fewest[0] - 1


def distance_by_definition(p1: Perm, p2: Perm) -> int:
    """Block permutation distance via the literal cut-and-reorder definition.

    Checks both words, then ``_fewest_blocks`` tries every way to spell p2
    with blocks of p1 in a minimal order, including blocks that stop inside a
    run of p2.  Serves as an independent cross-check for ``block_distance``:
    it never builds a set of pairs.
    """
    p1, p2 = from_one_line(p1), tuple(p2)
    n = len(p1)
    _check_words((p2,), n)
    if n > DEFINITION_SEARCH_MAX_N:
        raise ValueError(f"n={n} exceeds search guard {DEFINITION_SEARCH_MAX_N}")
    return _fewest_blocks(p1, p2)


# -- text / JSON formats ----------------------------------------------------
#
# Permutation text format: space-separated decimal labels, one permutation
# per line.  Characteristic set JSON: {"n": n, "pairs": [[a, b], ...]} with
# pairs sorted lexicographically.


def _parse_labels(text: str) -> Perm:
    """The integer tokens of one line, not yet checked to be a permutation."""
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"permutation tokens must be integers: {text!r}") from None


def parse_permutation(text: str) -> Perm:
    return from_one_line(_parse_labels(text))


def format_permutation(p: Iterable[int]) -> str:
    return " ".join(str(v) for v in p)


def char_set_payload(p: Perm) -> dict:
    return {"n": len(p), "pairs": [list(pair) for pair in sorted(char_set(p))]}
