"""Block permutation distance, two ways.

Walks through one 9-element pair: the adjacency-pair route (count the
adjacent pairs of the first permutation that are not adjacent pairs of the
second) and the defining route (cut into blocks, reorder by a minimal
permutation), then shows that distance 1 is exactly nontrivial rotation.
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blockperm import block_distance, char_set, cyclic_shifts, distance_by_definition, is_minimal

P1 = (4, 8, 3, 2, 6, 7, 5, 1, 9)
P2 = (6, 7, 8, 3, 2, 5, 1, 9, 4)


def find_decomposition(p1, p2):
    """Smallest cut set and minimal block order turning p1 into p2."""
    n = len(p1)
    for d in range(n):
        for cuts in itertools.combinations(range(1, n), d):
            bounds = (0, *cuts, n)
            blocks = [p1[a:b] for a, b in zip(bounds, bounds[1:])]
            for order in itertools.permutations(range(1, d + 2)):
                if not is_minimal(order):
                    continue
                if sum((blocks[k - 1] for k in order), ()) == p2:
                    return blocks, order
    raise AssertionError("unreachable")


print(f"p1 = {P1}")
print(f"p2 = {P2}\n")

a1, a2 = char_set(P1), char_set(P2)
print(f"adjacent pairs of p1: {sorted(a1)}")
print(f"adjacent pairs of p2: {sorted(a2)}")
print(f"pairs of p1 missing from p2: {sorted(a1 - a2)}")
print(f"block distance = {block_distance(P1, P2)}\n")

blocks, order = find_decomposition(P1, P2)
print(f"p1 cut into blocks: {blocks}")
print(f"reordered by the minimal permutation {order} -> p2")
print(f"cut-and-reorder distance = {distance_by_definition(P1, P2)}\n")

base = (1, 2, 3, 4, 5)
print(f"rotations of {base} and their distances from it:")
for q in sorted(cyclic_shifts(base)):
    print(f"  {q}  ->  {block_distance(base, q)}")
