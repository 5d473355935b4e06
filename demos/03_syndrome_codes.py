"""Codes from prime-field syndromes.

Unordered pairs of labels get distinct field elements; a permutation's
syndrome is the first d-1 elementary symmetric values of its adjacency-pair
labels.  Equal syndromes force block distance >= d, so the syndrome fibers
partition S_n into codes, and the largest fiber beats the pigeonhole floor.
"""

import math
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blockperm import PairEncoder, block_distance, syndrome, syndrome_classes

n, d = 5, 3
enc = PairEncoder.for_n(n)
print(f"n={n}: q={enc.q} (smallest prime >= n(n-1)/2 = {n * (n - 1) // 2})")
print("pair labels:", {f"{{{a},{b}}}": enc.value(a, b)
                       for a in range(1, n + 1) for b in range(a + 1, n + 1)})

p, rev = (1, 2, 3, 4, 5), (5, 4, 3, 2, 1)
print(f"\nsyndrome{p} = {syndrome(p, d, enc)}")
print(f"syndrome{rev} = {syndrome(rev, d, enc)}  (same unordered pairs)")
print(f"block distance between them: {block_distance(p, rev)} >= d = {d}\n")

buckets = syndrome_classes(n, d)  # scanned in n's own field, q = enc.q
sizes = Counter(len(words) for words in buckets.values())
print(f"S_{n} splits into {len(buckets)} nonempty fibers; size histogram {dict(sizes)}")
print(f"fiber sizes sum to {sum(len(w) for w in buckets.values())} = {n}!")

largest = max(buckets.values(), key=len)
floor = -(-math.factorial(n) // enc.q ** (d - 1))
print(f"largest fiber: {len(largest)} words (pigeonhole floor {floor})")

worst = min(block_distance(a, b)
            for words in buckets.values() if len(words) > 1
            for a in words for b in words if a < b)
print(f"smallest distance inside any fiber: {worst} (design distance {d})")
