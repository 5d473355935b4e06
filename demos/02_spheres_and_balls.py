"""Distance spheres around the identity and ball sizes.

Enumerates S_n and histograms distances to the identity, checks the counts
against the closed inclusion-exclusion formula, and shows the exact ball
sizes (sums of that formula) inside the product sandwich that brackets them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blockperm import ball_size_bounds, ball_size_exact, enumerate_spheres, myers_count

print("sphere sizes |{p : distance(p, id) = k}|, enumerated vs closed formula\n")
for n in range(3, 8):
    profile = enumerate_spheres(n)
    formula = tuple(myers_count(n, k) for k in range(1, n))
    print(f"n={n}: counts {profile.counts}  sum {sum(profile.counts)} = {n}!")
    assert profile.counts[1:] == formula

print("\nball sizes with their product sandwich (where the hypothesis holds)\n")
print(f"{'n':>3} {'t':>3} {'lower':>8} {'exact':>8} {'upper':>8}")
for n in range(3, 8):
    for t in range(n):
        if n - t - 1 < 0 or (n - t - 1) ** 2 < n:
            continue
        lower, upper = ball_size_bounds(n, t)
        exact = ball_size_exact(n, t).size
        print(f"{n:>3} {t:>3} {lower:>8} {exact:>8} {upper:>8}")

print("\nbeyond the enumeration guard the formula still gives the exact size:")
print(f"n=13, t=4: {ball_size_exact(13, 4).size} in {ball_size_bounds(13, 4)}")
