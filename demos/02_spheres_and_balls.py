"""Distance spheres around the identity and ball sizes.

Enumerates S_n and histograms distances to the identity, checks the counts
against the closed form C(n-1, k) m_k (m_k: minimal orders of k+1 blocks),
and shows the exact ball sizes (sums of that form) inside the product
sandwich that brackets them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blockperm import (
    ball_size_bounds,
    ball_size_exact,
    enumerate_spheres,
    sandwich_applies,
    sphere_profile,
)

print("sphere sizes |{p : distance(p, id) = k}|, enumerated vs closed form\n")
for n in range(3, 8):
    profile = enumerate_spheres(n)
    print(f"n={n}: counts {profile.counts}  sum {sum(profile.counts)} = {n}!")
    assert profile == sphere_profile(n)

print("\nball sizes with their product sandwich (where the hypothesis holds)\n")
print(f"{'n':>3} {'t':>3} {'lower':>8} {'exact':>8} {'upper':>8}")
for n in range(3, 8):
    for t in range(n):
        if not sandwich_applies(n, t):
            continue
        lower, upper = ball_size_bounds(n, t)
        exact = ball_size_exact(n, t).size
        print(f"{n:>3} {t:>3} {lower:>8} {exact:>8} {upper:>8}")

print("\nbeyond the enumeration guard the closed form still gives exact sizes:")
print(f"n=13, t=4: {ball_size_exact(13, 4).size} in {ball_size_bounds(13, 4)}")
print(f"n=13 spheres: {sphere_profile(13).counts}")
