"""Rank analysis over the pencil spanned by two forms.

Run:  python demos/03_pencil_ranks.py
"""

import numpy as np

from localsolv import SymmetricForm, pencil_element, rank_profile

# A pencil with visible structure: two orthogonal hyperbolic blocks.
a = SymmetricForm(np.diag([1.0, -1.0, 0.0, 0.0]))
b = SymmetricForm(np.diag([0.0, 0.0, 1.0, -1.0]))

print("rank at theta=0:     ", pencil_element(a, b, 0.0).rank())
print("rank at theta=pi/4:  ", pencil_element(a, b, np.pi / 4).rank())

profile = rank_profile(a, b)
print("\ngeneric (max) rank:", profile.maxrank)
print("minimal nonzero rank:", profile.minrank)
print("rank drops at:")
for theta, rank in profile.drop_points:
    print(f"  theta = {theta:.6f} -> rank {rank}")

# Rank-drop directions are the real eigenvalues of the pencil compressed to
# its generic rank, so drops planted at arbitrary angles are found to rounding
# error.
rng = np.random.default_rng(1)
t0 = 0.7123456789
n = 6
m = rng.standard_normal((n, n))
a2 = SymmetricForm(0.5 * (m + m.T))
kernel = rng.standard_normal(n)
kernel /= np.linalg.norm(kernel)
w = -(np.cos(t0) * a2.matrix @ kernel) / np.sin(t0)
b2 = SymmetricForm(np.outer(kernel, w) + np.outer(w, kernel) - (kernel @ w) * np.outer(kernel, kernel))
profile2 = rank_profile(a2, b2)
hits = [theta for theta, _ in profile2.drop_points if min(abs(theta - t0), abs(theta - t0 - np.pi)) < 1e-6]
print(f"\nplanted drop at t0 = {t0}: found at {hits}")

