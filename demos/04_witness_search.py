"""Witness points on the joint zero set of two quadratic forms.

Run:  python demos/04_witness_search.py
"""

import numpy as np

from localsolv import (
    SymmetricForm,
    SymplecticStructure,
    bracket_witness,
    containment_probe,
    hypothesis_report,
    poisson_bracket,
    project_to_joint_zero,
    transversality_witness,
)


def traceless(n, rng):
    m = rng.standard_normal((n, n))
    m = 0.5 * (m + m.T)
    return SymmetricForm(m - np.trace(m) / n * np.eye(n))


rng = np.random.default_rng(7)

# Project a random direction onto the unit-sphere slice of the joint zero set.
a, b = traceless(8, rng), traceless(8, rng)
z = project_to_joint_zero(a, b, rng.standard_normal(8))
print("projected point residuals:", a.normalized()(z), b.normalized()(z))

# A transversality witness: a joint zero where the two gradients are
# independent; the margin is the second singular value of [Az | Bz].
search = transversality_witness(a, b)
print("transversality witness margin:", search.witness.margin, "in", search.attempts, "restarts")

# For the pair (x^2 - y^2, xy) the joint zero set is the origin alone.  In
# the plane that has a closed form (the residual traces an ellipse that
# misses the origin), so the search proves it empty before any restart.
plane_a = SymmetricForm(np.diag([1.0, -1.0]))
plane_b = SymmetricForm([[0.0, 0.5], [0.5, 0.0]])
empty = transversality_witness(plane_a, plane_b, restarts=50)
print("plane pair found a witness:", empty.found,
      f"(status {empty.status.value}, {empty.attempts} restarts used)")

# Bracket witnesses: points where both forms vanish but their bracket does
# not.  For a generic large pair one exists and is found almost immediately.
big_a, big_b = traceless(18, rng), traceless(18, rng)
structure = SymplecticStructure.canonical(18)
c = poisson_bracket(big_a, big_b, structure)
found = bracket_witness(big_a, big_b, c)
print("\nbracket witness |Q_C| =", found.witness.margin, "in", found.attempts, "restarts")
report = hypothesis_report(big_a, big_b, structure)
print("hypothesis branch for this pair:", report.branch.value)

# The quartet counterexample: the bracket vanishes on the whole joint zero
# set, which is not empty, so nothing proves the search futile and it runs
# its whole budget (EXHAUSTED: a search statement, not a proof of
# non-existence).
qa = np.zeros((4, 4))
qa[0, 3] = qa[3, 0] = 0.5
qa[1, 2] = qa[2, 1] = 0.5
qb = np.zeros((4, 4))
qb[0, 2] = qb[2, 0] = 0.5
qb[1, 3] = qb[3, 1] = -0.5
A, B = SymmetricForm(qa), SymmetricForm(qb)
C = poisson_bracket(A, B, SymplecticStructure.canonical(4))
empty = bracket_witness(A, B, C, restarts=60)
print("quartet bracket witness found:", empty.found,
      f"(status {empty.status.value}, {empty.attempts} restarts used)")

# Containment probing: for independent traceless pairs the region {Q_A <= 0}
# never fits inside {Q_B <= 0}; a sampled separating point proves it.
probe = containment_probe(plane_a, plane_b)
z = probe.separating_point
print("\nseparating point after", probe.samples_used, "samples:",
      "Q_A =", plane_a(z), " Q_B =", plane_b(z))
