"""Non-dissipative pairs and their positive-definite trace certificates.

Run:  python demos/02_dissipativity_certificates.py
"""

import numpy as np

from localsolv import SymmetricForm, is_non_dissipative, pencil_element, trace_certificate

# A pair is non-dissipative when no nonzero combination cos(t)A + sin(t)B is
# positive semidefinite.  Two hyperbolic plane forms qualify: every
# combination has negative determinant.
a = SymmetricForm(np.diag([1.0, -1.0]))
b = SymmetricForm([[0.0, 1.0], [1.0, 0.0]])
verdict = is_non_dissipative(a, b)
print("hyperbolic pair:", verdict.kind.value)
print("largest smallest-eigenvalue over all directions:", verdict.extreme_min_eig)

# The decision itself evaluates the pencil at a few angles (here 0 and pi/2):
# their extreme eigenvectors give points of the joint numerical range that
# surround the origin, and the certificate below proves that no combination
# is positive semidefinite.  The reported extreme above is a diagnostic: the
# maximum over all directions of the smallest eigenvalue, polished from the
# decision's best angle by Newton steps and shown to be the maximum by
# one level-set computation.  Here it is -1 at every angle, as a few show:
for theta in np.linspace(0.0, np.pi, 6, endpoint=False):
    value = np.linalg.eigvalsh(pencil_element(a, b, theta).matrix)[0]
    print(f"  theta={theta:5.2f}  min eig = {value:+.4f}")

# A dissipative pair: the sum of the two squares is positive semidefinite.
d1 = SymmetricForm(np.diag([1.0, 0.0]))
d2 = SymmetricForm(np.diag([0.0, 1.0]))
verdict = is_non_dissipative(d1, d2)
print("\ncoordinate squares:", verdict.kind.value, "at theta =", verdict.theta)

# Non-dissipativity is equivalent to the existence of Q > 0 annihilating
# both traces: tr(Q A Q) = tr(Q B Q) = 0.  The certificate is built in closed
# form from extreme eigenvectors of a few pencil elements (for this traceless
# pair it is a multiple of the identity) and can be checked by two matrix
# multiplications.
outcome = trace_certificate(a, b)
cert = outcome.certificate
print("\ncertificate found:", outcome.found)
print("Q =")
print(cert.q)
print("residuals:", cert.residual_a, cert.residual_b, " min eig of Q:", cert.min_eig_q)

# For the dissipative pair the same search is infeasible.
print("\ncoordinate squares certificate:", trace_certificate(d1, d2).status.value)

# The congruence by Q rewrites the pair in coordinates where both traces
# vanish.
rng = np.random.default_rng(3)
t = rng.standard_normal((2, 2)) + 2 * np.eye(2)
skewed_a = SymmetricForm(t.T @ a.matrix @ t)
skewed_b = SymmetricForm(t.T @ b.matrix @ t)
print("\ntraces before:", np.trace(skewed_a.matrix), np.trace(skewed_b.matrix))
q = trace_certificate(skewed_a, skewed_b).certificate.q
print("traces after: ", np.trace(q @ skewed_a.matrix @ q), np.trace(q @ skewed_b.matrix @ q))
