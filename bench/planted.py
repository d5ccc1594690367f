"""Planted pencils: pairs of forms whose answers are known by construction.

Take angles phi_i and radii r_i, form A0 = diag(r_i cos phi_i) and
B0 = diag(r_i sin phi_i), and apply a congruence A = P^T A0 P, B = P^T B0 P.
The element cos(t) A + sin(t) B is congruent to diag(r_i cos(phi_i - t)),
so without asking the program:

- maxrank is #{r_i != 0};
- the element loses rank exactly at t = phi_i +- pi/2, by the number of
  nonzero-radius entries whose angle agrees with phi_i modulo pi, so minrank
  is maxrank minus the largest such multiplicity;
- the pair is dissipative exactly when all phi_i (r_i != 0) lie in a closed
  half-circle, i.e. when the largest circular gap between them is >= pi;
- the joint radical is P^{-1} span{e_i : r_i = 0}.

Only numpy is used here; nothing in this module calls the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PlantedPair:
    """A = P^T diag(r cos phi) P and B = P^T diag(r sin phi) P."""

    phi: np.ndarray
    r: np.ndarray
    p: np.ndarray

    @property
    def n(self) -> int:
        return len(self.phi)

    @property
    def a(self) -> np.ndarray:
        return _congruent(self.p, self.r * np.cos(self.phi))

    @property
    def b(self) -> np.ndarray:
        return _congruent(self.p, self.r * np.sin(self.phi))

    @property
    def live_angles(self) -> np.ndarray:
        return np.mod(self.phi[self.r != 0.0], TWO_PI)

    @property
    def maxrank(self) -> int:
        return int(np.count_nonzero(self.r))

    def classes(self) -> list[tuple[float, int]]:
        """(angle modulo pi, multiplicity) of each angle class, by angle."""
        found: list[list] = []
        for psi in sorted(np.mod(self.live_angles, math.pi)):
            if found and _gap_mod_pi(psi, found[-1][0]) < 1e-9:
                found[-1][1] += 1
            elif found and _gap_mod_pi(psi, found[0][0]) < 1e-9:
                found[0][1] += 1
            else:
                found.append([float(psi), 1])
        return [(psi, k) for psi, k in found]

    @property
    def minrank(self) -> int:
        return self.maxrank - max(k for _, k in self.classes())

    def drop_points(self) -> list[tuple[float, int]]:
        """Sorted (theta in [0, 2 pi), rank) at which the element loses rank."""
        drops = []
        for psi, k in self.classes():
            for shift in (0.5 * math.pi, 1.5 * math.pi):
                drops.append((float(np.mod(psi + shift, TWO_PI)), self.maxrank - k))
        return sorted(drops)

    @property
    def past_cut(self) -> float:
        """pi minus the largest circular gap between the live angles.

        Positive exactly when the pair is non-dissipative; its size is the
        distance past the dissipative cut.
        """
        return _past_cut(self.live_angles)

    @property
    def dissipative(self) -> bool:
        return self.past_cut <= 0.0

    def radical_basis(self) -> np.ndarray:
        """Orthonormal columns spanning P^{-1} span{e_i : r_i = 0}."""
        zero = np.nonzero(self.r == 0.0)[0]
        n = self.n
        if zero.size == 0:
            return np.zeros((n, 0))
        spanning = np.linalg.solve(self.p, np.eye(n)[:, zero])
        q, _ = np.linalg.qr(spanning)
        return q


def _past_cut(angles: np.ndarray) -> float:
    angles = np.sort(np.mod(angles, TWO_PI))
    gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
    return float(math.pi - np.max(gaps))


def _congruent(p: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    m = p.T @ (diagonal[:, None] * p)
    return 0.5 * (m + m.T)


def _gap_mod_pi(x: float, y: float) -> float:
    gap = abs(x - y) % math.pi
    return min(gap, math.pi - gap)


def canonical_j(two_d: int) -> np.ndarray:
    """The pairing matrix [[0, I], [-I, 0]], position block first."""
    d = two_d // 2
    j = np.zeros((two_d, two_d))
    j[:d, d:] = np.eye(d)
    j[d:, :d] = -np.eye(d)
    return j


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def congruence(n: int, rng: np.random.Generator, kappa: float) -> np.ndarray:
    """P = U diag(s) V^T with Haar U, V and s spread evenly (in log) over
    [1, kappa], so the condition number of P is exactly kappa."""
    s = np.geomspace(1.0, kappa, n)
    return haar_orthogonal(n, rng) @ (s[:, None] * haar_orthogonal(n, rng).T)


def class_angles(k: int, rng: np.random.Generator, separation: float) -> np.ndarray:
    """k angles in [0, pi), pairwise at least `separation` apart modulo pi."""
    spare = math.pi - k * separation
    if spare < 0.0:
        raise ValueError(f"{k} classes cannot be {separation} apart modulo pi")
    gaps = separation + spare * rng.dirichlet(np.ones(k))
    start = rng.uniform(0.0, math.pi)
    return np.mod(start + np.concatenate([[0.0], np.cumsum(gaps[:-1])]), math.pi)


def _spread_signs(psi: np.ndarray, mult: list[int]) -> np.ndarray:
    """Angles for the members of each class, as far past the cut as possible.

    A class with two or more members gets both phi = psi and psi + pi; the
    signs of single members are chosen to leave the largest gap smallest.
    """
    base = []
    singles = []
    for angle, k in zip(psi, mult):
        if k == 1:
            singles.append(angle)
        else:
            base.extend(angle + math.pi * (j % 2) for j in range(k))
    best = None
    for mask in range(2 ** len(singles)):
        chosen = [a + math.pi * ((mask >> j) & 1) for j, a in enumerate(singles)]
        phi = np.array(base + chosen)
        if best is None or _past_cut(phi) > _past_cut(best):
            best = phi
    return best


# ---------------------------------------------------------------------------
# the outcome classes used by the decks


def planted_classes(
    n: int,
    mult: list[int],
    zeros: int,
    rng: np.random.Generator,
    *,
    separation: float,
    kappa: float,
    dissipative: bool = False,
    margin: float = 0.3,
) -> PlantedPair:
    """A planted pair with the given class multiplicities and zero radii.

    Non-dissipative pairs clear the cut by at least `margin`; dissipative
    pairs keep every live angle inside an arc of length pi - margin.
    """
    if sum(mult) + zeros != n:
        raise ValueError("multiplicities and zero radii must add up to n")
    k = len(mult)
    if dissipative:
        # Classes inside [0, pi - margin), every member on the same side.
        psi = np.sort(class_angles(k, rng, separation)) * (math.pi - margin) / math.pi
        phi = np.repeat(psi, mult) + rng.uniform(0.0, TWO_PI)
    else:
        for _ in range(100):
            phi = _spread_signs(class_angles(k, rng, separation), mult)
            if _past_cut(phi) >= margin:
                break
        else:
            raise ValueError(f"no draw of {k} classes clears the cut by {margin}")
    radii = rng.uniform(0.5, 2.0, size=len(phi))
    order = rng.permutation(n)
    phi_all = np.concatenate([phi, np.zeros(zeros)])[order]
    r_all = np.concatenate([radii, np.zeros(zeros)])[order]
    return PlantedPair(phi_all, r_all, congruence(n, rng, kappa))


def in_new_coordinates(pair: PlantedPair, rng: np.random.Generator) -> PlantedPair:
    """The same pair after a Haar orthogonal change of coordinates W and a
    rotation of the pencil basis by a uniform angle.

    P becomes P W (same condition number) and every phi_i moves by the same
    angle, so ranks, drop multiplicities, dissipativity and the cost of every
    decision stay the same; only the coordinates and the drop angles move.
    """
    w = haar_orthogonal(pair.n, rng)
    return PlantedPair(pair.phi + rng.uniform(0.0, TWO_PI), pair.r, pair.p @ w)


def planted_arc(n: int, past: float, alpha: float, p: np.ndarray) -> PlantedPair:
    """n unit-radius angles evenly spread over an arc of length pi + past.

    `past` > 0 puts the pair that far past the dissipative cut (the wrap
    gap pi - past is the largest gap); `past` < 0 makes it dissipative.
    """
    step = (math.pi + past) / (n - 1)
    if past > 0.0 and step >= math.pi - past:
        raise ValueError("the arc leaves an inner gap as wide as the wrap gap")
    return PlantedPair(alpha + step * np.arange(n), np.ones(n), p)
