"""Exact rational linear algebra, sized for tower coordinate spaces."""

from __future__ import annotations

from fractions import Fraction

from .errors import DecideError


class Eliminator:
    """Incremental exact Gaussian elimination over Q.

    Tracks a growing independent set of vectors; `express` writes a new
    vector as an exact rational combination of the accepted originals.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[Fraction]] = []    # reduced, nonzero
        self.combos: list[list[Fraction]] = []  # rows[i] = sum combos[i][j] * accepted[j]
        self.count = 0

    def _pad(self):
        for c in self.combos:
            while len(c) < self.count:
                c.append(Fraction(0))

    def _reduce(self, vec) -> tuple[list[Fraction], list[Fraction]]:
        """Return (residual, coeffs) with vec = residual + sum coeffs_j * accepted_j."""
        v = [Fraction(x) for x in vec]
        if len(v) != self.dim:
            raise DecideError("dimension mismatch")
        coeffs = [Fraction(0)] * self.count
        for row, rcombo in zip(self.rows, self.combos):
            piv = next(i for i, x in enumerate(row) if x != 0)
            if v[piv]:
                f = v[piv] / row[piv]
                v = [a - f * b for a, b in zip(v, row)]
                for j, rc in enumerate(rcombo):
                    coeffs[j] += f * rc
        return v, coeffs

    def try_add(self, vec) -> bool:
        """Accept vec if independent of the accepted set."""
        residual, coeffs = self._reduce(vec)
        if all(x == 0 for x in residual):
            return False
        combo = [-c for c in coeffs] + [Fraction(1)]
        self.count += 1
        self._pad()
        self.rows.append(residual)
        self.combos.append(combo)
        return True

    def express(self, vec) -> list[Fraction] | None:
        """Coefficients c with vec = sum c_j * accepted_j, or None."""
        residual, coeffs = self._reduce(vec)
        if any(x != 0 for x in residual):
            return None
        return coeffs
