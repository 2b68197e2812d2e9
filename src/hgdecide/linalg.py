"""Exact rational linear algebra, sized for tower coordinate spaces."""

from __future__ import annotations

from fractions import Fraction

from .errors import DecideError


class Eliminator:
    """Incremental exact Gaussian elimination over Q on sparse vectors.

    Tracks a growing independent set of vectors; `express` writes a new
    vector as an exact rational combination of the accepted originals.  A
    vector is given as integer numerators over one positive denominator
    (a tower element's `nums` and `den`), and rows keep only their nonzero
    entries, so an offset b*sqrt(d), one nonzero coordinate, is reduced
    in one entry however large the tower.
    """

    def __init__(self, dim: int):
        self.dim = dim
        # (pivot, reduced row, combo): the row is nonzero at its pivot and
        # zero at every earlier row's pivot, and equals
        # sum combo[j] * accepted[j]; both keep nonzero entries only
        self.rows: list[tuple[int, dict[int, Fraction], dict[int, Fraction]]] = []
        self.count = 0

    def _reduce(self, nums, den: int) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
        """(residual, coeffs) with nums/den = residual + sum coeffs[j] * accepted[j]."""
        if len(nums) != self.dim:
            raise DecideError("dimension mismatch")
        v = {k: Fraction(a, den) for k, a in enumerate(nums) if a}
        coeffs: dict[int, Fraction] = {}
        for piv, row, combo in self.rows:
            if piv in v:
                f = v[piv] / row[piv]
                for k, b in row.items():
                    c = v.get(k, 0) - f * b
                    if c:
                        v[k] = c
                    else:
                        del v[k]
                for j, rc in combo.items():
                    coeffs[j] = coeffs.get(j, 0) + f * rc
        return v, coeffs

    def try_add(self, nums, den: int = 1) -> bool:
        """Accept nums/den if independent of the accepted set."""
        residual, coeffs = self._reduce(nums, den)
        if not residual:
            return False
        combo = {j: -c for j, c in coeffs.items() if c}
        combo[self.count] = Fraction(1)
        self.rows.append((min(residual), residual, combo))
        self.count += 1
        return True

    def express(self, nums, den: int = 1) -> list[Fraction] | None:
        """Coefficients c with nums/den = sum c_j * accepted_j, or None."""
        residual, coeffs = self._reduce(nums, den)
        if residual:
            return None
        return [Fraction(coeffs.get(j, 0)) for j in range(self.count)]
