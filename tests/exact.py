"""Exact second moments of a stored instance, a test-only oracle for forward errors.

Every double is an exact binary rational, so `fractions.Fraction` gives the
exact Var(A), Var(B) and Cov(A,B) of the stored state and matrices, with no
rounding at all. The stored state is unit only to rounding, so every mean
divides by <x|x>:

    Var(A)   = <Ax|Ax> / <x|x> - <A>^2,     <A> = <x|Ax> / <x|x>
    Cov(A,B) = <Ax|Bx> / <x|x> - <A><B>

<x|Ax> is exactly real, since a stored `Observable` is exactly Hermitian.
From these the optimized Maccone-Pati values follow exactly:
l1(s) = (Var(A) + Var(B))/2 + s CovQ and l2(s) = Var(A) + Var(B).

The cost grows as d^2 Fraction products per matrix-vector product; d <= 8
keeps one instance to a few milliseconds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

ZERO = Fraction(0)


class ExactMoments(NamedTuple):
    """Var(A), Var(B), CovQ(A,B) = Re Cov(A,B) and Im Cov(A,B) = <[A,B]> / 2i, exactly."""

    var_a: Fraction
    var_b: Fraction
    covq: Fraction
    cov_imag: Fraction

    def by_sign(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        """(l1(+1), l1(-1)) and (l2(+1), l2(-1)) at the Cauchy-Schwarz optimum."""
        sum_var = self.var_a + self.var_b
        return (sum_var / 2 + self.covq, sum_var / 2 - self.covq), (sum_var, sum_var)


def _vector(values) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(z.real), Fraction(z.imag)) for z in values]


def _matvec(rows, x):
    out = []
    for row in rows:
        re = im = ZERO
        for (mr, mi), (xr, xi) in zip(row, x):
            re += mr * xr - mi * xi
            im += mr * xi + mi * xr
        out.append((re, im))
    return out


def _inner(u, v) -> tuple[Fraction, Fraction]:
    """<u|v>, conjugate-linear in u."""
    re = im = ZERO
    for (ur, ui), (vr, vi) in zip(u, v):
        re += ur * vr + ui * vi
        im += ur * vi - ui * vr
    return re, im


def exact_moments(a, b, state) -> ExactMoments:
    """The exact moments of `state` (a QuantumState) under observables `a` and `b`."""
    x = _vector(state.vector.tolist())
    norm_sq = _inner(x, x)[0]
    ax = _matvec([_vector(row) for row in a.matrix.tolist()], x)
    bx = _matvec([_vector(row) for row in b.matrix.tolist()], x)
    mean_a, residue_a = _inner(x, ax)
    mean_b, residue_b = _inner(x, bx)
    assert residue_a == residue_b == 0, "a stored observable is exactly Hermitian"
    mean_a, mean_b = mean_a / norm_sq, mean_b / norm_sq
    cov_re, cov_im = _inner(ax, bx)
    return ExactMoments(
        var_a=_inner(ax, ax)[0] / norm_sq - mean_a * mean_a,
        var_b=_inner(bx, bx)[0] / norm_sq - mean_b * mean_b,
        covq=cov_re / norm_sq - mean_a * mean_b,
        cov_imag=cov_im / norm_sq,
    )
