"""Extended-real tropical scalars and the deformation family connecting them.

Three concrete semirings share the carrier conventions of IEEE doubles:

* max-plus: carrier ``R ∪ {-inf}``, ``a ⊕ b = max(a, b)``, ``a ⊙ b = a + b``,
  zero ``-inf``, unit ``0.0``;
* min-plus: carrier ``R ∪ {+inf}``, ``a ⊕ b = min(a, b)``, ``a ⊙ b = a + b``,
  zero ``+inf``, unit ``0.0`` (the order dual of max-plus);
* subtropical(h): the max-plus carrier with the smoothed addition
  ``a ⊕_h b = h·log(exp(a/h) + exp(b/h))`` for a deformation parameter h,
  positive and finite.  As ``h → 0`` the smoothed sum collapses onto ``max``;
  the gap is bounded by ``h·log 2`` and is attained at ``a == b``.

Every function of the package that takes an h checks it with
:func:`_check_h`, and every operation on two semiring-valued operands checks
that they share a semiring with :func:`_common_spec`.

:meth:`Semiring.reduce` is the one ⊕ over many terms (``max``, ``min``, or
``h·log Σ exp(v/h)`` in one shifted ``exp`` pass).  :meth:`Semiring.contract`
reduces through it the integral operator ``⊕_y K(x, y) ⊙ a(y)`` along one
axis, in bounded blocks: that is the matrix product, each axis of the
Lax–Oleinik step and ``kernel_apply``.  :meth:`Semiring.add_at` is the
scattered ⊕ over the stored entries of an idempotent Bellman system, and
:meth:`Semiring.star` the scalar closure ``1 ⊕ a ⊕ a⊙a ⊕ ...`` that the
Kleene star eliminates with.

Scalars are plain floats.  The semiring zero ("bottom") is a genuine IEEE
infinity, so absorption and neutrality mostly fall out of float arithmetic;
the one explicit guard is that bottom ⊙ x stays bottom even against an
(invalid) opposite infinity.  Values of the opposite sign of infinity are not
part of a carrier and are rejected by the container types, not by the scalar
operations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

__all__ = [
    "Semiring",
    "maxplus",
    "minplus",
    "subtropical",
]

_VARIANTS = ("maxplus", "minplus", "subtropical")

# Largest temporary block, in elements (16 MiB of doubles), that a
# contraction, the Legendre transform's candidate evaluation or a chunk of
# amoeba fibres' companion matrices forms at once.
_BLOCK_ELEMENTS = 2**21


def _maybe_float(x):
    """Collapse 0-d results back to plain floats, keep arrays as arrays."""
    if np.ndim(x) == 0:
        return float(x)
    return x


@dataclass(frozen=True)
class Semiring:
    """Descriptor of one scalar semiring: operations, constants, order.

    Use the factories :func:`maxplus`, :func:`minplus` and
    :func:`subtropical` rather than instantiating directly.
    """

    variant: str
    h: float | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown semiring variant {self.variant!r}")
        if self.variant == "subtropical":
            _check_h(self.h)
        elif self.h is not None:
            raise ValueError("h only applies to the subtropical variant")

    # -- constants ---------------------------------------------------------
    @property
    def zero(self) -> float:
        """The neutral element of ⊕ (absorbing for ⊙): -inf or +inf."""
        return math.inf if self.variant == "minplus" else -math.inf

    @property
    def one(self) -> float:
        """The neutral element of ⊙, always 0.0."""
        return 0.0

    @property
    def is_idempotent(self) -> bool:
        return self.variant != "subtropical"

    @property
    def dual(self) -> "Semiring":
        """The order dual under x ↦ −x: max-plus ↔ min-plus.

        Raises ValueError for ``subtropical(h)``, which deforms max-plus only.
        """
        if not self.is_idempotent:
            raise ValueError(f"{self!r} has no order dual")
        return _MINPLUS if self.variant == "maxplus" else _MAXPLUS

    # -- operations --------------------------------------------------------
    def add(self, a, b):
        """⊕ on scalars or arrays (elementwise).  Over ``subtropical(h)``,
        ``max(a, b) + h·log1p(exp(-|a - b|/h))``: no overflow, full precision
        at large gaps, and bottom (-inf) stays neutral.
        """
        if self.variant == "maxplus":
            return _maybe_float(np.maximum(a, b))
        if self.variant == "minplus":
            return _maybe_float(np.minimum(a, b))
        hi = np.maximum(a, b, dtype=float)
        with np.errstate(invalid="ignore"):
            gap = hi - np.minimum(a, b, dtype=float)  # +inf when one side is bottom, NaN when both
            out = hi + self.h * np.log1p(np.exp(-gap / self.h))
        return _maybe_float(np.where(np.isneginf(hi), -math.inf, out))

    def mul(self, a, b):
        """⊙ on scalars or arrays (elementwise): ordinary addition.

        Bottom absorbs explicitly, so ``mul(zero, x) == zero`` even when
        ``x`` is the opposite infinity (which is not a carrier value).
        """
        a_arr = np.asarray(a, dtype=float)
        b_arr = np.asarray(b, dtype=float)
        with np.errstate(invalid="ignore"):
            out = a_arr + b_arr
        bottom = self.zero
        guard = (a_arr == bottom) | (b_arr == bottom)
        if guard.any():
            out = np.where(guard, bottom, out)
        return _maybe_float(out)

    def reduce(self, values, axis=None, out=None, *, overwrite: bool = False):
        """⊕ of the entries of ``values`` along ``axis`` (an int, a tuple, or
        None for all), written to ``out`` if given, as numpy's reductions do.

        Max-plus takes the max and min-plus the min.  ``subtropical(h)``
        takes ``h·log Σ exp(v/h)``; see :func:`_h_logsumexp`.  With
        ``overwrite=True`` that branch works inside ``values`` rather than a
        copy of it, and leaves ``values`` undefined: a caller that owns a
        large temporary saves one more of its size.
        """
        if self.variant == "maxplus":
            return np.max(values, axis=axis, out=out)
        if self.variant == "minplus":
            return np.min(values, axis=axis, out=out)
        return _h_logsumexp(values, axis, self.h, out, overwrite)

    def contract(self, kern, a, axis: int = 0):
        """``out[..., x, ...] = ⊕_y kern[x, y] ⊙ a[..., y, ...]`` along ``axis``.

        The stacked sums ``kern[x, y] + a[..., y, ...]`` are formed for a block
        of rows x at a time, of at most ``_BLOCK_ELEMENTS`` entries (one row
        when ``a`` alone is larger), with ``y`` left in ``axis``'s place, and
        each block is reduced inside itself.  Every output entry is reduced
        on its own, so the block size changes no bit of the result.
        Same-signed infinities add cleanly, so inside the carrier bottom
        stays bottom with no guard.
        """
        a = np.asarray(a, dtype=float)
        axis %= a.ndim
        out = np.empty(a.shape[:axis] + (kern.shape[0],) + a.shape[axis + 1:])
        kern = np.reshape(kern, kern.shape + (1,) * (a.ndim - axis - 1))
        a = np.expand_dims(a, axis)
        step = max(1, _BLOCK_ELEMENTS // a.size)
        for start in range(0, kern.shape[0], step):
            rows = (slice(None),) * axis + (slice(start, start + step),)
            self.reduce(kern[rows[-1]] + a, axis + 1, out=out[rows], overwrite=True)
        return out

    def add_at(self, out, index, values) -> None:
        """``out[index] ⊕= values`` in place, repeated indices accumulating,
        as ``ufunc.at`` does; max-plus and min-plus only."""
        if not self.is_idempotent:
            raise ValueError("scattered ⊕ requires idempotent addition")
        (np.maximum if self.variant == "maxplus" else np.minimum).at(out, index, values)

    def star(self, a: float) -> float:
        """The scalar closure ``a* = 1 ⊕ a ⊕ a⊙a ⊕ ...``: 0 for max-plus
        ``a ≤ 0`` and min-plus ``a ≥ 0``; ``−h·log(−expm1(a/h))`` for
        subtropical(h) ``a < 0``, +0.0 at bottom; else DivergenceError.
        """
        if self.variant == "subtropical":
            if a < 0.0:
                # 0.0 − (+0.0) is +0.0, where −h·log(1.0) alone would give −0.0
                return 0.0 - self.h * math.log(-math.expm1(a / self.h))
        elif (a <= 0.0) if self.variant == "maxplus" else (a >= 0.0):
            return 0.0
        raise DivergenceError(f"{float(a)!r} has no star in {self!r}")

    def leq(self, a, b) -> bool:
        """The standard partial order: a ≼ b iff a ⊕ b == b.

        In max-plus this is the usual ≤ with -inf at the bottom; in min-plus
        it is the reversed order with +inf at the bottom.  Arrays compare
        elementwise and the result is the conjunction.  Undefined (raises) for
        the non-idempotent subtropical variant.
        """
        if not self.is_idempotent:
            raise ValueError("standard order requires idempotent addition")
        return bool(np.all(np.asarray(self.add(a, b)) == np.asarray(b, dtype=float)))

    def validate(self, values) -> None:
        """Reject values outside the carrier (NaN, opposite infinity)."""
        v = np.asarray(values, dtype=float)
        if np.isnan(v).any():
            raise ValueError("NaN is not a semiring scalar")
        bad = np.isneginf(v) if self.variant == "minplus" else np.isposinf(v)
        if bad.any():
            opp = "-inf" if self.variant == "minplus" else "+inf"
            raise ValueError(f"{opp} lies outside the {self.variant} carrier")

    def __repr__(self):
        if self.variant == "subtropical":
            return f"Semiring(subtropical, h={self.h!r})"
        return f"Semiring({self.variant})"


_MAXPLUS = Semiring("maxplus")
_MINPLUS = Semiring("minplus")


def maxplus() -> Semiring:
    """The max-plus semiring (R ∪ {-inf}, max, +)."""
    return _MAXPLUS


def minplus() -> Semiring:
    """The min-plus semiring (R ∪ {+inf}, min, +)."""
    return _MINPLUS


def subtropical(h: float) -> Semiring:
    """The smoothed max-plus semiring at deformation parameter ``h > 0``."""
    return Semiring("subtropical", float(h))


def _check_h(h) -> float:
    """``h`` as a float if it is a deformation parameter, else ValueError."""
    if h is None or not 0.0 < float(h) < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    return float(h)


def _common_spec(a, b) -> Semiring:
    """The semiring that operands ``a`` and ``b`` both carry in ``.spec``;
    ValueError if they differ."""
    if a.spec != b.spec:
        raise ValueError("operands live in different semirings")
    return a.spec


def _h_logsumexp(values, axis, h: float, out, overwrite: bool):
    """``h·log Σ exp(v/h)`` over ``axis``: SciPy 1.17's ``logsumexp`` steps,
    in place and with one ``exp`` pass.

    With ``t = v/h`` and its maximum ``t_max`` attained ``m`` times, the sum
    is ``exp(t_max)·m·(1 + s/m)``, where ``s`` sums ``exp(t − t_max)`` over
    the other terms (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41,
    2021).  On the carrier this is ``h * scipy.special.logsumexp(v / h,
    axis)`` bit for bit: the same terms are summed in the same layout.  An
    all-bottom slice has ``t − t_max = NaN`` everywhere, all of it masked to
    zero, so it comes out as ``log 1 + log m − inf = −inf``.
    """
    t = np.divide(values, h, out=values if overwrite else None)
    t_max = t.max(axis=axis, keepdims=True)
    top = t == t_max
    m = np.count_nonzero(top, axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):
        t -= t_max
    np.exp(t, out=t)
    np.copyto(t, 0.0, where=top)
    s = t.sum(axis=axis, keepdims=True)
    np.divide(s, m, out=s, where=s != 0)
    np.log1p(s, out=s)
    s += np.log(m)
    s += t_max
    return np.multiply(np.squeeze(s, axis=axis), h, out=out)

