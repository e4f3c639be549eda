"""Wavelength-conversion schemes and conversion graphs (paper Section II-A).

A limited range wavelength converter maps input wavelength ``λ_i`` to a set
of adjacent output wavelengths: ``e`` on the "minus" side and ``f`` on the
"plus" side, for a conversion degree ``d = e + f + 1``.  Two variants are
studied by the paper:

* **Circular symmetrical** — the adjacency set of ``λ_i`` is the circular
  interval ``[i - e, i + f]`` mod ``k`` (paper Fig. 2(a)).
* **Non-circular symmetrical** — the adjacency set is clipped at the band
  edges: ``[max(0, i - e), min(k - 1, i + f)]`` (paper Fig. 2(b)), so
  wavelengths near one end cannot convert to the other end.

Full range conversion (``d = k``) is the special case where every wavelength
converts to every other.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property

from repro.errors import InvalidParameterError
from repro.graphs.bipartite import BipartiteGraph
from repro.util.intervals import CircularInterval
from repro.util.validation import check_index, check_nonnegative_int, check_positive_int

__all__ = [
    "ConversionScheme",
    "CircularConversion",
    "NonCircularConversion",
    "FullRangeConversion",
]


class ConversionScheme(ABC):
    """A wavelength-conversion capability for a ``k``-wavelength system.

    Subclasses define :meth:`adjacency`, the set of output wavelengths an
    input wavelength may be converted to.  All index arguments are wavelength
    indexes in ``[0, k)``.
    """

    def __init__(self, k: int, e: int, f: int) -> None:
        self._k = check_positive_int(k, "k")
        self._e = check_nonnegative_int(e, "e")
        self._f = check_nonnegative_int(f, "f")
        if self._e + self._f + 1 > self._k:
            raise InvalidParameterError(
                f"conversion degree e+f+1={self._e + self._f + 1} exceeds k={self._k}"
            )

    # -- parameters ----------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of wavelengths per fiber."""
        return self._k

    @property
    def e(self) -> int:
        """Conversion reach on the minus side."""
        return self._e

    @property
    def f(self) -> int:
        """Conversion reach on the plus side."""
        return self._f

    @property
    def degree(self) -> int:
        """Nominal conversion degree ``d = e + f + 1``."""
        return self._e + self._f + 1

    @property
    def is_full_range(self) -> bool:
        """Whether every wavelength can convert to every wavelength."""
        return self.degree == self._k and isinstance(self, CircularConversion)

    # -- degradation ----------------------------------------------------------

    def degraded(self, e: int, f: int) -> "ConversionScheme":
        """This scheme with converter reach capped at ``(e, f)``.

        Models a partially failed limited-range converter (see
        :mod:`repro.faults`): the effective reach is ``(min(self.e, e),
        min(self.f, f))``, down to fixed-wavelength conversion ``d' = 1`` at
        ``e = f = 0``.  Returns ``self`` when the cap does not bind, and
        always a scheme of the same circular/non-circular family (a degraded
        full-range converter becomes a plain circular limited-range one).
        """
        e2 = min(self._e, check_nonnegative_int(e, "e"))
        f2 = min(self._f, check_nonnegative_int(f, "f"))
        if e2 == self._e and f2 == self._f:
            return self
        if isinstance(self, CircularConversion):
            return CircularConversion(self._k, e2, f2)
        return NonCircularConversion(self._k, e2, f2)

    # -- adjacency ------------------------------------------------------------

    @abstractmethod
    def adjacency(self, w: int) -> tuple[int, ...]:
        """Sorted output wavelengths that input wavelength ``w`` converts to
        (the paper's adjacency set of ``λ_w``)."""

    def can_convert(self, w: int, b: int) -> bool:
        """Whether input wavelength ``w`` may be converted to output ``b``."""
        k = self._k
        exact = type(w) is int and type(b) is int
        if not (exact and 0 <= w < k and 0 <= b < k):
            b = check_index(b, k, "b")
            w = check_index(w, k, "w")
        return self._in_window(w, b)

    def _in_window(self, w: int, b: int) -> bool:
        """:meth:`can_convert` on indexes already known to be in ``[0, k)``;
        the built-in schemes override it with window arithmetic."""
        return b in self.adjacency(w)

    def sources(self, b: int) -> tuple[int, ...]:
        """Sorted input wavelengths convertible to output wavelength ``b``."""
        check_index(b, self._k, "b")
        return tuple(w for w in range(self._k) if b in self.adjacency(w))

    @cached_property
    def _adjacency_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.adjacency(w) for w in range(self._k))

    def conversion_graph(self) -> BipartiteGraph:
        """The conversion graph (paper Fig. 2): ``k`` vertices per side, an
        edge wherever conversion is possible."""
        edges = [
            (w, b) for w in range(self._k) for b in self._adjacency_table[w]
        ]
        return BipartiteGraph(self._k, self._k, edges)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(k={self._k}, e={self._e}, f={self._f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConversionScheme):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._k == other._k
            and self._e == other._e
            and self._f == other._f
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._k, self._e, self._f))


class CircularConversion(ConversionScheme):
    """Circular symmetrical limited range conversion (paper Fig. 2(a)).

    ``λ_w`` converts to ``λ_{(w-e) mod k} ... λ_{(w+f) mod k}``; every
    wavelength has exactly ``d`` targets.

    >>> CircularConversion(k=6, e=1, f=1).adjacency(0)
    (0, 1, 5)
    """

    def adjacency(self, w: int) -> tuple[int, ...]:
        check_index(w, self.k, "w")
        return tuple(
            sorted(CircularInterval(w - self.e, w + self.f, self.k))
        )

    def _in_window(self, w: int, b: int) -> bool:
        return (b - w + self._e) % self._k <= self._e + self._f

    def adjacency_interval(self, w: int) -> CircularInterval:
        """The adjacency set as the paper's interval ``[w - e, w + f]``."""
        check_index(w, self.k, "w")
        return CircularInterval(w - self.e, w + self.f, self.k)


class NonCircularConversion(ConversionScheme):
    """Non-circular symmetrical limited range conversion (paper Fig. 2(b)).

    ``λ_w`` converts to ``[max(0, w-e), min(k-1, w+f)]``; wavelengths within
    ``e`` of the bottom (or ``f`` of the top) of the band have fewer than
    ``d`` targets.

    >>> NonCircularConversion(k=6, e=1, f=1).adjacency(0)
    (0, 1)
    """

    def adjacency(self, w: int) -> tuple[int, ...]:
        check_index(w, self.k, "w")
        lo = max(0, w - self.e)
        hi = min(self.k - 1, w + self.f)
        return tuple(range(lo, hi + 1))

    def _in_window(self, w: int, b: int) -> bool:
        return -self._e <= b - w <= self._f

    def adjacency_bounds(self, w: int) -> tuple[int, int]:
        """Clipped ``(BEGIN, END)`` wavelength bounds for ``λ_w``."""
        check_index(w, self.k, "w")
        return max(0, w - self.e), min(self.k - 1, w + self.f)


class FullRangeConversion(CircularConversion):
    """Full range conversion: any wavelength to any wavelength (``d = k``).

    Implemented as the circular scheme with ``e + f + 1 = k``, which the
    paper notes is the special case ``d = k``.
    """

    def __init__(self, k: int) -> None:
        k = check_positive_int(k, "k")
        # Split the reach as evenly as possible; adjacency covers all of
        # [0, k) either way.
        e = (k - 1) // 2
        super().__init__(k, e, k - 1 - e)

    def adjacency(self, w: int) -> tuple[int, ...]:
        check_index(w, self.k, "w")
        return tuple(range(self.k))

    def __repr__(self) -> str:
        return f"FullRangeConversion(k={self.k})"
