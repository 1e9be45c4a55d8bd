"""Exact Gaussian-rational scalars.

Character values of the supported point groups are rationals or pure
imaginary rationals (the extra representations of the double group carry
characters +/-i on the reflection classes).  Keeping them as exact
complex rationals makes decomposition multiplicities provably integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def scale(self, factor: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * factor, self.im * factor)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

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


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))


def rational(value: int | Fraction) -> GaussianRational:
    return GaussianRational(Fraction(value))


def parse_scalar(text: str) -> GaussianRational:
    """Parse an exact scalar string such as "1", "-2", "1/2", "i", "-i", "2i".

    A combined form "a+bi" / "a-bi" is accepted as well.
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
        # sign and not inside a fraction)
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                re_part, im_part = body[:pos], body[pos:]
                break
        else:
            re_part, im_part = "", body
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = Fraction(im_part)
        re = Fraction(re_part) if re_part else Fraction(0)
        return GaussianRational(re, im)
    return GaussianRational(Fraction(s))
