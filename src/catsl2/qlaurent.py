"""Laurent polynomials in q with integer coefficients, as {exponent: coeff}."""

from __future__ import annotations


class Laurent:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    self.coeffs[e] = c

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def q_power(e: int) -> "Laurent":
        return Laurent({e: 1})

    def __add__(self, other: "Laurent") -> "Laurent":
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return Laurent(coeffs)

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Laurent({0: other})
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                qpow = "q" if e == 1 else "q^%d" % e
                body = qpow if abs(c) == 1 else "%d*%s" % (abs(c), qpow)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "Laurent(%s)" % self.render()
