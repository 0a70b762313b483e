"""Sparse multivariate polynomial arithmetic over dyadic rationals and floats.

The coefficient domain is deliberately small: exact dyadic rationals
m / 2**k (the subring Z[1/2]) and ordinary float64.  Dyadic-dyadic
arithmetic is exact; any operation mixing a dyadic with a float demotes
the result to float and flags the polynomial as demoted.

Polynomials are immutable after construction and safe to share across
threads.  Terms iterate in graded lexicographic order so that two equal
polynomials always serialize identically.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Float coefficients below this magnitude are pruned (subnormal guard).
FLOAT_ZERO_TOL = 1e-300

# evaluate_grid works through the points in blocks of this many rows, so
# its temporary design matrix stays bounded whatever the grid size.
GRID_BLOCK_ROWS = 2048


class Dyadic:
    """Exact dyadic rational m / 2**k, stored in lowest terms (m odd or k == 0)."""

    __slots__ = ("m", "k")

    def __init__(self, m: int, k: int = 0):
        if k < 0:
            raise ValueError(f"dyadic exponent k must be nonnegative, got {k}")
        m = int(m)
        k = int(k)
        while k > 0 and m % 2 == 0:
            m //= 2
            k -= 1
        if m == 0:
            k = 0
        self.m = m
        self.k = k

    @classmethod
    def from_float(cls, x: float) -> "Dyadic":
        """Exact conversion: every finite float is a dyadic rational."""
        if isinstance(x, Dyadic):
            return x
        if isinstance(x, int):
            return cls(x, 0)
        if not math.isfinite(x):
            raise ValueError(f"cannot convert non-finite float {x!r} to dyadic")
        num, den = float(x).as_integer_ratio()
        return cls(num, den.bit_length() - 1)

    # -- arithmetic: dyadic op dyadic stays exact, dyadic op float demotes --

    def __add__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        if isinstance(other, Dyadic):
            k = max(self.k, other.k)
            return Dyadic(self.m * (1 << (k - self.k)) + other.m * (1 << (k - other.k)), k)
        return float(self) + other

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.m, self.k)

    def __sub__(self, other):
        return self + (-other if isinstance(other, (Dyadic, int)) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        if isinstance(other, Dyadic):
            return Dyadic(self.m * other.m, self.k + other.k)
        return float(self) * other

    __rmul__ = __mul__

    def __pow__(self, p: int):
        if p < 0:
            raise ValueError(f"dyadic power must be nonnegative, got {p}")
        return Dyadic(self.m**p, self.k * p)

    def __abs__(self):
        return Dyadic(abs(self.m), self.k)

    def __float__(self):
        return self.m / (1 << self.k)

    def _pair(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        elif isinstance(other, float):
            other = Dyadic.from_float(other)
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.m * (1 << other.k), other.m * (1 << self.k)

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        return pair[0] == pair[1]

    def __lt__(self, other):
        a, b = self._pair(other)
        return a < b

    def __le__(self, other):
        a, b = self._pair(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._pair(other)
        return a > b

    def __ge__(self, other):
        a, b = self._pair(other)
        return a >= b

    def __hash__(self):
        return hash((self.m, self.k))

    def __repr__(self):
        return f"Dyadic({self.m}, {self.k})"

    def __str__(self):
        if self.k == 0:
            return str(self.m)
        return f"{self.m}/{1 << self.k}"


def design_matrix(points, exps) -> np.ndarray:
    """Monomial design matrix of an (N, n) point array: entry [j, k] is
    points[j] ** exps[k], as an (N, len(exps)) float array.

    Built from per-variable power tables x_i**0 .. x_i**max_e by repeated
    multiplication; numpy's ``**`` is many times slower on negative bases.
    The result is the transpose of a C-ordered (len(exps), N) array.
    """
    points = np.asarray(points, dtype=float)
    exps = np.asarray(exps, dtype=np.intp).reshape(len(exps), points.shape[1])
    out = np.ones((exps.shape[0], points.shape[0]))
    for x, col in zip(points.T, exps.T):
        top = int(col.max(initial=0))
        if top == 0:
            continue
        table = np.empty((top + 1, points.shape[0]))
        table[0] = 1.0
        for e in range(1, top + 1):
            np.multiply(table[e - 1], x, out=table[e])
        out *= table[col]
    return out.T


def nearest_dyadic(x: float, k: int) -> Dyadic:
    """Nearest dyadic m / 2**k to x (ties to even m, like round())."""
    if isinstance(x, Dyadic):
        x = float(x)
    return Dyadic(round(x * (1 << k)), k)


def grlex_key(exp):
    """Sort key for graded lexicographic term order."""
    return (sum(exp), tuple(-e for e in exp))


def _is_zero_coeff(c) -> bool:
    if isinstance(c, Dyadic):
        return c.m == 0
    return abs(c) < FLOAT_ZERO_TOL


def _coeff_add(a, b):
    """Add two coefficients; second return flags dyadic-to-float demotion."""
    if isinstance(a, Dyadic) and isinstance(b, Dyadic):
        return a + b, False
    if isinstance(a, Dyadic):
        return float(a) + b, True
    if isinstance(b, Dyadic):
        return a + float(b), True
    return a + b, False


def _coeff_mul(a, b):
    if isinstance(a, Dyadic) and isinstance(b, Dyadic):
        return a * b, False
    if isinstance(a, Dyadic):
        return float(a) * b, True
    if isinstance(b, Dyadic):
        return a * float(b), True
    return a * b, False


def _as_coeff(c):
    """Normalize a scalar into a coefficient: int -> Dyadic, float stays float."""
    if isinstance(c, (Dyadic, float)):
        return c
    if isinstance(c, (int, np.integer)):
        return Dyadic(int(c))
    if isinstance(c, np.floating):
        return float(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class Polynomial:
    """Sparse polynomial in n variables: exponent tuple -> coefficient.

    Invariants: no stored zero coefficients, every exponent tuple has
    length n, term iteration follows graded lex order.
    """

    __slots__ = ("n", "terms", "demoted")

    def __init__(self, n: int, terms=None, demoted: bool = False):
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n:
                raise ValueError(
                    f"exponent vector {exp} has length {len(exp)}, expected {n}"
                )
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = _as_coeff(c)
            if not _is_zero_coeff(c):
                clean[exp] = c
        self.n = n
        self.terms = dict(sorted(clean.items(), key=lambda kv: grlex_key(kv[0])))
        self.demoted = bool(demoted)

    # -- constructors --

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {(0,) * n: _as_coeff(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        exp = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {exp: Dyadic(1)})

    # -- basic queries --

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Dyadic) for c in self.terms.values())

    def coeff_norm2(self) -> float:
        return math.sqrt(sum(float(c) ** 2 for c in self.terms.values()))

    def _check_dim(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(
                f"variable count mismatch: {self.n} vs {other.n}"
            )

    # -- ring operations --

    def __add__(self, other):
        if isinstance(other, (int, float, Dyadic, np.integer, np.floating)):
            other = Polynomial.constant(self.n, other)
        self._check_dim(other)
        terms = dict(self.terms)
        demoted = self.demoted or other.demoted
        for exp, c in other.terms.items():
            if exp in terms:
                s, dem = _coeff_add(terms[exp], c)
                demoted = demoted or dem
                terms[exp] = s
            else:
                terms[exp] = c
        return Polynomial(self.n, terms, demoted)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()}, self.demoted)

    def __sub__(self, other):
        if isinstance(other, (int, float, Dyadic, np.integer, np.floating)):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Dyadic, np.integer, np.floating)):
            other = Polynomial.constant(self.n, other)
        self._check_dim(other)
        terms = {}
        demoted = self.demoted or other.demoted
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod, dem1 = _coeff_mul(c1, c2)
                demoted = demoted or dem1
                if exp in terms:
                    s, dem2 = _coeff_add(terms[exp], prod)
                    demoted = demoted or dem2
                    terms[exp] = s
                else:
                    terms[exp] = prod
        return Polynomial(self.n, terms, demoted)

    __rmul__ = __mul__

    def __pow__(self, p: int):
        if p < 0:
            raise ValueError(f"polynomial power must be nonnegative, got {p}")
        result = Polynomial.constant(self.n, 1)
        base = self
        while p:
            if p & 1:
                result = result * base
            base_needed = p > 1
            p >>= 1
            if base_needed and p:
                base = base * base
        return result

    # -- evaluation --

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate(self, x) -> float:
        """Evaluate at a real point; a ring homomorphism R -> R."""
        if len(x) != self.n:
            raise ValueError(f"point has dimension {len(x)}, polynomial has {self.n}")
        total = 0.0
        for exp, c in self.terms.items():
            v = float(c)
            for xi, e in zip(x, exp):
                if e:
                    v *= float(xi) ** e
            total += v
        return total

    def evaluate_exact(self, x) -> Dyadic:
        """Exact evaluation at a dyadic point (all coefficients dyadic)."""
        if len(x) != self.n:
            raise ValueError(f"point has dimension {len(x)}, polynomial has {self.n}")
        if not self.is_exact:
            raise ValueError("exact evaluation requires all-dyadic coefficients")
        total = Dyadic(0)
        for exp, c in self.terms.items():
            v = c
            for xi, e in zip(x, exp):
                v = v * (Dyadic.from_float(xi) if not isinstance(xi, Dyadic) else xi) ** e
            total = total + v
        return total

    def evaluate_grid(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, n) array of points."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, self.n)
        if points.shape[1] != self.n:
            raise ValueError(
                f"points have dimension {points.shape[1]}, polynomial has {self.n}"
            )
        exps = list(self.terms)
        coeffs = np.array([float(c) for c in self.terms.values()])
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], GRID_BLOCK_ROWS):
            block = points[start:start + GRID_BLOCK_ROWS]
            out[start:start + block.shape[0]] = design_matrix(block, exps) @ coeffs
        return out

    # -- coefficient-mode conversions --

    def to_exact(self) -> "Polynomial":
        """Exact float->dyadic conversion of every coefficient (lossless)."""
        return Polynomial(self.n, {e: Dyadic.from_float(c) if not isinstance(c, Dyadic) else c
                                   for e, c in self.terms.items()})

    def to_float(self) -> "Polynomial":
        return Polynomial(self.n, {e: float(c) for e, c in self.terms.items()})

    def dyadic_round(self, delta: float) -> "Polynomial":
        """Round float coefficients to the nearest m / 2**k, k = ceil(log2(1/delta)).

        Coefficients that are already exact dyadics are kept unchanged.
        Per-coefficient error is at most 2**-(k+1) <= delta.
        """
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        k = max(0, math.ceil(math.log2(1.0 / delta)))
        terms = {}
        for exp, c in self.terms.items():
            terms[exp] = c if isinstance(c, Dyadic) else nearest_dyadic(c, k)
        return Polynomial(self.n, terms)

    # -- equality / display --

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.n != other.n or set(self.terms) != set(other.terms):
            return False
        for exp, c in self.terms.items():
            d = other.terms[exp]
            if isinstance(c, Dyadic) != isinstance(d, Dyadic):
                return False
            if isinstance(c, Dyadic):
                if c != d:
                    return False
            elif c != d:
                return False
        return True

    def __hash__(self):
        return hash((self.n, tuple(self.terms), tuple(float(c) for c in self.terms.values())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.terms.items():
            mono = "*".join(
                f"X{i + 1}" if e == 1 else f"X{i + 1}^{e}"
                for i, e in enumerate(exp) if e
            )
            cs = str(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.n}, {self.terms!r})"

    # -- serialization --

    def to_json_dict(self) -> dict:
        out = []
        for exp, c in self.terms.items():
            coeff = str(c) if isinstance(c, Dyadic) else float(c)
            out.append({"coeff": coeff, "exp": list(exp)})
        return {"n": self.n, "terms": out}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        n = data["n"]
        terms = {}
        for entry in data.get("terms", []):
            exp = tuple(entry["exp"])
            if exp in terms:
                raise ValueError(f"duplicate exponent vector {list(exp)}")
            terms[exp] = parse_coefficient(entry["coeff"])
        return cls(n, terms)

    @classmethod
    def loads(cls, text: str) -> "Polynomial":
        return cls.from_json_dict(json.loads(text))


def parse_coefficient(raw):
    """Parse a serialized coefficient: "m/q" (q a power of two) or a number."""
    if isinstance(raw, str):
        if "/" in raw:
            num, den = raw.split("/", 1)
            den = int(den)
            if den <= 0 or den & (den - 1):
                raise ValueError(f"denominator {den} is not a power of two")
            return Dyadic(int(num), den.bit_length() - 1)
        return Dyadic(int(raw))
    if isinstance(raw, (int, np.integer)):
        return Dyadic(int(raw))
    if isinstance(raw, (float, np.floating)):
        return float(raw)
    raise ValueError(f"unparseable coefficient {raw!r}")


def evaluate(p: Polynomial, x) -> float:
    """Evaluate p at the point x."""
    return p.evaluate(x)


def dyadic_round(p: Polynomial, delta: float) -> Polynomial:
    """Round p's coefficients to dyadics within per-coefficient error delta."""
    return p.dyadic_round(delta)
