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
import operator

import numpy as np

# Float coefficients below this magnitude are pruned (subnormal guard).
FLOAT_ZERO_TOL = 1e-300

# evaluate_grid works through the points in blocks of this many rows, so
# its temporary design matrix stays bounded whatever the grid size.
GRID_BLOCK_ROWS = 2048

# Kernel thresholds: all-float products of MUL_ARRAY_PAIRS term pairs or more
# run on numpy; evaluate and phi_norm loop in Python up to EVAL_LOOP_TERMS terms.
MUL_ARRAY_PAIRS = 64
EVAL_LOOP_TERMS = 16

# Operands that a Dyadic meets as float(self); others get NotImplemented.
_FLOATS = (float, np.floating, np.integer)


def _comparison(op):
    """A Dyadic comparison: op on integers over a common denominator, or on
    0 and an infinite or NaN float, which every finite value orders like."""
    def compare(self, other):
        if isinstance(other, (int, np.integer)):
            other = Dyadic(int(other))
        elif isinstance(other, _FLOATS):
            other = float(other)
            if not math.isfinite(other):
                return op(0, other)
            other = Dyadic.from_float(other)
        if not isinstance(other, Dyadic):
            return NotImplemented
        return op(self.m << other.k, other.m << self.k)
    return compare


class Dyadic:
    """Exact dyadic rational m / 2**k, stored in lowest terms (m odd or k == 0)."""

    __slots__ = ("m", "k")

    def __init__(self, m: int, k: int = 0):
        if k < 0:
            raise ValueError(f"dyadic exponent k must be nonnegative, got {k}")
        m = int(m)
        k = int(k)
        tz = min((m & -m).bit_length() - 1, k) if m else k  # trailing zero bits, at most k
        self.m = m >> tz
        self.k = k - tz

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
            return Dyadic((self.m << (k - self.k)) + (other.m << (k - other.k)), k)
        return float(self) + other if isinstance(other, _FLOATS) else NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.m, self.k)

    def __sub__(self, other):
        if isinstance(other, (Dyadic, int)):
            return self + -other
        return self + -float(other) if isinstance(other, _FLOATS) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Dyadic(other)
        if isinstance(other, Dyadic):
            return Dyadic(self.m * other.m, self.k + other.k)
        return float(self) * other if isinstance(other, _FLOATS) else NotImplemented

    __rmul__ = __mul__

    def __pow__(self, p: int):
        if p < 0:
            raise ValueError(f"dyadic power must be nonnegative, got {p}")
        return Dyadic(self.m**p, self.k * p)

    def __abs__(self):
        return Dyadic(abs(self.m), self.k)

    def __float__(self):
        return self.m / (1 << self.k)

    # Each order is its own: one derived from the others misorders NaN.
    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __hash__(self):
        return hash((self.m, self.k))

    def __repr__(self):
        return f"Dyadic({self.m}, {self.k})"

    def __str__(self):
        if self.k == 0:
            return str(self.m)
        return f"{self.m}/{1 << self.k}"


def design_matrix(points, exps, box=None) -> np.ndarray:
    """Tensor-basis design matrix of an (N, n) point array: entry [j, k] is
    prod_i B_i(exps[k][i], points[j][i]), as an (N, len(exps)) float array.

    With no box, B_i(e, x) = x**e: the monomial design.  With a box of
    (lo, hi) sides, B_i(e, x) = T_e((2x - lo - hi) / (hi - lo)), the
    Chebyshev polynomial of the first kind on side i mapped to [-1, 1];
    a side with hi == lo keeps x**e.  Each variable's table
    B_i(0..max_e, x_i) is built by recurrence (x**e = x * x**(e-1), or
    T_e = 2t * T_(e-1) - T_(e-2)); numpy's ``**`` is many times slower on
    negative bases.  Rows of the first table are gathered once and the
    others multiplied into them in place, so no second (len(exps), N)
    temporary exists.  The result is the transpose of a C-ordered
    (len(exps), N) array.
    """
    points = np.asarray(points, dtype=float)
    exps = np.asarray(exps, dtype=np.intp).reshape(len(exps), points.shape[1])
    sides = [(0.0, 0.0)] * points.shape[1] if box is None else box
    out = None
    for x, col, (lo, hi) in zip(points.T, exps.T, sides):
        top = int(col.max(initial=0))
        if top == 0:
            continue
        table = np.empty((top + 1, points.shape[0]))
        table[0] = 1.0
        if hi == lo:
            for e in range(1, top + 1):
                np.multiply(table[e - 1], x, out=table[e])
        else:
            table[1] = (2 * x - lo - hi) / (hi - lo)
            t2 = 2 * table[1]
            for e in range(2, top + 1):
                np.multiply(table[e - 1], t2, out=table[e])
                table[e] -= table[e - 2]
        if out is None:
            out = table[col]
        else:
            for row, e in zip(out, col.tolist()):
                row *= table[e]
    if out is None:
        out = np.ones((exps.shape[0], points.shape[0]))
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


# Scalars that ring operations accept; + and - promote them to a constant polynomial.
_SCALARS = (int, float, Dyadic, np.integer, np.floating)


def _as_coeff(c):
    """Normalize a scalar into a coefficient: int -> Dyadic, float stays float."""
    if isinstance(c, np.floating):  # np.float64 is a float too
        return float(c)
    if isinstance(c, (Dyadic, float)):
        return c
    if isinstance(c, (int, np.integer)):
        return Dyadic(int(c))
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class Polynomial:
    """Sparse polynomial in n variables: exponent tuple -> coefficient.

    Invariants: no stored zero coefficients, every exponent tuple has
    length n, term iteration follows graded lex order.
    """

    __slots__ = ("n", "terms", "demoted", "_arrays")

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
        self.n, self.demoted, self._arrays = n, bool(demoted), None
        self.terms = dict(sorted(clean.items(), key=lambda kv: grlex_key(kv[0])))

    @classmethod
    def _ring_result(cls, n: int, terms: dict, demoted: bool, ordered: bool) -> "Polynomial":
        """Unvalidated constructor for results built from valid terms: prunes
        zeros and sorts, unless the terms are in grlex order already."""
        p = object.__new__(cls)
        p.n, p.demoted, p._arrays = n, demoted, None
        p.terms = {e: c for e, c in terms.items() if not _is_zero_coeff(c)}
        if not ordered:
            p.terms = dict(sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0])))
        return p

    # -- constructors --

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        return cls._ring_result(n, {(0,) * n: _as_coeff(c)}, False, ordered=True)

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        exp = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {exp: Dyadic(1)})

    # -- basic queries --

    def degree(self) -> int:
        return sum(next(reversed(self.terms), ()))  # grlex: the last term has top degree

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Dyadic) for c in self.terms.values())

    def _check_dim(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(
                f"variable count mismatch: {self.n} vs {other.n}"
            )

    # -- ring operations --

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(self.n, other)
        self._check_dim(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            prev = terms.get(exp)
            terms[exp] = c if prev is None else prev + c
        demoted = self.demoted or other.demoted or any(
            isinstance(self.terms[exp], Dyadic) != isinstance(other.terms[exp], Dyadic)
            for exp in self.terms.keys() & other.terms.keys())
        # other's new terms follow self's, in grlex order: sorted if the first comes last
        new = next((exp for exp in other.terms if exp not in self.terms), None)
        return Polynomial._ring_result(self.n, terms, demoted, ordered=new is None or (
            not self.terms or grlex_key(new) > grlex_key(next(reversed(self.terms)))))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._ring_result(
            self.n, {e: -c for e, c in self.terms.items()}, self.demoted, ordered=True)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):  # c * s per term, as a constant factor gives
            s = _as_coeff(other)
            terms = {} if _is_zero_coeff(s) else {e: c * s for e, c in self.terms.items()}
            mixed = bool(terms) and any(isinstance(c, Dyadic) != isinstance(s, Dyadic)
                                        for c in self.terms.values())
            return Polynomial._ring_result(self.n, terms, self.demoted or mixed, ordered=True)
        self._check_dim(other)
        kinds = {isinstance(c, Dyadic) for c in (*self.terms.values(), *other.terms.values())}
        exact = False not in kinds
        # Two kernels, one result: all-float operands of MUL_ARRAY_PAIRS pairs or more
        # run _dense_mul; Dyadic, mixed, small and sparse products run this loop.
        if (kinds == {False} and len(self.terms) * len(other.terms) >= MUL_ARRAY_PAIRS
                and (product := self._dense_mul(other)) is not None):
            return product
        # Packed key: exponent digits in base 2**bits > degree, first variable
        # most significant, minus degree * 2**(n*bits); adding keys adds the
        # exponents and descending keys are grlex order.  An all-dyadic
        # operand has one scale K = max k: m / 2**k is the int m << (K - k).
        bits = (self.degree() + other.degree()).bit_length() or 1
        shifts = range((self.n - 1) * bits, -1, -bits)
        weights = [(1 << s) - (1 << self.n * bits) for s in shifts]
        scales = [max((c.k for c in p.terms.values()), default=0) if exact else 0
                  for p in (self, other)]
        a, b = ([(sum(map(operator.mul, exp, weights)), c.m << (scale - c.k) if exact else c)
                 for exp, c in p.terms.items()] for p, scale in zip((self, other), scales))
        acc = {}
        for x, u in a:  # (i, j) order fixes each float sum's order, so its rounding
            for y, v in b:
                key = x + y
                if key in acc:
                    acc[key] += u * v
                else:
                    acc[key] = u * v
        mask = (1 << bits) - 1
        terms = {tuple([(key >> s) & mask for s in shifts]):
                 Dyadic(acc[key], sum(scales)) if exact else acc[key]
                 for key in sorted(acc, reverse=True)}
        # Every product has one kind unless some pair mixes a Dyadic with a
        # float, so only such a pair can demote, in a product or a sum.
        mixed = bool(self.terms) and bool(other.terms) and len(kinds) == 2
        return Polynomial._ring_result(
            self.n, terms, self.demoted or other.demoted or mixed, ordered=True)

    __rmul__ = __mul__

    def _dense_mul(self, other):
        """The all-float product, or None if the exponent box has more cells than pairs:
        np.add.at adds each u*v in the loop's (i, j) order into a mixed-radix array."""
        (ea, ca, ta), (eb, cb, tb) = self._eval_arrays(), other._eval_arrays()
        radix = [x + y + 1 for x, y in zip(ta, tb)]
        if math.prod(radix) > len(ca) * len(cb):
            return None
        ka, kb = (np.ravel_multi_index(tuple(e.T), radix) for e in (ea, eb))
        acc, rows = np.zeros(math.prod(radix)), max(1, (1 << 18) // len(cb))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(ca), rows):
                np.add.at(acc, (ka[i:i + rows, None] + kb).ravel(),
                          (ca[i:i + rows, None] * cb).ravel())
            keep = np.flatnonzero(~(np.abs(acc) < FLOAT_ZERO_TOL))  # keeps NaN
        cols = np.unravel_index(keep, radix)
        order = np.lexsort((-keep, sum(cols)))  # grlex: degree up, then index down
        exps, coeffs = np.array(cols).T[order], acc[keep[order]]
        p = Polynomial._ring_result(self.n, {}, self.demoted or other.demoted, ordered=True)
        p.terms = dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))  # pruned, in order
        p._arrays = exps, coeffs, exps.max(axis=0, initial=0).tolist()
        return p

    def __pow__(self, p: int):
        """By squaring.  The first factor taken stands for constant(1) * factor:
        its terms, demoted (as that product is) where it holds a float."""
        if p < 0:
            raise ValueError(f"polynomial power must be nonnegative, got {p}")
        result, base = None, self
        while p:
            if p & 1:
                result = result * base if result is not None else Polynomial._ring_result(
                    self.n, base.terms, base.demoted or not base.is_exact, ordered=True)
            p >>= 1
            if p:
                base = base * base
        return Polynomial.constant(self.n, 1) if result is None else result

    # -- evaluation --

    def __call__(self, x):
        return self.evaluate(x)

    def _eval_arrays(self):
        """(exponent matrix, float coefficients, top exponent per variable),
        built once: the polynomial is immutable."""
        if self._arrays is None:
            exps = np.array(list(self.terms), dtype=np.intp).reshape(len(self.terms), self.n)
            coeffs = np.array([float(c) for c in self.terms.values()])
            self._arrays = exps, coeffs, exps.max(axis=0, initial=0).tolist()
        return self._arrays

    def evaluate(self, x) -> float:
        """Evaluate at a real point; a ring homomorphism R -> R.

        c * x1**e1 * ... * xn**en per term, summed from 0.0 in term order; powers
        are float ** int, which raise OverflowError.  A loop up to EVAL_LOOP_TERMS
        terms and _evaluate_at above: same bits."""
        if len(x) != self.n:
            raise ValueError(f"point has dimension {len(x)}, polynomial has {self.n}")
        if len(self.terms) <= EVAL_LOOP_TERMS:
            total = 0.0
            for exp, c in self.terms.items():
                v = float(c)
                for xi, e in zip(x, exp):
                    v *= float(xi) ** e
                total += v
            return total
        return self._evaluate_at([x])[0]

    def _evaluate_at(self, points) -> list:
        """[self.evaluate(x) for x in points], bit for bit: power tables by float ** int,
        products in variable order, one sequential row-wise np.cumsum."""
        if len(self.terms) <= EVAL_LOOP_TERMS:  # the loop is faster here, as in evaluate
            return [self.evaluate(x) for x in points]
        if (dim := next((len(x) for x in points if len(x) != self.n), None)) is not None:
            raise ValueError(f"point has dimension {dim}, polynomial has {self.n}")
        exps, vals, tops = self._eval_arrays()
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (col, top) in enumerate(zip(exps.T, tops)):
                vals = vals * np.array([[float(x[i]) ** e for e in range(top + 1)]
                                        for x in points]).reshape(len(points), top + 1)[:, col]
            # + 0.0 acts as a 0.0 start would: a sum of -0.0s becomes 0.0
            return (vals.cumsum(1)[:, -1] + 0.0).tolist()

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
                v = v * Dyadic.from_float(xi) ** e
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
        exps, coeffs, _ = self._eval_arrays()
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], GRID_BLOCK_ROWS):
            block = points[start:start + GRID_BLOCK_ROWS]
            out[start:start + block.shape[0]] = design_matrix(block, exps) @ coeffs
        return out

    # -- coefficient-mode conversions --

    def to_exact(self) -> "Polynomial":
        """Exact float->dyadic conversion of every coefficient (lossless)."""
        return Polynomial(self.n, {e: Dyadic.from_float(c) for e, c in self.terms.items()})

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
        return (self.n == other.n and self.terms.keys() == other.terms.keys()
                and all(isinstance(c, Dyadic) == isinstance(other.terms[e], Dyadic)
                        and c == other.terms[e] for e, c in self.terms.items()))

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
        return cls(_wire_int(data["n"], "variable count n"),
                   _wire_entries(data.get("terms", []), "coeff", parse_coefficient))

    @classmethod
    def loads(cls, text: str) -> "Polynomial":
        return cls.from_json_dict(json.loads(text))


def _wire_int(raw, what: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {raw!r}")
    return int(raw)


def _wire_real(raw, what: str = "value") -> float:
    """A finite JSON number as a float; booleans and strings are rejected."""
    if (isinstance(raw, bool) or not isinstance(raw, (int, *_FLOATS))
            or not math.isfinite(raw)):
        raise ValueError(f"{what} must be a finite number, got {raw!r}")
    return float(raw)


def _wire_entries(entries, key: str, parse) -> dict:
    """The map exponent tuple -> parse(entry[key]) of a list of
    {"exp": [...], key: ...} entries; a repeated exponent is an error."""
    out = {}
    for entry in entries:
        exp = tuple(_wire_int(e, "exponent") for e in entry["exp"])
        if exp in out:
            raise ValueError(f"duplicate exponent vector {list(exp)}")
        out[exp] = parse(entry[key])
    return out


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
    if isinstance(raw, (int, np.integer)) and not isinstance(raw, bool):
        return Dyadic(int(raw))
    if isinstance(raw, (float, np.floating)):
        return _wire_real(raw, "coefficient")
    raise ValueError(f"unparseable coefficient {raw!r}")


def evaluate(p: Polynomial, x) -> float:
    """Evaluate p at the point x."""
    return p.evaluate(x)


def dyadic_round(p: Polynomial, delta: float) -> Polynomial:
    """Round p's coefficients to dyadics within per-coefficient error delta."""
    return p.dyadic_round(delta)
