"""Exact arithmetic over finite fields GF(p^e) plus small prime utilities.

Field elements are plain ints in ``[0, q)``.  For an extension field the
int encodes the element's coefficient vector over GF(p) in base p::

    a = c0 + c1*p + ... + c_{e-1}*p**(e-1)

so 0 and 1 are the additive and multiplicative identities in every field,
and sorting ints gives the canonical element order used for codeword
indexing throughout the package (0 first, 1 second, then the rest).

A proper extension field multiplies, scalar and vectorised alike, through
one log/antilog table pair built on first use (`Field._tables`), with no
test for zero; a prime field multiplies mod p.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

MAX_FIELD_SIZE = 1 << 16


class CapacityError(ValueError):
    """A desk-scale size guard was exceeded."""


def check_field_size(q: int) -> None:
    """Refuse a field order above the cap before anything factors it."""
    if q > MAX_FIELD_SIZE:
        raise CapacityError(f"field size {q} exceeds cap {MAX_FIELD_SIZE}")


def is_prime(n: int) -> bool:
    """Primality by trial division; fine for the sizes this package allows."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def smallest_prime_above(bound: int) -> int:
    """The least prime strictly greater than ``bound``."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = bound + 1
    while not is_prime(n):
        n += 1
    return n


# ---------------------------------------------------------------------------
# polynomials over GF(p), used only for modulus bookkeeping
# coefficient tuples, lowest power first
# ---------------------------------------------------------------------------

def _poly_mod(num: tuple, den: tuple, p: int) -> tuple:
    # den is monic
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j, dc in enumerate(den):
                rem[i - dd + j] = (rem[i - dd + j] - c * dc) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def _is_irreducible(coeffs: tuple, p: int) -> bool:
    """Brute-force factor search: no monic factor of degree 1..deg/2."""
    deg = len(coeffs) - 1
    if coeffs[0] == 0:
        return deg == 1  # divisible by x
    for f in range(1, deg // 2 + 1):
        for enc in range(p ** f):
            low, n = [], enc
            for _ in range(f):
                low.append(n % p)
                n //= p
            if not _poly_mod(coeffs, tuple(low) + (1,), p):
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple:
    # smallest by integer encoding of the lower coefficients; matches the
    # element order convention above
    for enc in range(p ** e):
        low, n = [], enc
        for _ in range(e):
            low.append(n % p)
            n //= p
        cand = tuple(low) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {e} over GF({p})")


class Field:
    """GF(p^e) with an explicit monic irreducible modulus.

    Parameters
    ----------
    characteristic : prime p, certified by trial division.
    extension_degree : e >= 1.
    modulus : optional coefficient list of length e+1, lowest power first,
        monic and irreducible (certified by brute-force factor search).
        Defaults to the irreducible of degree e with the smallest integer
        encoding, so element representations are stable across runs.
        Degree-1 fields use the identity modulus (0, 1).

    All operations are pure functions on ints, and instances are safe for
    unrestricted concurrent use: the log tables are derived state, built
    on first use, and building them again gives identical tables.
    """

    def __init__(self, characteristic: int, extension_degree: int = 1,
                 modulus=None):
        p, e = characteristic, extension_degree
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension_degree must be >= 1")
        q = p ** e
        check_field_size(q)
        if modulus is None:
            modulus = (0, 1) if e == 1 else _smallest_irreducible(p, e)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree extension_degree")
            if e == 1:
                if modulus != (0, 1):
                    raise ValueError("degree-1 fields use the identity modulus (0, 1)")
            elif not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus

    @classmethod
    def from_order(cls, q: int, modulus=None) -> "Field":
        """GF(q) for a prime power q, built once per (q, modulus); the
        size cap is checked before q is factored, since trial division up
        to a large prime never ends."""
        check_field_size(q)
        return _field_of_order(q, None if modulus is None else tuple(modulus))

    # -- element codec ------------------------------------------------------

    def coeffs(self, a: int) -> tuple:
        """Coefficient vector of ``a`` over GF(p), length e, lowest power first."""
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of {self!r}")
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        cs = tuple(cs)
        if len(cs) != self.e or any(not 0 <= c < self.p for c in cs):
            raise ValueError(f"bad coefficient vector {cs} for {self!r}")
        a = 0
        for c in reversed(cs):
            a = a * self.p + c
        return a

    def from_int(self, n: int) -> int:
        """Embed an integer through the prime subfield."""
        return n % self.p

    def elements(self) -> list:
        """All q elements in canonical order: 0, 1, then the rest."""
        return list(range(self.q))

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        p, out, shift = self.p, 0, 1
        for _ in range(self.e):
            out += (a % p + b % p) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        p, out, shift = self.p, 0, 1
        for _ in range(self.e):
            out += -a % p * shift
            a //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        # the polynomial product mod the modulus, which builds the tables
        p = self.p
        da = self.coeffs(a)
        db = self.coeffs(b)
        prod = [0] * (2 * self.e - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        rem = _poly_mod(tuple(prod), self.modulus, p)
        return sum(c * p ** i for i, c in enumerate(rem))

    @cached_property
    def _tables(self):
        """(log, antilog) lists over the first primitive element g:
        ``log[0] = 2(q - 1)``, and ``antilog`` is g^0 .. g^(2q - 3), then
        zeros up to index 4(q - 1), so ``antilog[log[a] + log[b]]`` is a*b."""
        q = self.q
        # g is primitive when no g^((q - 1) / r), r a prime factor of q - 1,
        # is 1; only the first such g has its powers built
        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        g = next(g for g in range(2, q)
                 if all(self._pow_raw(g, c) != 1 for c in cofactors))
        antilog = self._powers(g)
        log = [2 * (q - 1)] * q
        for i, x in enumerate(antilog):
            log[x] = i
        return log, antilog * 2 + [0] * (2 * q - 1)

    def _pow_raw(self, a: int, n: int) -> int:
        # a^n by squaring through `_mul_raw`, before the tables exist
        out = 1
        while n:
            if n & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return out

    def _powers(self, g) -> list:
        """g^0, g^1, ... up to the power before 1 comes back.  Only the e
        products x^i * g go through `_mul_raw`: a power times g is their
        sum weighted by its digits, an XOR of some of them for p = 2."""
        p, e = self.p, self.e
        images = [self._mul_raw(p ** i, g) for i in range(e)]
        powers, x = [1], g
        if p == 2:
            while x != 1:
                powers.append(x)
                y, i = 0, 0
                while x:
                    if x & 1:
                        y ^= images[i]
                    x >>= 1
                    i += 1
                x = y
            return powers
        rows = [self.coeffs(a) for a in images]
        place = [p ** t for t in range(e)]
        while x != 1:
            powers.append(x)
            sums = [0] * e
            for row in rows:
                x, c = divmod(x, p)
                if c:
                    for t in range(e):
                        sums[t] += c * row[t]
            x = sum(v % p * w for v, w in zip(sums, place))
        return powers

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        log, antilog = self._tables
        return antilog[log[a] + log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        log, antilog = self._tables
        return antilog[self.q - 1 - log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        if self.e == 1:
            return pow(a, n, self.p)
        if a == 0:
            return 1 if n == 0 else 0
        log, antilog = self._tables
        return antilog[log[a] * n % (self.q - 1)]

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"Field({self.p})"
        return f"Field({self.p}, {self.e}, modulus={list(self.modulus)})"


@lru_cache(maxsize=None)
def _field_of_order(q: int, modulus) -> Field:
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while q % p:
        p += 1
    e, n = 0, q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return Field(p, e, modulus)


# ---------------------------------------------------------------------------
# vectorised products over numpy int arrays of field elements
# ---------------------------------------------------------------------------

class _LazyNumpy:
    """numpy, imported on first attribute access.  Every module takes
    ``np`` from here, so a process that serves only array codes (Python
    ints and bitmasks throughout) never loads it."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)  # later accesses skip this method
        return value


np = _LazyNumpy()


def narrow(field: Field, a) -> np.ndarray:
    """An array of elements in the narrowest unsigned type that holds
    them, for matrices kept for the life of the process.  The array is
    read-only: cached matrices are shared by every caller."""
    out = np.asarray(a).astype(np.uint8 if field.q <= 256 else np.uint16)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _log_tables(field: Field):
    """The field's (log, antilog) tables as int64 arrays."""
    return tuple(np.array(t, dtype=np.int64) for t in field._tables)


def multiply(field: Field, a, b) -> np.ndarray:
    """Entry-by-entry product of int arrays of elements, broadcasting as
    numpy does; an extension field reads its log and antilog tables."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if field.e == 1:
        return a * b % field.p
    log, antilog = _log_tables(field)
    return antilog[log[a] + log[b]]


def add(field: Field, a, b) -> np.ndarray:
    """Entry-by-entry sum of int arrays of elements, broadcasting as numpy
    does: an XOR for p = 2, otherwise digit by digit mod p (a prime
    field's elements have one digit)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    p = field.p
    if p == 2:
        return a ^ b
    if field.e == 1:
        out = a + b
        out %= p
        return out
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    place = 1
    for _ in range(field.e):
        # a // place is digit i of a plus a multiple of p
        out += (a // place + b // place) % p * place
        place *= p
    return out


# entries of the largest product block that `matmul` forms at once over an
# extension field
_BLOCK = 1 << 16


def matmul(field: Field, a, b) -> np.ndarray:
    """a @ b over the field for int arrays of elements, with numpy's shape
    rules: each of a and b a vector, a matrix or a stack of matrices
    broadcast over its leading axes; on lists it equals `linalg.matvec`
    and `linalg.matmul`.  Operands are field elements, ints in [0, p);
    the result is an int64 array of elements.

    Prime fields multiply in floating point, which numpy hands to BLAS:
    every partial sum is an integer of at most bound = (p - 1)^2 * inner,
    for the inner (contracted) dimension, so the product is exact in
    float32 while the bound is below 2^24 and in float64 while it is
    below 2^53, which every inner dimension up to the codeword length cap
    meets; only a larger bound takes an int64 product.  The result is
    reduced mod p after its conversion to int64, where `%` is several
    times faster than on floats.

    Extension fields form the entry products through `multiply` and add
    them up: all at once when the products number at most `_BLOCK`, which
    keeps small products such as witness checks to a few numpy calls,
    else one inner index at a time into the output, so no temporary
    outgrows the output.
    """
    if field.e == 1:
        a = np.asarray(a)
        bound = (field.p - 1) ** 2 * a.shape[-1]
        dt = (np.float32 if bound < 1 << 24 else
              np.float64 if bound < 1 << 53 else np.int64)
        out = (np.asarray(a, dtype=dt) @ np.asarray(b, dtype=dt)).astype(np.int64)
        out %= field.p
        return out
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    # a vector is a one-row (a) or one-column (b) matrix, dropped at the end
    aa = a[None] if a.ndim == 1 else a
    bb = b[:, None] if b.ndim == 1 else b
    shape = aa.shape[-2:-1] + bb.shape[-1:]
    if aa.ndim > 2 or bb.ndim > 2:  # a stack
        shape = np.broadcast_shapes(aa.shape[:-2], bb.shape[:-2]) + shape
    if math.prod(shape) * aa.shape[-1] <= _BLOCK:
        # (..., rows, inner, columns)
        prod = multiply(field, aa[..., None], bb[..., None, :, :])
        if field.p == 2:
            out = np.bitwise_xor.reduce(prod, axis=-2)
        else:
            p, out, place = field.p, 0, 1
            for _ in range(field.e):
                out = out + (prod // place % p).sum(axis=-2) % p * place
                place *= p
    else:
        out = np.zeros(shape, dtype=np.int64)
        for k in range(aa.shape[-1]):
            prod = multiply(field, aa[..., k, None], bb[..., None, k, :])
            if field.p == 2:
                out ^= prod
            else:
                out = add(field, out, prod)
    if a.ndim == 1:
        out = out[..., 0, :]
    return out[..., 0] if b.ndim == 1 else out
