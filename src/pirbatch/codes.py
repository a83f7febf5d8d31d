"""Code descriptors: the JSON objects that name a code family and its
parameters, the two transforms the paper adds to its constructions
(binary expansion and replication), and the runtime adapters that give
every family one surface for encode, recover and certify.

A descriptor arrives from outside the program, so `build_runtime` checks
each field's type and the code's length before it builds anything whose
size scales with them.
"""

from __future__ import annotations

from fractions import Fraction

from . import array_code, batch_mult, multiplicity, pir
from .gf import CapacityError, Field, check_field_size, np

# Longest codeword, in base-field coordinates, a descriptor may describe.
MAX_LENGTH = 10 ** 6

# descriptor fields per family: int, list (of ints), bool or dict (a
# nested descriptor); the optional ones may be absent or null
_FIELDS = {
    "multiplicity": {"m": int, "d": int, "s": int, "q": int, "modulus": list},
    "array": {"r": int, "p": int, "S": list, "global_parity": bool},
    "binary-expansion": {"base": dict},
    "replication": {"copies": int, "base": dict},
}
_OPTIONAL = ("modulus", "global_parity")


class _Shifted:
    """A codeword read at every position plus an offset: one replica of a
    replicated codeword, without copying it."""

    __slots__ = ("codeword", "offset")

    def __init__(self, codeword, offset):
        self.codeword = codeword
        self.offset = offset

    def __getitem__(self, j):
        return self.codeword[j + self.offset]


class _Packed:
    """A bit-level codeword read as base-field symbols, each from its
    extension-degree bits, one position at a time."""

    __slots__ = ("codeword", "field")

    def __init__(self, codeword, field):
        self.codeword = codeword
        self.field = field

    def __getitem__(self, j):
        e = self.field.e
        return self.field.from_coeffs([self.codeword[j * e + b] for b in range(e)])


class _Symbols:
    """A flat base-field codeword read as one symbol per point: the
    point-keyed mapping `pir.recover_symbol` gathers from.  ``slots``
    maps each point to the range of its symbol's flat positions."""

    __slots__ = ("codeword", "slots")

    def __init__(self, codeword, slots):
        self.codeword = codeword
        self.slots = slots

    def __getitem__(self, w):
        cw = self.codeword
        return [cw[j] for j in self.slots[w]]


class MultiplicityRuntime:
    family = "multiplicity"

    def __init__(self, params):
        self.params = params
        self.field = params.field
        self.view = multiplicity.systematic_view(params)
        self.n = params.base_dim
        self.N = params.base_length
        self.k = params.k_pir
        self.info_positions = list(self.view.info_positions)
        self._plans = {}
        self._slots = multiplicity.symbol_slots(params)

    def encode(self, message):
        return multiplicity.systematic_encode(self.view, message).base_values()

    def _expand_points(self, points):
        slots = self._slots
        return frozenset(j for w in points for j in slots[w])

    def _plans_for(self, i):
        """(the plans recovering information symbol i, the component of
        its point's symbol that it is)."""
        if i not in self._plans:
            point, component = divmod(self.info_positions[i], self.params.symbol_width)
            w0 = multiplicity.code_points(self.params)[point]
            self._plans[i] = pir.pir_recovery_plans(self.params, w0), component
        return self._plans[i]

    def recovering_sets(self, i):
        return [self._expand_points(p.coordinates) for p in self._plans_for(i)[0]]

    def recover_info(self, codeword, i, set_index):
        plans, component = self._plans_for(i)
        return pir.recover_symbol(_Symbols(codeword, self._slots),
                                  plans[set_index])[component]

    # batch targets are symbol positions (points), identified by index
    def batch_targets(self):
        return list(range(self.params.num_points))

    def positions_of(self, point_index):
        width = self.params.symbol_width
        return [point_index * width + c for c in range(width)]

    def batch_planner(self, k):
        bp = batch_mult.validate_batch_params(self.params, k)
        points = multiplicity.code_points(self.params)

        def plan(request):
            batch = batch_mult.plan_batch(bp, [points[t] for t in request])
            return [self._expand_points(p.coordinates) for p in batch.plans]

        return plan

    def profile(self):
        prof = multiplicity.code_profile(self.params)
        return {
            "family": self.family, "n": self.n, "N": self.N, "k": self.k,
            "redundancy": self.N - self.n, "rate": str(prof["rate"]),
            "symbols": prof["N"], "symbol_width": self.params.symbol_width,
            "dim_symbols": str(prof["n"]), "alphabet_size": prof["Q"],
            "distance_bound": str(prof["distance_bound"]),
        }


class ArrayRuntime:
    family = "array"

    def __init__(self, params):
        self.params = params
        self.field = Field(2)
        self.n = params.dim
        self.N = params.length
        self.k = params.k
        self.info_positions = list(range(self.n))
        self._sets = {}  # message index -> its recovering sets

    def encode(self, message):
        return array_code.encode_array(self.params, message).codeword()

    def _cell(self, i):
        return divmod(i, self.params.cols)

    def recovering_sets(self, i):
        sets = self._sets.get(i)
        if sets is None:
            sets = self._sets[i] = tuple(
                array_code.pir_sets_for_bit(self.params, self._cell(i)))
        return sets

    def recover_info(self, codeword, i, set_index):
        return array_code.recover_bit(codeword, self.recovering_sets(i)[set_index])

    def batch_targets(self):
        return list(range(self.n))

    positions_of = None  # batch targets are message indices

    def batch_planner(self, k):
        if self.params.global_parity and self.params.slopes == (0, 1, 2, 3, 4):
            if k != 5:
                raise ValueError("the global-parity construction serves k = 5")
            planner = array_code.plan_five_batch
        else:
            if k > self.k:
                raise ValueError(f"at most {self.k} parallel requests")
            planner = array_code.plan_array_batch

        def plan(request):
            return planner(self.params, [self._cell(t) for t in request])

        return plan

    def profile(self):
        return {
            "family": self.family, "n": self.n, "N": self.N, "k": self.k,
            "redundancy": self.params.redundancy, "rate": str(self.params.rate),
            "rows": self.params.rows, "cols": self.params.cols,
            "slopes": list(self.params.slopes),
            "global_parity": self.params.global_parity,
        }


class ExpandedRuntime:
    """Bit-level view of a characteristic-2 code: every base coordinate
    becomes extension-degree bits, and recovering sets expand coordinate
    by coordinate (recovery maps are linear over GF(2))."""

    family = "binary-expansion"

    def __init__(self, base):
        if base.field.p != 2 or base.field.e == 1:
            raise ValueError("expansion needs a proper extension of GF(2)")
        self.base = base
        self.bits = base.field.e
        self.field = Field(2)
        self.n = base.n * self.bits
        self.N = _check_length(base.N * self.bits)
        self.k = base.k
        self.info_positions = [p * self.bits + b for p in base.info_positions
                               for b in range(self.bits)]

    def encode(self, message):
        bits = np.asarray(message, dtype=np.int64)
        if bits.shape != (self.n,) or not np.isin(bits, (0, 1)).all():
            raise ValueError(f"expected {self.n} message bits")
        # an element's bits are its coefficients, lowest power first
        place = np.arange(self.bits)
        base_msg = (bits.reshape(self.base.n, self.bits) << place).sum(axis=1)
        symbols = np.asarray(self.base.encode(base_msg.tolist()))
        return (symbols[:, None] >> place & 1).ravel().tolist()

    def _expand(self, coords):
        return frozenset(j * self.bits + b for j in coords for b in range(self.bits))

    def recovering_sets(self, i):
        return [self._expand(s) for s in self.base.recovering_sets(i // self.bits)]

    def recover_info(self, codeword, i, set_index):
        base_i, bit = divmod(i, self.bits)
        fld = self.base.field
        symbol = self.base.recover_info(_Packed(codeword, fld), base_i, set_index)
        return fld.coeffs(symbol)[bit]

    def profile(self):
        return {"family": self.family, "n": self.n, "N": self.N, "k": self.k,
                "redundancy": self.N - self.n, "bits_per_symbol": self.bits,
                "rate": str(Fraction(self.n, self.N)),
                "base": self.base.profile()}


class ReplicatedRuntime:
    """One message served through several full codeword replicas; each
    replica contributes its own batch of disjoint recovering sets."""

    family = "replication"

    def __init__(self, base, copies):
        if copies < 1:
            raise ValueError("copies must be >= 1")
        self.base = base
        self.copies = copies
        self.field = base.field
        self.n = base.n
        self.N = _check_length(base.N * copies)
        self.k = base.k * copies
        self.info_positions = list(base.info_positions)

    def encode(self, message):
        one = self.base.encode(message)
        return list(one) * self.copies

    def recovering_sets(self, i):
        out = []
        for c in range(self.copies):
            off = c * self.base.N
            out.extend(frozenset(j + off for j in s)
                       for s in self.base.recovering_sets(i))
        return out

    def recover_info(self, codeword, i, set_index):
        c, base_idx = divmod(set_index, self.base.k)
        return self.base.recover_info(_Shifted(codeword, c * self.base.N), i, base_idx)

    def profile(self):
        return {"family": self.family, "n": self.n, "N": self.N, "k": self.k,
                "redundancy": self.N - self.n, "copies": self.copies,
                "rate": str(Fraction(self.n, self.N)),
                "base": self.base.profile()}


def _check_length(N: int) -> int:
    if N > MAX_LENGTH:
        raise CapacityError(f"code length {N} exceeds the cap {MAX_LENGTH}")
    return N


def _check_fields(descriptor) -> str:
    """The descriptor's family, after every field it needs has been found
    with the right type."""
    if not isinstance(descriptor, dict):
        raise ValueError(f"a code descriptor must be an object, got {descriptor!r}")
    family = descriptor.get("family")
    if family not in _FIELDS:
        raise ValueError(f"unknown code family {family!r}")
    for key, kind in _FIELDS[family].items():
        value = descriptor.get(key)
        if value is None and key in _OPTIONAL:
            continue
        if kind is list:
            ok = isinstance(value, list) and all(type(x) is int for x in value)
        else:
            ok = type(value) is kind
        if not ok:
            what = "a list of ints" if kind is list else f"of type {kind.__name__}"
            raise ValueError(
                f"{family} descriptor field {key!r} must be {what}, got {value!r}")
    return family


def build_runtime(descriptor: dict):
    """Instantiate the runtime adapter a descriptor names.

    A malformed descriptor raises ValueError; one whose field size or
    codeword length exceeds its cap raises CapacityError before the code
    is built.
    """
    family = _check_fields(descriptor)
    if family == "multiplicity":
        q, s = descriptor["q"], descriptor["s"]
        check_field_size(q)
        # q >= 2, so q^s alone passes the cap once s reaches the cap's bit
        # length; checking s first keeps base_length from a huge power
        if s >= MAX_LENGTH.bit_length():
            raise CapacityError(f"q^s points with s={s} exceed the cap {MAX_LENGTH}")
        params = multiplicity.params_from_descriptor(descriptor)
        _check_length(params.base_length)
        return MultiplicityRuntime(params)
    if family == "array":
        params = array_code.params_from_descriptor(descriptor)
        _check_length(params.length)
        return ArrayRuntime(params)
    base = build_runtime(descriptor["base"])
    if family == "binary-expansion":
        return ExpandedRuntime(base)
    return ReplicatedRuntime(base, descriptor["copies"])


def binary_expand(descriptor: dict) -> dict:
    """Replace every base-field coordinate of a characteristic-2 code by
    its bits.  Every recovering map is linear over the prime subfield, so
    expanded recovering sets recover each bit; with one bit per symbol
    the transform is the identity.
    """
    fld = build_runtime(descriptor).field
    if fld.p != 2:
        raise ValueError(
            "binary expansion is only supported in characteristic 2")
    if fld.e == 1:
        return descriptor
    return {"family": "binary-expansion", "base": descriptor}


def replicate(descriptor: dict, copies: int) -> dict:
    """Serve one message through ``copies`` full codeword replicas; each
    information symbol gains a disjoint batch of recovering sets per
    replica, multiplying availability by ``copies``."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if copies == 1:
        return descriptor
    return {"family": "replication", "copies": copies, "base": descriptor}
