"""Code descriptors, the JSON objects that name a code family and its
parameters or one of the two transforms the paper adds to its
constructions (binary expansion and replication), and `LinearCode`, the
one form of every code they name for encode, recover and certify.

Each recovering set of an information symbol comes with a `Reader`: the
positions it reads and a checked linear map over the code's own field,
whose first row gives the symbol and whose other rows must vanish.
Multiplicity readers are one component of the compiled interpolation
operator of their plan's shape, reading the positions `_plan_positions`
gives for the plan, array readers XOR one diagonal, binary
expansion turns every entry c of a base reader into the GF(2) matrix of
x -> c*x, and replication shifts a base reader into its replica.  A
reader's recovery rows are the witness `verify` checks its set against.
The k readers of a symbol form its `Recovery`, which reads all k sets
of an operator code in one gather and one stacked product through
`pir.read`, the kernel that also serves the batch path's single plans.

Each family and transform builds its code once per parameters (a
transform once per base code), so an equal descriptor names the same
`LinearCode` in every command of a process, and a code builds each
symbol's `Recovery` on first use and keeps it.

A descriptor arrives from outside the program, so `build_runtime` checks
each field's type and the code's length before it builds anything whose
size scales with them.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial

from . import array_code, batch_mult, gf, linalg, multiplicity, pir
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


@dataclass(frozen=True, slots=True)
class Reader:
    """How one recovering set gives one information symbol: the codeword
    positions it reads, in the order of the operator's columns, and a
    `pir.RecoveryOperator` of width 1 over the code's field, or None for
    the XOR of the positions read.  The operator's R rows are the witness
    `verify` checks the set against; an XOR's witness is the XOR of its
    columns over GF(2), and off GF(2) its set is solved."""

    positions: Collection
    operator: pir.RecoveryOperator | None


@dataclass(frozen=True, eq=False)
class Recovery:
    """The k readers of one information symbol.  Operator readers are also
    read all at once: ``index`` is the (k, width) array of the positions
    they read and ``stack`` the (k, rows, width) array of their operator
    matrices, zero-padded where readers differ in shape (a zero column
    adds nothing, a zero row always vanishes).  Both are built on first
    use and kept with the code's recovery; the stack is also shared by
    every symbol whose readers have the same operators.  `recover_all`
    reads a codeword through them, and `verify` certifies the symbol's
    claim from the same two arrays, which `certify --mode pir` hands it
    as the claim."""

    readers: tuple

    @property
    def xor(self) -> bool:
        return self.readers[0].operator is None

    @cached_property
    def index(self) -> np.ndarray:
        out = np.zeros((len(self.readers), max(len(r.positions) for r in self.readers)),
                       dtype=np.intp)
        for s, r in enumerate(self.readers):
            out[s, :len(r.positions)] = r.positions
        return out

    @cached_property
    def stack(self) -> np.ndarray:
        return _stack(tuple(r.operator for r in self.readers))


@lru_cache(maxsize=4096)
def _stack(operators) -> np.ndarray:
    # keyed by the operators' identities: each operator is built once per
    # shape and kept by its own cache
    rows, width = (max(dim) for dim in zip(*(op.matrix.shape for op in operators)))
    out = np.zeros((len(operators), rows, width), dtype=operators[0].matrix.dtype)
    for s, op in enumerate(operators):
        r, c = op.matrix.shape
        out[s, :r, :c] = op.matrix
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True)
class Encoder:
    """A code's encoder.  ``batch`` encodes many messages in one call:
    over GF(2) as column words (entry j of a batch of t messages is one
    t-bit int whose bit r is message r's symbol j, for the n message
    symbols and the N codeword coordinates alike), over other fields as
    a (t, n) int array, one message per row, to a (t, N) one.

    Calling the encoder on one message runs ``batch`` on a batch of one,
    whose column words over GF(2) are just its symbols, so one encoder
    serves `encode` and `verify.extract_generator`, which runs ``batch``
    on its whole block of messages."""

    field: Field
    n: int
    batch: Callable

    def __call__(self, message) -> list:
        message = list(message)
        q = self.field.q
        if len(message) == self.n:
            if q == 2:
                bits = linalg._symbols(message, 2)
                if bits is not None:
                    return self.batch(list(bits))
            elif linalg.in_field(message, q):
                return self.batch(np.array([message]))[0].tolist()
        raise ValueError(f"expected {self.n} message symbols in [0, {q})")


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code over ``field``: n information symbols at
    ``info_positions`` of N coordinates, each recovered through k sets.

    ``encode`` maps n symbols to the N of a codeword, and ``encode.batch``
    a batch of messages to theirs (see `Encoder`); ``recovery(i)`` is the
    `Recovery` of information symbol i, built on first use and kept by the
    code, and ``reader(i, s)`` its reader through set s.  ``details()``
    gives the profile fields of the family or transform.

    The families plan batch requests: ``batch_planner(k)`` maps a
    multiset of k target ids, out of ``batch_targets``, to disjoint
    readers; reader row r recovers the r-th position ``positions_of``
    gives for its target, or, when that is None, its one row recovers the
    message symbol the target id names.
    """

    family: str
    field: Field
    n: int
    N: int
    k: int
    info_positions: Sequence
    encode: Encoder
    recovery: Callable
    details: Callable
    batch_planner: Callable | None = None
    batch_targets: int = 0
    positions_of: Callable | None = None

    def __post_init__(self):
        # every read asks for its symbol's recovery: build each one once
        object.__setattr__(self, "recovery", cache(self.recovery))

    def reader(self, i, s) -> Reader:
        return self.recovery(i).readers[s]

    def recovering_sets(self, i) -> list:
        return [frozenset(r.positions) for r in self.recovery(i).readers]

    def word(self, codeword):
        """``codeword`` as the readers read it fastest: an int array for
        operator readers, unchanged for XOR readers, so that array codes
        never load numpy."""
        return codeword if self.recovery(0).xor else np.asarray(codeword)

    def recover_info(self, codeword, i, set_index):
        """Information symbol i from its set ``set_index``; a restriction
        that fails the reader's checks raises DecodeFailure."""
        return self.recover_all(codeword, i, slice(set_index, set_index + 1))[0]

    def recover_all(self, codeword, i, sets=slice(None)) -> list:
        """Information symbol i from each of its k sets, or the sets
        ``sets`` slices, in set order; if any set's restriction fails its
        reader's checks, DecodeFailure.  XOR readers are read without
        calls, operator readers in one gather and one stacked `pir.read`
        over the code's field."""
        rec = self.recovery(i)
        if rec.xor:
            out = []
            for r in rec.readers[sets]:
                acc = 0
                for j in r.positions:
                    acc ^= codeword[j]
                out.append(acc)
            return out
        x = np.asarray(codeword)[rec.index[sets]]
        return pir.read(self.field, rec.stack[sets], x, 1)[:, 0].tolist()

    def profile(self) -> dict:
        return {"family": self.family, "n": self.n, "N": self.N, "k": self.k,
                "redundancy": self.N - self.n,
                "rate": str(Fraction(self.n, self.N)), **self.details()}


@lru_cache(maxsize=None)
def from_multiplicity(params) -> LinearCode:
    """The systematic multiplicity code: a batch of messages encodes in
    one product with the systematic generator, and symbol i is read
    through the plans of its point, each a component of the plan's
    compiled interpolation operator."""
    view = multiplicity.systematic_view(params)
    width = params.symbol_width
    points = multiplicity.code_points(params)
    slots = multiplicity.symbol_slots(params)
    generator = view.generator.T  # information symbols x coordinates

    def batch_planner(k):
        bp = batch_mult.validate_batch_params(params, k)

        def plan(request):
            batch = batch_mult.plan_batch(bp, [points[t] for t in request])
            return [Reader(_plan_positions(p), pir.recovery_operator(p))
                    for p in batch.plans]

        return plan

    def recovery(i):
        point, component = divmod(view.info_positions[i], width)
        return Recovery(tuple(
            Reader(_plan_positions(plan),
                   _component_operator(pir.recovery_operator(plan), component))
            for plan in pir.pir_recovery_plans(params, points[point])))

    def details():
        prof = multiplicity.code_profile(params)
        return {"symbols": prof["N"], "symbol_width": width,
                "dim_symbols": str(prof["n"]), "alphabet_size": prof["Q"],
                "distance_bound": str(prof["distance_bound"])}

    return LinearCode(
        "multiplicity", params.field, params.base_dim, params.base_length,
        params.k_pir, view.info_positions,
        Encoder(params.field, params.base_dim,
                lambda messages: gf.matmul(params.field, messages, generator)),
        recovery, details, batch_planner, params.num_points,
        lambda t: slots[points[t]])


def _plan_positions(plan) -> tuple:
    """The codeword positions a plan's operator reads, in column order:
    every component of each of its points, in recovery order."""
    slots = multiplicity.symbol_slots(plan.params)
    return tuple(j for w in plan.points for j in slots[w])


@lru_cache(maxsize=4096)
def _component_operator(operator, component):
    """The width-1 operator giving one symbol component: that row of the
    plan operator's R, and every row of its H."""
    m = operator.matrix
    return pir.RecoveryOperator(
        operator.field, 1, m[[component, *range(operator.width, len(m))]])


@lru_cache(maxsize=None)
def from_array(params) -> LinearCode:
    """The systematic array code: a batch of messages encodes on column
    words, and bit i is the XOR over each of its diagonal sets."""
    # a batch certify wraps every planned set; most are the few sets of
    # each cell, and building a frozen reader costs more than the lookup
    xor_reader = cache(partial(Reader, operator=None))

    def batch_planner(k):
        if params.global_parity and params.slopes == (0, 1, 2, 3, 4):
            if k != 5:
                raise ValueError("the global-parity construction serves k = 5")
            planner = array_code.plan_five_batch
        else:
            if k > params.k:
                raise ValueError(f"at most {params.k} parallel requests")
            planner = array_code.plan_array_batch
        return lambda request: [
            xor_reader(rec)
            for rec in planner(params, [divmod(t, params.cols) for t in request])]

    gf2 = Field(2)
    return LinearCode(
        "array", gf2, params.dim, params.length, params.k, range(params.dim),
        Encoder(gf2, params.dim, partial(array_code.encode_columns, params)),
        lambda i: Recovery(tuple(
            xor_reader(rec)
            for rec in array_code.pir_sets_for_bit(params, divmod(i, params.cols)))),
        lambda: {"rows": params.rows, "cols": params.cols,
                 "slopes": list(params.slopes),
                 "global_parity": params.global_parity},
        batch_planner, params.dim)


@lru_cache(maxsize=None)
def expanded_code(base: LinearCode) -> LinearCode:
    """The bit-level code of a code over GF(2^e): every coordinate becomes
    its e bits, lowest power first, and every reader the GF(2) form of
    the base reader (multiplication by a field element is GF(2)-linear)."""
    fld = base.field
    if fld.p != 2 or fld.e == 1:
        raise ValueError("expansion needs a proper extension of GF(2)")
    e = fld.e
    n, N = base.n * e, _check_length(base.N * e)
    # an element's bits are its coefficients, lowest power first
    place = np.arange(e, dtype=np.uint8)

    def batch(words):
        t = max(map(int.bit_length, words), default=0)
        bits = linalg.unpack_words(words, t)  # (n, t)
        messages = (bits.T.reshape(t, base.n, e).astype(np.int64) << place).sum(axis=2)
        symbols = base.encode.batch(messages).T.astype(np.uint16)  # (base.N, t)
        out = (symbols[:, None, :] >> place[:, None] & 1).astype(np.uint8)
        return linalg.pack_words(out.reshape(N, t))

    def recovery(i):
        base_i, bit = divmod(i, e)
        return Recovery(tuple(
            Reader(tuple(j * e + b for j in r.positions for b in range(e)),
                   _bit_operator(r.operator, bit))
            for r in base.recovery(base_i).readers))

    gf2 = Field(2)
    return LinearCode(
        "binary-expansion", gf2, n, N, base.k,
        tuple(p * e + b for p in base.info_positions for b in range(e)),
        Encoder(gf2, n, batch), recovery,
        lambda: {"bits_per_symbol": e, "base": base.profile()})


@lru_cache(maxsize=4096)
def _bit_operator(operator, bit):
    """A width-1 operator over GF(2^e) as one over GF(2) on the bits of
    its inputs: entry c becomes the e x e matrix of x -> c*x.  The symbol
    row keeps output bit ``bit``; every check row keeps all e, so a check
    fails over GF(2) exactly when it fails over GF(2^e)."""
    fld = operator.field
    e = fld.e
    m = np.asarray(operator.matrix, dtype=np.int64)
    # c * x^b for every input bit b, then the output bits of each product
    images = gf.multiply(fld, m[:, :, None], 1 << np.arange(e))
    bits = images[..., None] >> np.arange(e) & 1   # row, column, in, out
    rows = bits.transpose(0, 3, 1, 2).reshape(len(m) * e, -1)
    return pir.RecoveryOperator(Field(2), 1, rows[[bit, *range(e, len(rows))]])


@lru_cache(maxsize=None)
def replicated_code(base: LinearCode, copies: int) -> LinearCode:
    """One message served through ``copies`` full codeword replicas; set
    c*k + s of a symbol is the base set s inside replica c."""
    if copies < 1:
        raise ValueError("copies must be >= 1")

    N = _check_length(base.N * copies)

    def recovery(i):
        readers = base.recovery(i).readers  # replica 0 is the base
        return Recovery(readers + tuple(
            Reader(tuple(map((c * base.N).__add__, r.positions)), r.operator)
            for c in range(1, copies) for r in readers))

    def batch(messages):
        out = base.encode.batch(messages)
        return out * copies if base.field.q == 2 else np.tile(out, copies)

    return LinearCode(
        "replication", base.field, base.n, N, base.k * copies, base.info_positions,
        Encoder(base.field, base.n, batch), recovery,
        lambda: {"copies": copies, "base": base.profile()})


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


def build_runtime(descriptor: dict) -> LinearCode:
    """The code a descriptor names.

    A malformed descriptor raises ValueError; one whose field size,
    codeword length or dense multiplicity generator exceeds its cap
    raises CapacityError before the code is built.
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
        linalg.check_generator_size(params.base_dim, params.base_length)
        return from_multiplicity(params)
    if family == "array":
        params = array_code.params_from_descriptor(descriptor)
        _check_length(params.length)
        array_code.check_disjoint(params)
        return from_array(params)
    base = build_runtime(descriptor["base"])
    if family == "binary-expansion":
        return expanded_code(base)
    return replicated_code(base, descriptor["copies"])


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
