"""Truncated p-typical Witt vectors over Laurent-polynomial rings.

Addition polynomials are computed once per (p, n) by the ghost-component
recursion over the integers, every division by p^i is checked to be exact,
and the mod-p reductions are cached.  Everything downstream —
Frobenius, the isogeny wp = F - id, standard-form reduction (one pass over
each slot, then one carry), upper ramification breaks, the congruence/KGB
tests and jump reduction — is exact arithmetic over an explicit finite
field.

Witt arithmetic and standard-form reduction compute on entries in column
form, (low, k int columns) (see "column form" below): ``witt_add``,
``witt_sub``, ``witt_neg``, ``frobenius`` and ``wp`` convert at their
boundary, and ``standard_form`` keeps its working vector and adjustment in
that form from start to end, building LaurentPolys only for its result, on
the stored values of its columns, and no FieldElement.  An addition is one
loop over the slots (``_add``), its carries c_j(A, B) = S_j(A, 0, ...; B, 0,
...) two-variable polynomials from their own ghost recursion (``_carries``),
and a difference adds the coordinatewise negative.  Over F_p a carry is one
exact pass on packed ints, a p^s-th power of an entry being the entry spread
p^s slots apart, reduced mod p once; over F_{p^k}, k >= 2, its terms
multiply in column form.  Frobenius, the p-th root, the lift into a degree-p
extension and x -> x^p - x are F_p-linear, so each is a matrix cached per
field, the first three in ``gf`` and ``poly``, and applied to whole columns.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import (
    ExtensionCapExceeded,
    InvalidProfile,
    LevelTooHigh,
    MixedClasses,
    NotStandardForm,
    SpecMismatch,
)
from .gf import (
    FieldSpec,
    _apply,
    _digit_bytes,
    _frobenius_map,
    _from_int,
    _image,
    _pth_root_map,
    _scaled_sum,
    _to_int,
    column_values,
    is_prime,
    kronecker_columns,
    make_field,
    solve_modp,
    square_and_multiply,
    value_columns,
)
from .poly import LaurentPoly, _embedding_map

MAX_LEVEL = 3
DEFAULT_EXTENSION_CAP = 16


class WittVector(namedtuple("WittVector", "spec entries")):
    """Element of W_n(k[t^{-1}]): an n-tuple of Laurent polynomials.

    Fields: ``spec: FieldSpec`` and ``entries: tuple[LaurentPoly, ...]``.
    Its truth value is that of the vector, not of the record."""

    __slots__ = ()

    def __new__(cls, spec, entries):
        if not entries:
            raise ValueError("Witt vector needs at least one entry")
        if any(e.spec != spec for e in entries):
            raise SpecMismatch("Witt entries over different field specs")
        return super().__new__(cls, spec, entries)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def level(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "WittVector":
        return cls(spec, (LaurentPoly.zero(spec),) * n)

    def __bool__(self):
        return any(self.entries)

    def to_json(self):
        return [e.to_json() for e in self.entries]


# -- addition polynomials ----------------------------------------------------


def _ghost_recursion(p: int, n: int, ghost) -> list[dict]:
    """The integer polynomials S_0..S_{n-1} whose ghost components are
    ghost(0), ..., ghost(n - 1): S_i = (ghost(i) - sum_{j<i} p^j
    S_j^{p^{i-j}}) / p^i over the integers, with polynomials as dicts from
    exponent vectors to coefficients; every division by p^i is checked to
    be exact."""

    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return out

    exact: list[dict] = []
    for i in range(n):
        acc = ghost(i)
        for j in range(i):
            for mono, c in square_and_multiply(exact[j], p ** (i - j), mul).items():
                acc[mono] = acc.get(mono, 0) - p**j * c
        s_i = {}
        for mono, c in acc.items():
            quot, rem = divmod(c, p**i)
            if rem:
                raise AssertionError("ghost recursion produced a non-integer")
            if quot:
                s_i[mono] = quot
        exact.append(s_i)
    return exact


@functools.lru_cache(maxsize=None)
def witt_sum_polys(p: int, n: int):
    """Addition polynomials S_0..S_{n-1} for W_n in characteristic p.

    Each S_i is returned as a tuple of terms (c, xe, ye) with integer
    coefficient c in (0, p) and exponent vectors xe, ye of length n, so that
    S_i = sum c * prod X_j^xe_j * prod Y_j^ye_j over F_p.  Terms are sorted by
    the monomial (xe + ye), descending.

    ``_ghost_recursion`` with ghosts w_i(X) + w_i(Y), on exponent vectors
    (x_0..x_{n-1}, y_0..y_{n-1}), before reduction mod p.
    """
    if n > MAX_LEVEL:
        raise LevelTooHigh(f"truncation level {n} exceeds the cap {MAX_LEVEL}")
    if n < 1:
        raise ValueError("truncation level must be >= 1")

    def monomial(var: int, e: int) -> tuple[int, ...]:
        return tuple(e if k == var else 0 for k in range(2 * n))

    def ghost(i: int) -> dict:  # w_i(X) + w_i(Y)
        return {monomial(var, p ** (i - j)): p**j
                for j in range(i + 1) for var in (j, n + j)}

    return tuple(
        tuple(
            (c % p, mono[:n], mono[n:])
            for mono, c in sorted(s_i.items(), reverse=True)
            if c % p
        )
        for s_i in _ghost_recursion(p, n, ghost)
    )


def _check_pair(v: WittVector, w: WittVector):
    if v.spec != w.spec:
        raise SpecMismatch("Witt vectors over different field specs")
    if v.level != w.level:
        raise SpecMismatch("Witt vectors of different truncation levels")


# -- column form -------------------------------------------------------------
#
# Witt addition and standard-form reduction hold an entry as (low, cols):
# the coefficients of t^low, t^(low + 1), ... in column form (``gf``'s
# ``value_columns`` of their stored values), k equally long columns of ints
# in [0, p), first and last term nonzero; the zero entry has k empty columns.


def _columns(v: WittVector) -> tuple:
    spec = v.spec
    return tuple((e.low, value_columns(e.values, spec)) for e in v.entries)


def _vector(spec: FieldSpec, entries) -> WittVector:
    """The Witt vector of column-form entries: one ``column_values`` call
    and one LaurentPoly per entry."""
    return WittVector(
        spec,
        tuple(
            LaurentPoly._make(spec, low, column_values(cols, spec))
            for low, cols in entries
        ),
    )


def _zero(k: int):
    return 0, [()] * k


def _entry(k: int, terms: dict):
    """The column-form entry with coefficient vector terms[e] at t^e."""
    terms = {e: a for e, a in terms.items() if any(a)}
    if not terms:
        return _zero(k)
    low = min(terms)
    cols = [[0] * (max(terms) + 1 - low) for _ in range(k)]
    for e, a in terms.items():
        for col, d in zip(cols, a):
            col[e - low] = d
    return low, cols


# -- F_p-linear maps on columns ----------------------------------------------
#
# Frobenius, the p-th root and the lift (``poly._embedding_map``) are gf's
# cached maps on whole columns; x -> x^p - x is a matrix for ``solve_modp``.


@functools.lru_cache(maxsize=None)
def _artin_schreier_matrix(spec: FieldSpec) -> tuple:
    """The k x k matrix over F_p of x -> x^p - x, ``_frobenius_map`` minus
    the identity; column t is the image of x^t.  Its rank is k - 1: the
    kernel is F_p."""
    matrix = [[0] * spec.k for _ in range(spec.k)]
    for s, row in enumerate(_frobenius_map(spec)):
        for t, c in row:
            matrix[s][t] = c
        matrix[s][s] = (matrix[s][s] - 1) % spec.p
    return tuple(map(tuple, matrix))


def _frobenius_entry(spec: FieldSpec, entry):
    """F on a column-form entry: coefficients to their p-th powers,
    exponents times p."""
    low, cols = entry
    width = len(cols[0])
    if not width:
        return entry
    p = spec.p
    out = []
    for col in _apply(_frobenius_map(spec), cols, p):
        spread = [0] * (p * width - p + 1)
        spread[::p] = col
        out.append(spread)
    return p * low, out


# -- addition ----------------------------------------------------------------


def _add(spec: FieldSpec, x: tuple, y: tuple) -> tuple:
    """x + y for two tuples of column-form entries of one level over spec,
    the one Witt addition: x = sum V^i[x_i], and V^i[a] + V^i[b] = V^i[a +
    b] + sum_j V^(i+j)[c_j(a, b)] (``_carry``; Serre, Local Fields, II §6).
    So slot i keeps a list of pending entries, x_i and y_i to start, and
    folds its first into each later one b: acc + b by ``_column_sum``, and
    c_j(acc, b) to slot i + j unless acc or b is zero.  The last slot is
    linear: one ``_column_sum``.  Levels above MAX_LEVEL raise LevelTooHigh."""
    n = len(x)
    if n > MAX_LEVEL:
        raise LevelTooHigh(f"truncation level {n} exceeds the cap {MAX_LEVEL}")
    slots = [[a, b] for a, b in zip(x, y)]
    out = []
    for i in range(n - 1):
        acc, *rest = slots[i]
        for b in rest:
            if acc[1][0] and b[1][0]:
                for j in range(1, n - i):
                    slots[i + j].append(_carry(spec, j, acc, b))
            acc = _column_sum([(1, acc), (1, b)], spec)
        out.append(acc)
    return (*out, _column_sum([(1, e) for e in slots[-1]], spec))


def _neg(p: int, x: tuple) -> tuple:
    """-x in column form: coordinatewise, for odd p (``witt_neg``)."""
    return tuple((low, [[-d % p for d in col] for col in cols]) for low, cols in x)


@functools.lru_cache(maxsize=None)
def _carries(p: int, n: int) -> tuple:
    """The carries c_0..c_{n-1}, [A] + [B] = (c_0, c_1, ...), so c_j(A, B) =
    S_j(A, 0, ...; B, 0, ...): ``_ghost_recursion`` in the two variables A
    and B, with ghosts A^(p^i) + B^(p^i), so

        c_i = (A^(p^i) + B^(p^i) - sum_{j<i} p^j c_j^(p^(i-j))) / p^i.

    Each c_j is reduced mod p as its terms (c, a, b) for c A^a B^b,
    0 < c < p, sorted by (a, b) descending, the order of
    ``witt_sum_polys``' terms."""
    return tuple(
        tuple((c % p, a, b) for (a, b), c in sorted(c_j.items(), reverse=True) if c % p)
        for c_j in _ghost_recursion(p, n, lambda i: {(p**i, 0): 1, (0, p**i): 1})
    )


@functools.lru_cache(maxsize=None)
def _carry_terms(p: int, j: int) -> tuple:
    """The terms c A^a B^b (a + b = p^j) of the carry c_j(A, B) of
    ``_carries``, each as its coefficient c and its factors ((i, d), ...),
    one for each nonzero base-p digit d of a or b: a digit at p^s of a is
    the factor X_(2s)^d, of b X_(2s+1)^d, with X_(2s), X_(2s+1) = F^s(A),
    F^s(B) (A^(d p^s) = F^s(A)^d in characteristic p)."""
    return tuple(
        (c, tuple(
            (2 * s + i, d)
            for s in range(j)
            for i, e in enumerate((a, b))
            if (d := e // p**s % p)
        ))
        for c, a, b in _carries(p, j + 1)[j]
    )


def _carry(spec: FieldSpec, j: int, a: tuple, b: tuple) -> tuple:
    """c_j(a, b) for nonzero column-form entries a and b over spec: the sum
    of the terms of ``_carry_terms`` on a, b and their Frobenius images.
    Over F_p it is one ``_packed_sum``.  Over F_{p^k}, k >= 2, the powers
    of each X_i are a chain of ``kronecker_columns`` products, grown on use,
    a term is their product, and the terms add up by ``_column_sum``."""
    terms = _carry_terms(spec.p, j)
    bases = [a, b]
    while len(bases) < 2 * j:
        bases += [_frobenius_entry(spec, e) for e in bases[-2:]]
    if spec.k == 1:
        return _packed_sum(terms, bases, spec.p)

    def mul(u, v):
        return u[0] + v[0], kronecker_columns(u[1], v[1], spec)

    powers = [[e] for e in bases]  # powers[i][d - 1] is X_i^d
    summands = []
    for c, factors in terms:
        for i, d in factors:
            while len(powers[i]) < d:
                powers[i].append(mul(powers[i][-1], bases[i]))
        product = functools.reduce(mul, [powers[i][d - 1] for i, d in factors])
        summands.append((c, product))
    return _column_sum(summands, spec)


def _packed_sum(terms, bases, p: int) -> tuple:
    """The column-form entry sum of c prod X_i^d over the (c, factors)
    terms of ``_carry_terms`` over F_p, X_i = bases[i], in one exact
    integer pass.

    Each X_i is packed once (``_to_int``), a term is an int product, the
    terms are shifted to the lowest exponent and summed without reduction,
    and one ``_from_int`` reduces the whole sum mod p.  The digits are as
    wide as a bound on the unreduced coefficients needs: it sums c (p -
    1)^r prod nnz_i / max nnz_i over the terms, r the factors of a term
    (X_i^d counting d times) and nnz_i the nonzero coefficients of X_i, as
    a coefficient of a product of polynomials with coefficients in [0, p)
    is at most one factor's largest coefficient times the coefficient sums
    of the others.  So no slot carries into the next."""
    nnz = [len(col) - col.count(0) for _, (col,) in bases]
    bound = 0
    for c, factors in terms:
        for i, d in factors:
            c *= ((p - 1) * nnz[i]) ** d
        bound += c // max(nnz[i] for i, _ in factors)
    width = _digit_bytes(bound)
    bits = 8 * width
    packed = [_to_int(col, width) for _, (col,) in bases]
    values = []
    for c, factors in terms:
        for i, d in factors:
            c *= packed[i] ** d
        values.append((sum(d * bases[i][0] for i, d in factors), c))
    low = min(v[0] for v in values)
    total = sum(c << (v_low - low) * bits for v_low, c in values)
    return _trimmed(low, [_from_int(total, -(-total.bit_length() // bits), width, p)])


def _column_sum(summands, spec: FieldSpec) -> tuple:
    """The column-form entry sum of c e over the (c, e) summands, e
    column-form entries: one packed ``_scaled_sum`` per column, trimmed.
    Zero entries are left out, and a lone entry with c = 1 is the sum as
    it stands.  Only the sum needs trimming: a product of nonzero Laurent
    polynomials over a field has nonzero end coefficients."""
    summands = [(c, low, cols) for c, (low, cols) in summands if cols[0]]
    match summands:
        case []:
            return _zero(spec.k)
        case [(1, low, cols)]:
            return low, cols
    p = spec.p
    low = min(s[1] for s in summands)
    width = max(s[1] + len(s[2][0]) for s in summands) - low
    return _trimmed(low, [
        _scaled_sum([(c, off - low, cols[t]) for c, off, cols in summands], width, p)
        for t in range(spec.k)
    ])


def _trimmed(low: int, cols: list):
    """The column-form entry whose k columns cols hold the coefficients of
    t^low, t^(low + 1), ..., some at either end perhaps zero."""
    start, stop = 0, len(cols[0])
    while start < stop and not any(col[start] for col in cols):
        start += 1
    while stop > start and not any(col[stop - 1] for col in cols):
        stop -= 1
    if start == stop:
        return _zero(len(cols))
    return low + start, [col[start:stop] for col in cols]


def witt_add(v: WittVector, w: WittVector) -> WittVector:
    _check_pair(v, w)
    return _vector(v.spec, _add(v.spec, _columns(v), _columns(w)))


def witt_neg(v: WittVector) -> WittVector:
    """Coordinatewise negation (valid for odd p: the ghost map is odd)."""
    return _vector(v.spec, _neg(v.spec.p, _columns(v)))


def witt_sub(v: WittVector, w: WittVector) -> WittVector:
    _check_pair(v, w)
    return _vector(v.spec, _add(v.spec, _columns(v), _neg(v.spec.p, _columns(w))))


def frobenius(v: WittVector) -> WittVector:
    """F on W_n(R) in characteristic p: each entry raised to the p-th power."""
    spec = v.spec
    return _vector(spec, [_frobenius_entry(spec, e) for e in _columns(v)])


def _wp(spec: FieldSpec, x: tuple) -> tuple:
    fx = tuple(_frobenius_entry(spec, e) for e in x)
    return _add(spec, fx, _neg(spec.p, x))


def wp(v: WittVector) -> WittVector:
    """The Artin-Schreier-Witt isogeny F(v) - v."""
    return _vector(v.spec, _wp(v.spec, _columns(v)))


# -- standard form -----------------------------------------------------------


def is_standard(v: WittVector) -> bool:
    """Every entry supported on exponents t^{-d} with d >= 1 and p not | d."""
    p = v.spec.p
    return not any(e >= 0 or e % p == 0 for entry in v.entries for e in _support(entry))


def _support(entry: LaurentPoly) -> list[int]:
    """The exponents of the nonzero terms of entry."""
    zero = entry.spec._zero
    return [entry.low + i for i, c in enumerate(entry.values) if c != zero]


class StandardFormResult(
    namedtuple("StandardFormResult", "vector extension_degree adjustment")
):
    """The outcome of ``standard_form``.

    Fields: ``vector: WittVector`` (v_std), ``extension_degree: int`` and
    ``adjustment: WittVector`` (g with v_std = v - wp(g))."""

    __slots__ = ()


def _artin_schreier_solve(spec: FieldSpec, c) -> list[int] | None:
    """The coefficients of some x with x^p - x = c in spec, c given by its k
    coefficients, or None if there is none (Tr c != 0)."""
    aug = [[*row, ci] for row, ci in zip(_artin_schreier_matrix(spec), c)]
    return solve_modp(aug, spec.p)


def _constant(entry) -> list[int]:
    """The coefficients of the last term of a nonzero column-form entry."""
    return [col[-1] for col in entry[1]]


def _pole_moves(spec: FieldSpec, entry) -> dict:
    """The moves of a column-form slot's p-divisible poles: a t^e goes to
    a^(1/p) t^(e/p), least e first, as e/p > e, so a move that lands on
    another pole moves on with it.  Maps each e/p to its coefficients."""
    low, cols = entry
    p, width = spec.p, len(cols[0])
    poles = set()
    for e in range(low + -low % p, min(low + width, 0), p):
        if any(col[e - low] for col in cols):
            while e < 0 and e % p == 0:
                poles.add(e)
                e //= p
    moves: dict = {}
    for e in sorted(poles):
        a = [col[e - low] for col in cols] if e < low + width else [0] * spec.k
        if e in moves:
            a = [(x + y) % p for x, y in zip(a, moves[e])]
        if any(a):
            moves[e // p] = _image(_pth_root_map(spec), a, p)
    return moves


def standard_form(
    v: WittVector, extension_cap: int = DEFAULT_EXTENSION_CAP
) -> StandardFormResult:
    """Reduce v modulo the image of wp to its standard form.

    Returns (v_std, extension degree used, g) with v_std = v - wp(g), every
    entry of v_std supported on exponents t^{-d}, p not dividing d >= 1.
    Levels above MAX_LEVEL raise LevelTooHigh before any reduction.
    Slot i of work - wp(V^i C) is work_i - C^p + C (S_i(X, 0) = X_i), so one
    carry per slot removes C: a^(1/p) t^(e/p) for each p-divisible pole
    a t^e, least e first, as e/p > e, and the Artin-Schreier root of the
    constant, whose nonzero trace extends the field by degree p (within
    extension_cap) once the poles are moved.  C is slot i of g:
    (g_<i, 0) + V^i[C] = (g_<i, C) by ghosts.
    This gives the bytes of the per-term loop: modulo {c^p - c}, k[t^-1] has
    one standard reduct (c^p keeps the p-divisible leading pole of c), so the
    two agree on slot i and then differ by wp(D), D zero through slot i; slot
    i+1 absorbs d^p - d, its constant of trace 0, so the field grows alike.
    Both g differ by ker wp = W_n(F_p): by 0, as per-term carries miss constants.
    The work and g stay in column form throughout; the p-th roots and lifts
    are the cached linear maps, and only the returned vectors are built as
    Laurent polynomials.
    """
    if v.level > MAX_LEVEL:
        raise LevelTooHigh(f"truncation level {v.level} exceeds the cap {MAX_LEVEL}")
    for entry in v.entries:
        if entry and entry.high > 0:
            raise ValueError("entries must lie in k[t^-1] (no positive powers)")
    spec, n, base_k = v.spec, v.level, v.spec.k
    p, work = spec.p, _columns(v)
    g = (_zero(base_k),) * n
    for i in range(n):
        # the pole pass never reads the constant's move, and p-th roots
        # commute with embed, so it runs in the slot's own field first
        moves = _pole_moves(spec, work[i])
        low, cols = work[i]
        if cols[0] and low + len(cols[0]) == 1:  # the slot has a constant
            while (root := _artin_schreier_solve(spec, _constant(work[i]))) is None:
                new_k = spec.k * p
                if new_k > extension_cap * base_k:
                    raise ExtensionCapExceeded(
                        f"standard form needs degree {new_k // base_k} "
                        f"over the base (cap {extension_cap})"
                    )
                big = make_field(p, new_k)
                lift = _embedding_map(spec, big)
                work, g = (
                    tuple((e_low, _apply(lift, e_cols, p)) for e_low, e_cols in vec)
                    for vec in (work, g)
                )
                moves = {e: _image(lift, a, p) for e, a in moves.items()}
                spec = big
            moves[0] = root
        c = _entry(spec.k, moves)
        if c[1][0]:
            zero = _zero(spec.k)
            vc = (zero,) * i + (c,) + (zero,) * (n - 1 - i)
            # wp(V^i C), then its negative: one fold of work + V^i[C] -
            # V^i[C^p] gives these bytes from 2.5x the column-product size
            # and took the p = 13 cap input from 2.0-2.3 s to 4.5-5.5 s
            work = _add(spec, work, _neg(p, _wp(spec, vc)))
            g = g[:i] + vc[i:]
    vector = _vector(spec, work)
    if not is_standard(vector):
        raise NotStandardForm("standard-form reduction left a non-standard term")
    return StandardFormResult(vector, spec.k // base_k, _vector(spec, g))


# -- ramification breaks -----------------------------------------------------


class JumpProfile(namedtuple("JumpProfile", "breaks")):
    """Upper ramification breaks (u_1, ..., u_n).

    Field: ``breaks: tuple[int, ...]``, stored as a tuple whatever iterable
    it is given."""

    __slots__ = ()

    def __new__(cls, breaks):
        return super().__new__(cls, tuple(breaks))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def validate(self, p: int) -> "JumpProfile":
        u = self.breaks
        if not u or any(x < 1 for x in u):
            raise InvalidProfile("breaks must be positive")
        if u[0] % p == 0:
            raise InvalidProfile("p divides u_1")
        for prev, cur in zip(u, u[1:]):
            if cur < p * prev:
                raise InvalidProfile(f"{cur} < p*{prev}")
            if cur % p == 0 and cur != p * prev:
                raise InvalidProfile(f"p | {cur} but {cur} != p*{prev}")
        return self

    def to_json(self):
        return list(self.breaks)


def upper_breaks(v_std: WittVector) -> JumpProfile:
    """u_i = max_j p^(i-j) * deg_{t^-1}(f_j) for a standard-form vector."""
    if not is_standard(v_std):
        raise NotStandardForm("vector is not in standard form")
    if not v_std.entries[0]:
        raise NotStandardForm("first entry vanishes; breaks are undefined")
    p = v_std.spec.p
    degs = [e.deg_t_inverse() for e in v_std.entries]
    breaks = []
    for i in range(1, v_std.level + 1):
        breaks.append(
            max(
                p ** (i - j) * int(degs[j - 1])
                for j in range(1, i + 1)
                if v_std.entries[j - 1]
            )
        )
    return JumpProfile(tuple(breaks)).validate(p)


def gamma_congruence(v_std: WittVector, m: int) -> int:
    """Common class mod m of all t^-1 exponents across the entries."""
    if not is_standard(v_std):
        raise NotStandardForm("vector is not in standard form")
    classes = {
        (-e) % m for entry in v_std.entries for e in _support(entry)
    }
    if len(classes) != 1:
        raise MixedClasses(f"exponent classes mod {m}: {sorted(classes)}")
    return classes.pop()


def kgb_vanishes(j: JumpProfile, m: int) -> bool:
    """The KGB lifting obstruction vanishes iff u_1 = -1 mod m."""
    return j.breaks[0] % m == m - 1


def reduce_jumps(jumps_prime, p: int, m: int) -> list[int]:
    """Reduce a jump profile to one with no essential ramification:
    u_i = u_i' mod mp and p*u_{i-1} <= u_i < p*u_{i-1} + mp, inductively."""
    if not is_prime(p) or p == 2 or m < 1:
        raise InvalidProfile(f"need an odd prime p and m >= 1, not p={p}, m={m}")
    if (p - 1) % m:
        raise InvalidProfile(f"m = {m} must divide p-1 = {p - 1}")
    jumps_prime = list(jumps_prime)
    if not jumps_prime or any(u < 1 for u in jumps_prime):
        raise InvalidProfile("jumps must be positive")
    if jumps_prime[0] % p == 0:
        raise InvalidProfile("p divides u_1'")
    for prev, cur in zip(jumps_prime, jumps_prime[1:]):
        if cur < p * prev:
            raise InvalidProfile(f"{cur} < p*{prev}")
    if any(u % m != m - 1 for u in jumps_prime):
        raise InvalidProfile("all input jumps must be -1 mod m")
    out = []
    prev = 0
    for u in jumps_prime:
        cur = p * prev + (u - p * prev) % (m * p)
        out.append(cur)
        prev = cur
    return out


def different_degree(j: JumpProfile, p: int) -> int:
    """Serre's different formula: sum (u_i + 1)(p^i - p^(i-1))."""
    return sum(
        (u + 1) * (p**i - p ** (i - 1))
        for i, u in enumerate(j.breaks, start=1)
    )
