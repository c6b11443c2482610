"""Narrow class groups of real quadratic fields, realized as proper
equivalence classes of primitive indefinite binary quadratic forms.

A form (a, b, c) of fundamental discriminant D > 0 is reduced when
|sqrt(D) - 2|a|| < b < sqrt(D).  Reduced forms fall into cycles under the
reduction step rho; cycles = classes; the canonical class representative is
the cycle member with lexicographically least (a, b).

A reduced form has b = D (mod 2) and a | (D - b^2)/4, so the reduced forms
are enumerated over the divisors of (D - b^2)/4 for each such b.  The cycles
that class_group walks give a map from every reduced form to its class;
inside a group, a form (a product under composition, or the argument of
index_of) is stepped by rho to some reduced form and looked up in that map,
without walking its cycle to the canonical representative.  Methods:
Buchmann & Vollmer, Binary Quadratic Forms (2007), ch. 6 and 8; Cohen,
GTM 138, section 5.6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .arith import InvariantError, factorize, is_perfect_square, kronecker, sqrt_roots_mod


@dataclass(frozen=True, order=True)
class Form:
    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def inverse(self) -> "Form":
        return Form(self.a, -self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def _validate_disc(D: int) -> None:
    if D <= 0:
        raise ValueError("discriminant must be positive")
    if is_perfect_square(D) is not None:
        raise ValueError("discriminant must not be a square")
    if D % 4 == 1:
        if any(e > 1 for _, e in factorize(D).factors):
            raise ValueError(f"D={D} is not fundamental")
    elif D % 4 == 0:
        k = D // 4
        if k % 4 not in (2, 3) or any(e > 1 for _, e in factorize(k).factors):
            raise ValueError(f"D={D} is not fundamental")
    else:
        raise ValueError(f"D={D} is not a discriminant")


def _is_reduced(f: Form, s: int) -> bool:
    # |sqrt(D) - 2|a|| < b < sqrt(D), via exact integer comparisons
    # (s = isqrt(D), D never a square here).
    if f.b <= 0 or f.b > s:
        return False
    t = 2 * abs(f.a)
    lo = t - f.b  # need |sqrt(D)-t| < b, i.e. (t-b)^2 < D < (t+b)^2
    D = f.disc()
    if lo > 0 and lo * lo >= D:
        return False
    return (t + f.b) ** 2 > D


def _rho(f: Form, D: int, s: int) -> Form:
    # One reduction step (a,b,c) -> (c, r, (r^2-D)/(4c)), r = -b mod 2|c|
    # placed in the proper window.
    c2 = 2 * abs(f.c)
    if f.c * f.c > D:
        r = (-f.b) % c2
        if r > abs(f.c):
            r -= c2
    else:
        r = s - (s + f.b) % c2
    return Form(f.c, r, (r * r - D) // (4 * f.c))


def _reduced(f: Form, D: int, s: int) -> Form:
    # some reduced form properly equivalent to f (the first one rho reaches)
    for _ in range(10000):
        if _is_reduced(f, s):
            return f
        f = _rho(f, D, s)
    raise ArithmeticError("reduction did not terminate")  # pragma: no cover


def reduce_form(f: Form) -> Form:
    """Canonical representative of the proper equivalence class of f."""
    D = f.disc()
    _validate_disc(D)
    if not f.is_primitive():
        raise ValueError(f"form {f} is not primitive")
    s = math.isqrt(D)
    return min(_cycle(_reduced(f, D, s), D, s))


def _cycle(f: Form, D: int, s: int) -> list[Form]:
    cyc = [f]
    g = _rho(f, D, s)
    while g != f:
        cyc.append(g)
        g = _rho(g, D, s)
    return cyc


def principal_representation(f: Form) -> tuple[int, int] | None:
    """(x, y) with f0(x, y) = f.a, where f0 = (1, D mod 2, *) is the principal
    form of discriminant D, if f is properly equivalent to f0; else None.

    Steps f through rho, reducing it and then walking its cycle once, and
    tracks the SL2(Z) matrix M with (original f) o M = f; each step is
    f -> f o [[0,-1],[1,t]].  Once f = (1, b', c') = f0 o T with
    T = [[1,(b' - D mod 2)/2],[0,1]], the original f is f0 o (T M^-1),
    and (x, y) is the first column of T M^-1, which needs only the bottom
    row of M.
    """
    D = f.disc()
    s = math.isqrt(D)
    r, u = 0, 1  # bottom row of M
    start = None
    while f != start:
        if f.a == 1:
            k = (f.b - D % 2) // 2
            return u - k * r, -r
        if start is None and _is_reduced(f, s):
            start = f
        g = _rho(f, D, s)
        r, u = u, u * ((g.b + f.b) // (2 * f.c)) - r
        f = g
    return None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _pos_a(f: Form, D: int, s: int) -> Form:
    # equivalent reduced form with positive leading coefficient (the cycle
    # alternates the sign of a, so one rho step suffices)
    if f.a > 0:
        return f
    return _rho(f, D, s)


def compose(f1: Form, f2: Form) -> Form:
    """Gauss composition; returns the canonical representative of the product."""
    D = f1.disc()
    if f2.disc() != D:
        raise ValueError("composition needs equal discriminants")
    s = math.isqrt(D)
    return reduce_form(_compose(_pos_a(reduce_form(f1), D, s), _pos_a(reduce_form(f2), D, s)))


def _compose(f1: Form, f2: Form) -> Form:
    # Gauss composition of two reduced forms of one discriminant with a > 0;
    # the product is not reduced.
    if f1.a > f2.a:
        f1, f2 = f2, f1
    a1, b1, c1 = f1.a, f1.b, f1.c
    a2, b2, c2 = f2.a, f2.b, f2.c
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, u, _ = _xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, u2, v2 = _xgcd(s, d)
        x2, y2 = u2, -v2
    v1 = a1 // d1
    v2_ = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    a3 = v1 * v2_
    b3 = b2 + 2 * v2_ * r
    c3 = (c2 * d1 + r * (b2 + v2_ * r)) // v1
    return Form(a3, b3, c3)


@dataclass(frozen=True)
class NarrowClassGroup:
    D: int
    forms: tuple[Form, ...]  # canonical representatives, sorted
    table: tuple[tuple[int, ...], ...]
    identity: int
    h_plus: int
    decomposition: tuple[tuple[int, int], ...]  # (generator index, order)
    exponent: int

    @cached_property
    def _class_of(self) -> dict[Form, int]:
        # every reduced form -> its class index; class_group sets this from
        # the cycles it walks, so it is built here only for a group made by
        # hand.  Not a field: it stays out of equality, hash and repr.
        s = math.isqrt(self.D)
        return {g: i for i, f in enumerate(self.forms) for g in _cycle(f, self.D, s)}

    @cached_property
    def _prime_classes(self) -> dict[int, int]:
        # p -> frobenius_class(self, p), -1 -> sign_class(self); like _class_of
        # it stays out of equality, hash and repr
        return {}

    def _lookup(self, f: Form) -> int:
        return self._class_of[_reduced(f, self.D, math.isqrt(self.D))]

    def index_of(self, f: Form) -> int:
        # D is fundamental, so every form of discriminant D is primitive: a
        # non-primitive form fails the discriminant check
        if f.disc() != self.D:
            raise ValueError(f"form {f} does not have discriminant {self.D}")
        return self._lookup(f)

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._lookup(self.forms[i].inverse())

    def power(self, i: int, k: int) -> int:
        out = self.identity
        g = i
        if k < 0:
            g, k = self.inv(i), -k
        while k:
            if k & 1:
                out = self.op(out, g)
            g = self.op(g, g)
            k >>= 1
        return out

    def order_of(self, i: int) -> int:
        k, g = 1, i
        while g != self.identity:
            g = self.op(g, i)
            k += 1
        return k


def _all_reduced_forms(D: int) -> list[Form]:
    # 0 < b < sqrt(D) with b = D (mod 2), and |a| a divisor of
    # M = (D - b^2)/4 = -ac in the window sqrt(D) - b < 2|a| < sqrt(D) + b
    s = math.isqrt(D)
    out = []
    for b in range(2 - D % 2, s + 1, 2):
        M = (D - b * b) // 4
        divisors = [1]
        for p, e in factorize(M).factors:
            divisors = [q * p**k for q in divisors for k in range(e + 1)]
        for a_abs in divisors:
            t = 2 * a_abs
            if t - b >= 0 and (t - b) ** 2 >= D:
                continue
            if (t + b) ** 2 <= D:
                continue
            for a in (a_abs, -a_abs):
                f = Form(a, b, -M // a)
                if f.is_primitive():
                    out.append(f)
    return out


def _decompose(table, identity, h):
    # Greedy invariant-factor decomposition: repeatedly adjoin an element of
    # maximal order in the current quotient.  The recorded orders are the
    # invariant factors (each is the order in the quotient at its step), but
    # a generator's order in G can exceed its recorded order, so the
    # generator indices need not form a basis (at D = 53832 both have order
    # 14 against recorded orders (14, 2)).
    def op(i, j):
        return table[i][j]

    subgroup = {identity}
    gens: list[tuple[int, int]] = []
    while len(subgroup) < h:
        best, best_ord = None, 0
        for g in range(h):
            k, x = 1, g
            while x not in subgroup:
                x = op(x, g)
                k += 1
            if k > best_ord:
                best, best_ord = g, k
        gens.append((best, best_ord))
        new = set()
        for x in subgroup:
            y = x
            for _ in range(best_ord):
                new.add(y)
                y = op(y, best)
        subgroup = new
    return gens


def _check_associative(table, h: int, D: int) -> None:
    # Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    # section 1.2): the elements a with (x a) y = x (a y) for all x, y are
    # closed under the operation, so checking a in a generating set suffices.
    # The generating set is built by closure under right multiplication, so
    # it covers every class by construction and the search ends on any table.
    gens: list[int] = []
    reached: set[int] = set()
    for g in range(h):
        if g in reached:
            continue
        gens.append(g)
        reached.add(g)
        todo = list(reached)
        while todo:
            x = todo.pop()
            for a in gens:
                y = table[x][a]
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
    for a in gens:
        row_a = table[a]
        for x in range(h):
            row_x, row_xa = table[x], table[table[x][a]]
            for y in range(h):
                if row_xa[y] != row_x[row_a[y]]:
                    raise InvariantError(f"composition is not associative at {x}, {a}, {y}, D={D}")


@lru_cache(maxsize=None)
def class_group(D: int) -> NarrowClassGroup:
    """Narrow class group of discriminant D.

    The reduced forms come from the divisors of (D - b^2)/4; walking their
    cycles gives the classes (one canonical representative each) and a map
    from every reduced form to its class.  The composition table composes
    the representatives, steps each product to some reduced form and looks
    it up in that map.
    """
    _validate_disc(D)
    s = math.isqrt(D)
    reduced = set(_all_reduced_forms(D))
    cycles = []
    seen: set[Form] = set()
    for f in sorted(reduced):
        if f in seen:
            continue
        cyc = _cycle(f, D, s)
        if not seen.isdisjoint(cyc):
            raise InvariantError(f"reduction cycles of {f} and an earlier form overlap, D={D}")
        seen |= set(cyc)
        cycles.append(cyc)
    if seen != reduced:
        raise InvariantError(f"reduction cycles do not cover the reduced forms, D={D}")
    cycles.sort(key=min)
    forms = tuple(min(cyc) for cyc in cycles)
    class_of = {g: i for i, cyc in enumerate(cycles) for g in cyc}
    h = len(forms)
    pos = [_pos_a(f, D, s) for f in forms]
    try:
        table = tuple(
            tuple(class_of[_reduced(_compose(f, g), D, s)] for g in pos) for f in pos
        )
    except KeyError as exc:
        raise InvariantError(f"a product of reduced forms reduces to no known class, D={D}") from exc
    if D % 4 == 0:
        principal = Form(1, 0, -D // 4)
    else:
        principal = Form(1, 1, (1 - D) // 4)
    identity = class_of[_reduced(principal, D, s)]
    # group sanity: identity row/column, associativity
    if not all(table[identity][j] == j and table[j][identity] == j for j in range(h)):
        raise InvariantError(f"principal class is not the identity of the table, D={D}")
    _check_associative(table, h, D)
    gens = _decompose(table, identity, h)
    exponent = math.lcm(*(o for _, o in gens)) if gens else 1
    G = NarrowClassGroup(D, forms, table, identity, h, tuple(gens), exponent)
    object.__setattr__(G, "_class_of", class_of)  # fills the cached_property
    return G


def frobenius_class(G: NarrowClassGroup, p: int) -> int:
    """Class of a prime form (p, b, *), for p split or ramified in Q(sqrt(D)).

    Defined up to inversion for split p (the choice between the two primes
    above p); the smallest valid b in [0, 2p) is used.  Inert p is rejected.
    The answer is memoized on G.
    """
    if p < 2:
        raise ValueError(f"p={p} is not a prime")
    memo = G._prime_classes
    if p in memo:
        return memo[p]
    D = G.D
    if kronecker(D, p) == -1:
        raise ValueError(f"p={p} is inert: no prime form exists")
    for b in sqrt_roots_mod(D, factorize(4 * p).factors):
        if b >= 2 * p:
            break
        f = Form(p, b, (b * b - D) // (4 * p))
        if f.is_primitive():
            memo[p] = G.index_of(f)
            return memo[p]
    raise ValueError(f"no primitive prime form above p={p}")  # pragma: no cover


def sign_class(G: NarrowClassGroup) -> int:
    """Class of a form representing -1; trivial iff the fundamental unit has
    norm -1.  The answer is memoized on G."""
    memo = G._prime_classes
    if -1 not in memo:
        D = G.D
        if D % 4 == 0:
            f = Form(-1, 0, D // 4)
        else:
            f = Form(-1, 1, (D - 1) // 4)
        memo[-1] = G.index_of(f)
    return memo[-1]
