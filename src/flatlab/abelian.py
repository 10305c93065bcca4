"""Finitely generated abelian groups as cokernels of integer matrices.

All arithmetic is exact: entries are Python ints, so nothing can overflow
or wrap.  A group is Z^n modulo the column lattice of its relation matrix;
maps are integer matrices checked to carry relation lattice into relation
lattice.  Smith normal form is computed and verified once per distinct
matrix: U*M*V = D, U by its inverse, V by its determinant, and the
diagonal's divisibility chain are asserted before the result is cached.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import product as iproduct
from math import gcd, lcm
from typing import Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    CapExceededError,
    FlatlabError,
    InvalidHomomorphismError,
    NotAbelianError,
    ScenarioError,
)
from .words import Presentation, Word, _split_top_level

_MISSING = object()  # a memo miss; a memoised value may be None


class IntMatrix:
    """Immutable rectangular matrix of exact integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], cols: int | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
            if cols is not None and cols != width:
                raise ValueError("cols mismatch")
            cols = width
        elif cols is None:
            cols = 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, r: int, c: int) -> "IntMatrix":
        return cls(tuple((0,) * c for _ in range(r)), cols=c)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        cols = [tuple(int(x) for x in col) for col in columns]
        for col in cols:
            if len(col) != rows:
                raise ValueError("column length mismatch")
        return cls(tuple(tuple(col[i] for col in cols) for i in range(rows)), cols=len(cols))

    @classmethod
    def scalar(cls, n: int, value: int) -> "IntMatrix":
        return cls(tuple(tuple(value if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def row_slice(self, start: int, stop: int) -> "IntMatrix":
        return IntMatrix(self.entries[start:stop], cols=self.cols)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix(
            tuple(a + b for a, b in zip(self.entries, other.entries)),
            cols=self.cols + other.cols,
        )

    @classmethod
    def diag_blocks(cls, A: "IntMatrix", B: "IntMatrix") -> "IntMatrix":
        top = [row + (0,) * B.cols for row in A.entries]
        bot = [(0,) * A.cols + row for row in B.entries]
        return cls(tuple(top + bot), cols=A.cols + B.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
            cols=self.rows,
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        ot = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            ),
            cols=other.cols,
        )

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def neg(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.entries), cols=self.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.entries == other.entries
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        return hash((self.entries, self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


class SmithNormalForm:
    """U*M*V = D, with U's inverse Uinv; immutable, so equal matrices share one."""

    __slots__ = ("U", "D", "V", "Uinv")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix, Uinv: IntMatrix):
        for name, value in zip(self.__slots__, (U, D, V, Uinv)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("SmithNormalForm is immutable")

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols))
        )

    @property
    def nonzero_count(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


@cache  # keyed by M alone: the factorization reads no cap
def smith_normal_form(M: IntMatrix) -> SmithNormalForm:
    """U*M*V = D, diagonal with d_i | d_{i+1}, U and V unimodular.

    Pivot rule: smallest nonzero absolute value, ties broken row-major.
    Factored and verified once per distinct matrix, cached by M: U*M*V = D,
    U by its inverse, V by its determinant, D diagonal with its chain.
    """
    r, c = M.rows, M.cols
    A = [list(row) for row in M.entries]
    U = [list(row) for row in IntMatrix.identity(r).entries]
    Uinv = [list(row) for row in IntMatrix.identity(r).entries]
    V = [list(row) for row in IntMatrix.identity(c).entries]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for row in Uinv:
            row[i] = -row[i]

    def addmul_row(i, j, q):  # row_i += q * row_j
        A[i] = [x + q * y for x, y in zip(A[i], A[j])]
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= q * row[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_col(i, j, q):  # col_i += q * col_j
        for row in A:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    t = 0
    while t < min(r, c):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if A[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, r):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                if q:
                    addmul_row(i, t, -q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, c):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                if q:
                    addmul_col(j, t, -q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if A[i][j] % A[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(t, offender, 1)
            continue
        t += 1

    Um = IntMatrix(U, cols=r)
    Dm = IntMatrix(A, cols=c)
    Vm = IntMatrix(V, cols=c)
    Uinvm = IntMatrix(Uinv, cols=r)
    if Um * M * Vm != Dm:
        raise FlatlabError("SNF verification failed: U*M*V != D")
    if Um * Uinvm != IntMatrix.identity(r) or not Vm.is_unimodular():
        raise FlatlabError("SNF verification failed: transform not unimodular")
    diag = [Dm.entries[i][i] for i in range(min(r, c))]
    for i in range(r):
        for j in range(c):
            if i != j and Dm.entries[i][j] != 0:
                raise FlatlabError("SNF verification failed: not diagonal")
    for a, b in zip(diag, diag[1:]):
        if a < 0 or b < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise FlatlabError("SNF verification failed: divisibility chain broken")
    return SmithNormalForm(Um, Dm, Vm, Uinvm)


def solve_in_column_lattice(snf: SmithNormalForm, b: Sequence[int]) -> tuple[int, ...] | None:
    """x with M x = b given the SNF of M, or None if b is outside im(M)."""
    z = snf.U.matvec(b)
    diag = snf.diagonal
    w = [0] * snf.V.rows
    for i, zi in enumerate(z):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if zi != 0:
                return None
        else:
            if zi % d:
                return None
            w[i] = zi // d
    return snf.V.matvec(w)


def column_lattice_basis(M: IntMatrix) -> IntMatrix:
    """A full-column-rank basis of the lattice spanned by M's columns."""
    snf = smith_normal_form(M)
    cols = []
    for i, d in enumerate(snf.diagonal):
        if d != 0:
            cols.append(tuple(d * snf.Uinv.entries[j][i] for j in range(M.rows)))
    return IntMatrix.from_columns(cols, M.rows)


# -- groups ------------------------------------------------------------------


class AbGroup:
    """Z^ngens modulo the column lattice of ``relations``.

    The canonical form (free rank, invariant factors >= 2) is computed at
    construction and elements are always handled in canonical coordinates:
    free coordinates first, then one coordinate mod d for each invariant
    factor d.
    """

    def __init__(self, ngens: int, relations: IntMatrix, name: str | None = None):
        if relations.rows != ngens:
            raise ValueError(
                f"relation matrix has {relations.rows} rows for {ngens} generators"
            )
        self.ngens = ngens
        self.relations = relations
        self.name = name
        self.snf = smith_normal_form(relations)
        diag = self.snf.diagonal
        moduli = [diag[i] if i < len(diag) else 0 for i in range(ngens)]
        self.free_positions = tuple(i for i, m in enumerate(moduli) if m == 0)
        self.torsion_positions = tuple(i for i, m in enumerate(moduli) if m >= 2)
        self.rank = len(self.free_positions)
        self.invariants = tuple(moduli[i] for i in self.torsion_positions)
        self._memo: dict = {}

    # -- structure ----------------------------------------------------------

    def canonical_invariants(self) -> tuple[int, tuple[int, ...]]:
        return (self.rank, self.invariants)

    def order(self) -> int | None:
        if self.rank:
            return None
        n = 1
        for d in self.invariants:
            n *= d
        return n

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.invariants

    def is_finite(self) -> bool:
        return self.rank == 0

    def same_presentation(self, other: "AbGroup") -> bool:
        return self.ngens == other.ngens and self.relations == other.relations

    def describe(self) -> str:
        if self.name:
            return self.name
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.invariants)
        return " x ".join(parts) if parts else "0"

    # -- elements (canonical coordinates) ------------------------------------

    def zero(self) -> tuple[int, ...]:
        return (0,) * (self.rank + len(self.invariants))

    def _normalize(self, coords: Sequence[int]) -> tuple[int, ...]:
        free = tuple(int(x) for x in coords[: self.rank])
        tors = tuple(
            int(x) % d for x, d in zip(coords[self.rank :], self.invariants)
        )
        return free + tors

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return self._normalize(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return self._normalize(tuple(-x for x in a))

    def scale(self, k: int, a: Sequence[int]) -> tuple[int, ...]:
        return self._normalize(tuple(k * x for x in a))

    def from_raw(self, raw: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of a vector given in generator coordinates."""
        y = self.snf.U.matvec(raw)
        return self._normalize(
            tuple(y[i] for i in self.free_positions)
            + tuple(y[i] for i in self.torsion_positions)
        )

    def lift(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Some generator-coordinate representative of a canonical element."""
        coords = self._normalize(coords)
        y = [0] * self.ngens
        for pos, value in zip(self.free_positions, coords[: self.rank]):
            y[pos] = value
        for pos, value in zip(self.torsion_positions, coords[self.rank :]):
            y[pos] = value
        return self.snf.Uinv.matvec(y)

    def generator_element(self, j: int) -> tuple[int, ...]:
        raw = [0] * self.ngens
        raw[j] = 1
        return self.from_raw(raw)

    def element_order(self, a: Sequence[int]) -> int | None:
        a = self._normalize(a)
        if any(a[: self.rank]):
            return None
        o = 1
        for x, d in zip(a[self.rank :], self.invariants):
            o = lcm(o, d // gcd(d, x))
        return o

    def elements(self, caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
        if self.rank:
            raise CapExceededError("cannot enumerate an infinite abelian group")
        return self.torsion_elements(caps)

    def torsion_elements(self, caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
        count = 1
        for d in self.invariants:
            count *= d
        if count > caps.ab_elements:
            raise CapExceededError(f"torsion enumeration {count} exceeds cap")
        free0 = (0,) * self.rank
        return [free0 + tors for tors in iproduct(*(range(d) for d in self.invariants))]

    def format_element(self, a: Sequence[int]) -> str:
        a = self._normalize(a)
        free = ",".join(str(x) for x in a[: self.rank])
        tors = ",".join(
            f"{x} mod {d}" for x, d in zip(a[self.rank :], self.invariants)
        )
        if free and tors:
            return f"({free} | {tors})"
        return f"({free or tors})"

    def memo(self, key, compute):
        """Compute-once derived data.  As for ``PermGroup.memo``, a value
        never references this group, so the group dies by reference count;
        the permutation flavor's two exceptions, ``"extensions"`` and
        ``"homs"``, have no abelian memo.  The one key, ``("apply", F)``,
        holds no caps, as its computation (``abelian_hom_group``,
        ``ab_quotient``, ``ab_image``) reads none."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = compute()
        return value

    def __repr__(self) -> str:
        return f"AbGroup({self.describe()})"


def ab_from_invariants(
    rank: int, torsion: Sequence[int] = (), name: str | None = None
) -> AbGroup:
    """Z^rank x Z/t1 x ... directly from its isomorphism type."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    n = rank + len(torsion)
    cols = []
    for i, d in enumerate(torsion):
        if d < 2:
            raise ValueError("torsion entries must be >= 2")
        col = [0] * n
        col[rank + i] = d
        cols.append(col)
    return AbGroup(n, IntMatrix.from_columns(cols, n), name=name)


def _parse_int_list(text: str, line: int | None) -> list[int]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ScenarioError(f"expected [..] list, got {text!r}", line)
    inner = text[1:-1].strip()
    if not inner:
        return []
    try:
        return [int(tok) for tok in inner.replace(",", " ").split()]
    except ValueError:
        raise ScenarioError(f"bad integer list {text!r}", line) from None


def _parse_matrix(text: str, line: int | None) -> list[list[int]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ScenarioError(f"expected [[..],..] matrix, got {text!r}", line)
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [_parse_int_list(chunk, line) for chunk in _split_top_level(inner)]


def abelian_from_fields(
    fields: Sequence[tuple[str, str]], name: str | None = None, line: int | None = None
) -> AbGroup:
    """The group of an abelian literal (a scenario ``[group] abelian``
    section, or the CLI's ``--group "abelian ..."``) from its key=value
    fields: ``relations=[[..],..]``, one row per generator, or
    ``rank=r torsion=[t1,..]``; the first of a repeated key counts.  A
    malformed list is a ScenarioError at ``line``, a malformed number or
    matrix a ValueError."""
    get = dict(reversed(fields)).get
    if get("relations") is not None:
        rows = _parse_matrix(get("relations"), line)
        return AbGroup(len(rows), IntMatrix(rows, cols=len(rows[0]) if rows else 0), name=name)
    rank = int(get("rank", "0") or 0)
    torsion = _parse_int_list(get("torsion", "[]") or "[]", line)
    return ab_from_invariants(rank, torsion, name=name)


class AbHom:
    """Integer matrix codomain-gens x domain-gens, checked well-defined."""

    def __init__(
        self,
        domain: AbGroup,
        codomain: AbGroup,
        matrix: IntMatrix,
        name: str | None = None,
    ):
        if matrix.shape != (codomain.ngens, domain.ngens):
            raise InvalidHomomorphismError(
                f"matrix shape {matrix.shape} != "
                f"({codomain.ngens}, {domain.ngens})"
            )
        for col in domain.relations.columns():
            if solve_in_column_lattice(codomain.snf, matrix.matvec(col)) is None:
                raise InvalidHomomorphismError(
                    "matrix does not map domain relations into codomain relations"
                )
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.name = name

    @classmethod
    def _from_matrix(cls, domain: AbGroup, codomain: AbGroup, matrix: IntMatrix) -> "AbHom":
        """The hom of ``matrix``, already verified between these two groups
        by the caller's construction: no relation is solved again (the
        counterpart of ``GroupHom._from_codes``)."""
        hom = cls.__new__(cls)
        hom.domain, hom.codomain, hom.matrix, hom.name = domain, codomain, matrix, None
        return hom

    def apply(self, coords: Sequence[int]) -> tuple[int, ...]:
        return self.codomain.from_raw(self.matrix.matvec(self.domain.lift(coords)))

    def __call__(self, coords: Sequence[int]) -> tuple[int, ...]:
        return self.apply(coords)

    def then(self, other: "AbHom") -> "AbHom":
        return AbHom(self.domain, other.codomain, other.matrix * self.matrix)

    def is_injective(self) -> bool:
        K, _ = ab_kernel(self)
        return K.is_trivial()

    def is_surjective(self) -> bool:
        C, _ = ab_cokernel(self)
        return C.is_trivial()

    def is_zero(self) -> bool:
        return all(
            self.apply(self.domain.generator_element(j)) == self.codomain.zero()
            for j in range(self.domain.ngens)
        )

    @classmethod
    def identity_hom(cls, A: AbGroup) -> "AbHom":
        return cls(A, A, IntMatrix.identity(A.ngens))

    @classmethod
    def zero_hom(cls, A: AbGroup, B: AbGroup) -> "AbHom":
        return cls(A, B, IntMatrix.zeros(B.ngens, A.ngens))

    def __repr__(self) -> str:
        return f"AbHom({self.domain.describe()} -> {self.codomain.describe()})"


def solve_columns(M: IntMatrix, targets: IntMatrix) -> IntMatrix | None:
    """X with M*X = targets, from one Smith normal form of M, or None when
    some target column lies outside M's column lattice."""
    snf = smith_normal_form(M)
    cols = []
    for t in targets.columns():
        x = solve_in_column_lattice(snf, t)
        if x is None:
            return None
        cols.append(x)
    return IntMatrix.from_columns(cols, M.cols)


def kernel_lattice_basis(f: AbHom) -> IntMatrix:
    """Basis of {a in Z^n_dom : f(a) lies in the codomain relation lattice}."""
    block = f.matrix.hstack(f.codomain.relations)
    snf = smith_normal_form(block)
    kernel_cols = [snf.V.column(j) for j in range(snf.nonzero_count, block.cols)]
    proj = IntMatrix.from_columns(
        [col[: f.domain.ngens] for col in kernel_cols], f.domain.ngens
    )
    return column_lattice_basis(proj)


def image_lattice_basis(f: AbHom) -> IntMatrix:
    """Basis of im(f) + relation lattice inside Z^n_cod."""
    return column_lattice_basis(f.matrix.hstack(f.codomain.relations))


def _spanned_subgroup(basis: IntMatrix, A: AbGroup) -> tuple[AbGroup, AbHom]:
    """The subgroup of A spanned by a lattice basis that contains A's
    relation lattice, with its inclusion."""
    rels = solve_columns(basis, A.relations) if basis.cols else IntMatrix.zeros(0, 0)
    if rels is None:
        raise FlatlabError("solve_columns: target outside the lattice")
    S = AbGroup(basis.cols, rels)
    return S, AbHom(S, A, basis)


def ab_kernel(f: AbHom) -> tuple[AbGroup, AbHom]:
    """Kernel with its inclusion."""
    return _spanned_subgroup(kernel_lattice_basis(f), f.domain)


def ab_image(f: AbHom) -> tuple[AbGroup, AbHom]:
    """Image subgroup of the codomain with its inclusion."""
    return _spanned_subgroup(image_lattice_basis(f), f.codomain)


def ab_quotient(A: AbGroup, extra: IntMatrix) -> tuple[AbGroup, AbHom]:
    """A modulo extra's columns, with the projection from A."""
    Q = AbGroup(A.ngens, A.relations.hstack(extra))
    return Q, AbHom(A, Q, IntMatrix.identity(A.ngens))


def ab_cokernel(f: AbHom) -> tuple[AbGroup, AbHom]:
    """Cokernel with the projection from the codomain."""
    return ab_quotient(f.codomain, f.matrix)


def ab_pullback(f: AbHom, g: AbHom) -> tuple[AbGroup, AbHom, AbHom]:
    """P = kernel of (f, -g) : E + X -> G, with its two projections.

    The square commutes by construction and is not checked: P's generators
    are a basis of the lattice {(e, x) : f(e) - g(x) in rel(G)}, so
    f(pr_e(p)) = g(pr_x(p)) in G on each of them, and so on all of P."""
    if f.codomain is not g.codomain and not f.codomain.same_presentation(g.codomain):
        raise InvalidHomomorphismError("pullback legs must share a codomain")
    E, X = f.domain, g.domain
    direct_sum = AbGroup(
        E.ngens + X.ngens,
        IntMatrix.diag_blocks(E.relations, X.relations),
        name=f"{E.describe()}+{X.describe()}",
    )
    h = AbHom(direct_sum, f.codomain, f.matrix.hstack(g.matrix.neg()))
    P, incl = ab_kernel(h)
    pr_e = AbHom(P, E, incl.matrix.row_slice(0, E.ngens))
    pr_x = AbHom(P, X, incl.matrix.row_slice(E.ngens, E.ngens + X.ngens))
    P.name = "P"
    return P, pr_e, pr_x


@cache
def _exponent_sums(words: tuple[Word, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """The words' nonzero exponent-sum columns over k generators, each with
    its first nonzero entry positive: <X | R>^ab is Z^|X| modulo R's."""
    cols = []
    for w in words:
        col = [sum(e for s, e in w.letters if s == i) for i in range(k)]
        if any(col):
            cols.append(tuple(c if next(filter(None, col)) > 0 else -c for c in col))
    return tuple(cols)


def abelian_hom_group(A: Presentation, M: AbGroup) -> tuple[AbGroup, AbHom]:
    """Hom(A, M) for an abelian M, with its inclusion into M^k, k = |X|: a
    hom is the tuple of its generator images, block i of a column of M^k.

    Hom(A, M) = Hom(A^ab, M), and A^ab is Z^k modulo the relators'
    exponent sums e_r, so the homs are the kernel of M^k -> M^|R|,
    (m_i) -> (sum_i e_ri m_i)_r.  M^1 is M itself, so a one-generator A
    builds no group beyond M."""
    k, n = len(A.generators), M.ngens
    sums = _exponent_sums(A.relators, k)

    def power(j: int) -> AbGroup:
        if j == 1:
            return M
        return AbGroup(j * n, reduce(IntMatrix.diag_blocks, [M.relations] * j, IntMatrix.zeros(0, 0)))

    Mk = power(k)
    if not sums:
        return Mk, AbHom.identity_hom(Mk)
    matrix = IntMatrix([
        [e[i] if a == b else 0 for i in range(k) for b in range(n)] for e in sums for a in range(n)
    ])
    return ab_kernel(AbHom(Mk, power(len(sums)), matrix))


def n_torsion(A: AbGroup, n: int) -> tuple[AbGroup, AbHom]:
    """A[n] = {a : n*a = 0} = Hom(<x | x^n>, A), with its inclusion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return abelian_hom_group(Presentation(("x",), (Word.generator(0, n),)), A)


def perm_to_abelian(G, caps: Caps = DEFAULT_CAPS):
    """Bridge a finite abelian permutation group to an AbGroup.

    Generators correspond; the relation lattice is recovered from the
    walk defects of a breadth-first exponent-vector assignment.  The result
    is cross-checked against G: it must be finite with G's number of
    elements of each order, which fixes a finite abelian group up to
    isomorphism (see ``permgroup.is_isomorphic``).
    """
    if not G.is_abelian():
        raise NotAbelianError("perm_to_abelian needs an abelian group")
    amb = G.ambient(caps)
    moves = [amb.right(g) for g in G.gen_codes(caps)]
    k = len(moves)
    vec: dict = {0: (0,) * k}
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            ve = vec[e]
            for i, r in enumerate(moves):
                x = r(e)
                if x not in vec:
                    vec[x] = tuple(v + (1 if j == i else 0) for j, v in enumerate(ve))
                    nxt.append(x)
        frontier = nxt
    defects = set()
    for e in G.codes(caps):
        ve = vec[e]
        for i, r in enumerate(moves):
            w = tuple(v + (1 if j == i else 0) for j, v in enumerate(ve))
            d = tuple(a - b for a, b in zip(w, vec[r(e)]))
            if any(d):
                defects.add(d)
    R = IntMatrix.from_columns(sorted(defects), k)
    A = AbGroup(k, R, name=G.name)
    hist = G.order_histogram(caps)
    if A.rank or dict(Counter(map(A.element_order, A.elements(caps)))) != hist:
        raise FlatlabError(
            f"perm_to_abelian disagreement: lattice says "
            f"{A.canonical_invariants()}, element orders say {hist}"
        )
    return A


def enumerate_ab_homs(
    A: AbGroup, B: AbGroup, caps: Caps = DEFAULT_CAPS
) -> list[AbHom]:
    """Every homomorphism A -> B, by exhaustive choice of images for A's
    canonical generators.  Needs the hom set to be finite: either A is
    finite, or B is finite (then free generators range over all of B)."""
    if A.rank and B.rank:
        raise CapExceededError("Hom(A, B) is infinite: both have free rank")
    if A.rank:
        pool = B.elements(caps)
        free_candidates = [pool] * A.rank
    else:
        free_candidates = []
    torsion_pool = B.torsion_elements(caps)
    tors_candidates = []
    for d in A.invariants:
        tors_candidates.append(
            [y for y in torsion_pool if B.scale(d, y) == B.zero()]
        )
    total = 1
    for cand in free_candidates + tors_candidates:
        total *= len(cand)
        if total > caps.hom_search:
            raise CapExceededError("abelian hom search exceeds cap")
    gen_canon = [A.from_raw(tuple(1 if i == j else 0 for i in range(A.ngens)))
                 for j in range(A.ngens)]
    out = []
    for choice in iproduct(*(free_candidates + tors_candidates)):
        cols = []
        for j in range(A.ngens):
            img = B.zero()
            for coeff, target in zip(gen_canon[j], choice):
                img = B.add(img, B.scale(coeff, target))
            cols.append(B.lift(img))
        out.append(AbHom(A, B, IntMatrix.from_columns(cols, B.ngens)))
    return out
