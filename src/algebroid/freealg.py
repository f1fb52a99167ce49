"""Degree-truncated free (almost-)Lie algebroid generated by an anchored
bundle with connection.

Basis words are bracket trees over the generators, ``(degree, gen, parts)``
tuples that compare, sort and hash in the Hall order (``index`` is keyed by
them).  In almost mode the basis is the anticommutative-magma normal form
(antisymmetry only); in quotient mode it is the Hall basis, and each bracket
of Hall words is rewritten in it by the Jacobi identity, exactly and with
integer coefficients.  Anchors extend by vector-field commutators, and the
connection extends by the bracket formula that keeps the compatibility tensor
of the extension identically zero degree by degree.  The rank profile takes
the extended anchor's rank and closure defect from one SVD per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from typing import Mapping, NamedTuple

import numpy as np

from .exprjet import Block, Expr, Num, diff, e_add, e_mul, e_neg, e_sub
from .spec_model import AlgebroidSpec, Check, CheckReport, run_checks
from .calculus import KILLING, killing_frame_components, s_frame_components, take

__all__ = [
    "HallWord", "FreeTruncation", "hall_basis", "magma_basis", "free_extend",
    "cartan_extended_check", "killing_checks", "rank_profile_check",
    "jacobiator_check", "MAX_DEGREE",
]

MAX_DEGREE = 4          # waits on a size bound for the build (ROADMAP); the
                        # Hall rewriting itself has no ceiling
HALL_ORDER = "degree, then lexicographic on the recursive bracket structure"


class HallWord(NamedTuple):
    """A generator ``(1, a, None)`` or a pair ``(deg u + deg v, None, (u, v))``;
    compared, sorted and hashed as that tuple, in the Hall order."""

    degree: int
    gen: int | None
    parts: tuple["HallWord", "HallWord"] | None

    def __repr__(self):
        return word_str(self)


def leaf(a: int) -> HallWord:
    return HallWord(1, a, None)


def pair(u: HallWord, v: HallWord) -> HallWord:
    return HallWord(u.degree + v.degree, None, (u, v))


def word_str(w: HallWord) -> str:
    if w.gen is not None:
        return f"e{w.gen + 1}"
    return f"[{word_str(w.parts[0])},{word_str(w.parts[1])}]"


def is_hall(w: HallWord) -> bool:
    """Standard Hall condition: u > v, and for u = (u1, u2) also u2 <= v."""
    if w.gen is not None:
        return True
    u, v = w.parts
    if not (is_hall(u) and is_hall(v) and u > v):
        return False
    if u.gen is None and u.parts[1] > v:
        return False
    return True


def magma_basis(rank: int, degree: int) -> list[list[HallWord]]:
    """Anticommutative-magma normal forms per degree: all pairs (u, v) of
    lower-degree basis words with u > v, each level sorted in the word order."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}")
    levels = [[leaf(a) for a in range(rank)]]
    for d in range(2, degree + 1):
        levels.append(sorted(pair(u, v) for p in range(1, d) for u in levels[p - 1]
                             for v in levels[d - p - 1] if u > v))
    return levels


def hall_basis(rank: int, degree: int) -> list[list[HallWord]]:
    """Hall basis of the free Lie algebra per degree; degree-d counts match
    the Witt formula."""
    levels = magma_basis(rank, degree)
    return [[w for w in level if is_hall(w)] for level in levels]


# --------------------------------------------------------------------------
# Free truncation


Expansion = Mapping[HallWord, int]           # integer combination of basis words


@dataclass
class FreeTruncation:
    """Hall-word basis to degree d with extended anchors, bracket table, and
    extended connection coefficients.

    bracket_table maps ordered pairs (u, v), u != v, deg u + deg v <= d, to
    the expansion of [u, v] in the basis, with int coefficients in both modes:
    the signed pair in almost mode, the Hall rewriting in quotient mode.  A
    pair it lacks (u = v, or beyond the truncation) brackets to zero, as
    ``bracket_table.get((u, v), {})``.  conn maps each basis word w to the
    per-word 1-form coefficients of nabla w (degree-filtered: coefficients on
    words of degree > deg w vanish identically).
    """

    spec: AlgebroidSpec
    degree: int
    mode: str                                           # "almost" | "quotient"
    basis: tuple[tuple[HallWord, ...], ...]             # per degree
    anchor: dict                                        # word -> tuple[Expr]
    bracket_table: dict                                 # (u, v) -> Expansion
    conn: dict                                          # w -> {w': tuple[Expr]}

    @property
    def words(self) -> tuple[HallWord, ...]:
        return tuple(w for level in self.basis for w in level)

    def counts(self) -> list[int]:
        return [len(level) for level in self.basis]

    @cached_property
    def index(self) -> dict:
        """word -> position in ``words``."""
        return {w: k for k, w in enumerate(self.words)}

    @cached_property
    def structure(self) -> np.ndarray:
        """C[u, v, w], the coefficient of w in [u, v]: the bracket table's
        constants over ``words``.  Pairs beyond the truncation are
        zero-filled; checks only read pairs with degree sum within it."""
        idx = self.index
        C = np.zeros((len(idx),) * 3)
        for (u, v), expansion in self.bracket_table.items():
            C[idx[u], idx[v]] = _coefficients(expansion, idx)
        return C

    @cached_property
    def block_entries(self) -> dict:
        """block -> ``exprjet.Block`` of the extended anchor and connection
        over ``words``, and the base metric block when the spec has one: a
        block source for ``spec_model.eval_fields``."""
        idx, N, n = self.index, len(self.words), self.spec.dimension
        out = {
            "anchor": Block([((idx[w], i), 1, c)
                             for w, comps in self.anchor.items()
                             for i, c in enumerate(comps)], (N, n), "extended anchor"),
            "connection": Block([((idx[w], idx[w2], i), 1, c)
                                 for w, entries in self.conn.items()
                                 for w2, comps in entries.items()
                                 for i, c in enumerate(comps)], (N, N, n),
                                "extended connection"),
        }
        if "metric" in self.spec.block_entries:
            out["metric"] = self.spec.block_entries["metric"]
        return out


def _coefficients(expansion: Expansion, index: dict) -> np.ndarray:
    """The constant coefficients of ``expansion`` over ``index``'s words."""
    row = np.zeros(len(index))
    for w, c in expansion.items():
        row[index[w]] = c
    return row


def _sum(terms) -> Expr:
    """``terms`` added left to right onto ``Num(0.0)``."""
    return reduce(e_add, terms, Num(0.0))


def _nonzero(comps) -> bool:
    """Whether a 1-form has a component that is not a literal zero."""
    return any(not (isinstance(c, Num) and c.value == 0.0) for c in comps)


def _commutator_exprs(rho_u, rho_v, memo) -> tuple[Expr, ...]:
    """[rho_u, rho_v], its derivatives taken through the ``diff`` memo."""
    n = len(rho_u)
    return tuple(_sum(e_sub(e_mul(rho_u[j], diff(rho_v[i], j, memo)),
                            e_mul(rho_v[j], diff(rho_u[i], j, memo)))
                      for j in range(n)) for i in range(n))


def _jacobiator(table, w1, w2, w3) -> dict:
    """[w1, [w2, w3]] + [w2, [w3, w1]] + [w3, [w1, w2]] over ``table``."""
    out: dict = {}
    for a, b, c in ((w1, w2, w3), (w2, w3, w1), (w3, w1, w2)):
        for w, c1 in table.get((b, c), {}).items():
            for w2, c2 in table.get((a, w), {}).items():
                out[w2] = out.get(w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c != 0}


def _hall_bracket(u: HallWord, v: HallWord, memo: dict) -> dict:
    """[u, v] of Hall words in the Hall basis, with integer coefficients
    (M. Hall, Proc. AMS 1, 1950; C. Reutenauer, Free Lie Algebras, ch. 4):
    a pair that fails the Hall condition is rewritten by the Jacobi identity
    [[a, b], v] = [[a, v], b] + [a, [b, v]]."""
    if u == v:
        return {}
    if (u, v) not in memo:
        if u < v:
            out = {w: -c for w, c in _hall_bracket(v, u, memo).items()}
        elif u.gen is not None or u.parts[1] <= v:
            out = {pair(u, v): 1}
        else:
            a, b = u.parts
            terms = [(c, w, b) for w, c in _hall_bracket(a, v, memo).items()]
            terms += [(c, a, w) for w, c in _hall_bracket(b, v, memo).items()]
            out = {}
            for c, x, y in terms:
                for w, c2 in _hall_bracket(x, y, memo).items():
                    out[w] = out.get(w, 0) + c * c2
            out = {w: c for w, c in out.items() if c != 0}
        memo[(u, v)] = out
    return memo[(u, v)]


def _build_connection(spec, basis, table, anchor, degree, memo):
    """Extend the connection degree by degree via the bracket identity
    nabla[u,v] = L_u(nabla v) - L_v(nabla u) - nabla_{rho(nabla u)}v
    + nabla_{rho(nabla v)}u.  Coefficients live on words of degree <= deg w."""
    n, block = spec.dimension, spec.block_entries["connection"]
    conn: dict = {}
    for a, w in enumerate(basis[0]):
        entries = {}
        for b, wb in enumerate(basis[0]):
            comps = tuple(e for index, _, e in block.entries if index[:2] == (a, b))
            if _nonzero(comps):
                entries[wb] = comps
        conn[w] = entries

    def lie_term(u, theta_map, out):
        # L_u(sum_w theta^w (x) w), theta^w a 1-form with Expr components
        rho_u = anchor[u]
        for w, theta in theta_map.items():
            _conn_add(out, w, tuple(
                _sum(t for j in range(n)
                     for t in (e_mul(rho_u[j], diff(theta[i], j, memo)),
                               e_mul(diff(rho_u[j], i, memo), theta[j])))
                for i in range(n)))
            for w2, c2 in table.get((u, w), {}).items():
                _conn_add(out, w2, tuple(e_mul(Num(float(c2)), theta[i])
                                         for i in range(n)))

    def contraction_term(theta_map_u, theta_map_v, out, sign):
        # -/+ nabla_{rho(nabla u)} v pieces
        for w1, theta in theta_map_u.items():
            rho_w1 = anchor[w1]
            for w2, phi in theta_map_v.items():
                scalar = _sum(e_mul(rho_w1[j], phi[j]) for j in range(n))
                comps = tuple(e_mul(Num(sign), e_mul(theta[i], scalar))
                              for i in range(n))
                _conn_add(out, w2, comps)

    for d in range(2, degree + 1):
        for w in basis[d - 1]:
            u, v = w.parts
            out: dict = {}
            lie_term(u, conn[v], out)
            neg: dict = {}
            lie_term(v, conn[u], neg)
            for w2, comps in neg.items():
                _conn_add(out, w2, tuple(e_neg(c) for c in comps))
            contraction_term(conn[u], conn[v], out, -1.0)
            contraction_term(conn[v], conn[u], out, +1.0)
            conn[w] = {w2: comps for w2, comps in out.items() if _nonzero(comps)}
    return conn


def _conn_add(store: dict, w: HallWord, comps):
    cur = store.get(w)
    if cur is None:
        store[w] = tuple(comps)
    else:
        store[w] = tuple(e_add(a, b) for a, b in zip(cur, comps))


def _magma_anchors(spec: AlgebroidSpec, levels, memo=None) -> dict:
    """Anchor expressions of every word in the magma ``levels``: the spec's
    for the generators, vector-field commutators for the rest.  They are kept
    on the spec by degree, so its quotient and almost truncations share them."""
    held = vars(spec).setdefault("_magma_anchors", {})
    memo = {} if memo is None else memo         # one memo across all the pairs
    if len(levels) not in held:
        block = spec.block_entries["anchor"]
        anchor = {w: tuple(e for (b, _), _, e in block.entries if b == a)
                  for a, w in enumerate(levels[0])}
        for level in levels[1:]:
            for w in level:
                u, v = w.parts
                anchor[w] = _commutator_exprs(anchor[u], anchor[v], memo)
        held[len(levels)] = anchor
    return dict(held[len(levels)])


def free_extend(spec: AlgebroidSpec, degree: int = 3,
                mode: str = "quotient") -> FreeTruncation:
    """Construct the degree-truncated free almost-Lie algebroid over the
    anchored bundle of ``spec`` (structure functions of the input are
    ignored; the bundle enters as generators), extend the connection, and in
    quotient mode keep the Hall words, with each bracket rewritten exactly in
    them by ``_hall_bracket``.  In almost mode the bracket of u != v is the
    signed pair: [u, v] if u > v, else -[v, u]."""
    if mode not in ("almost", "quotient"):
        raise ValueError(f"mode must be 'almost' or 'quotient', got {mode!r}")
    levels = magma_basis(spec.rank, degree)
    memo: dict = {}         # this build's derivatives, freed when it returns
    anchor = _magma_anchors(spec, levels, memo)
    if mode == "quotient":
        levels = [[w for w in level if is_hall(w)] for level in levels]
        anchor = {w: anchor[w] for level in levels for w in level}
    rewritten: dict = {}

    def bracket(u, v):
        if mode == "quotient":
            return _hall_bracket(u, v, rewritten)
        return {pair(u, v): 1} if u > v else {pair(v, u): -1}

    table = {(u, v): dict(sorted(bracket(u, v).items()))
             for u in anchor for v in anchor
             if u.degree + v.degree <= degree and u != v}

    conn = _build_connection(spec, levels, table, anchor, degree, memo)
    return FreeTruncation(spec=spec, degree=degree, mode=mode,
                          basis=tuple(tuple(level) for level in levels),
                          anchor=anchor, bracket_table=table, conn=conn)


# --------------------------------------------------------------------------
# Checks on the extension: rows over the truncation's fields at a chunk of points


def cartan_extended_check(free: FreeTruncation) -> Check:
    """max |S| over extended basis pairs with degree sum within truncation,
    by the frame formula on the extended data, whose structure C is the
    constant ``free.structure`` (so dC = 0).  With no connection entry
    written, omega = 0 and S = -dC vanishes; a non-finite rho or drho of a
    listed word, which the full formula turns into NaN by 0 * inf, sets NaN
    at its point."""
    idx = free.index
    a, b = np.array([(idx[u], idx[v]) for u, v in free.bracket_table],
                    dtype=int).reshape(-1, 2).T
    listed = sorted(set(a.tolist()))
    if free.block_entries["connection"].written:
        C = free.structure
        dC = np.broadcast_to(0.0, C.shape + (free.spec.dimension,))
        return Check(("cartan_extended",), {"anchor": 1, "connection": 1}, lambda f: (
            s_frame_components(f.rho, f.drho, C, dC, f.omega, f.domega, a, b),))

    def kernel(f):
        finite = (np.isfinite(f.rho).all((-2, -1))
                  & np.isfinite(take(f.drho, listed, -3)).all((-3, -2, -1)))
        return np.where(finite[..., None], np.zeros(len(a)), np.nan),
    return Check(("cartan_extended",), {"anchor": 1}, kernel)


def killing_checks(free: FreeTruncation) -> tuple[Check, Check]:
    """The Killing residual on the generator rows of the truncation (the
    base spec's own), then on all its rows, gated on the first."""
    r = len(free.basis[0])
    generators = Check(("killing_generators",), KILLING.reads, lambda f: (
        killing_frame_components(f.rho[..., :r, :], f.drho[..., :r, :, :], f.g,
                                 f.dg, f.omega[..., :r, :r, :]),))
    extended = Check(("killing_extended",), KILLING.reads, lambda f: (
        killing_frame_components(f.rho, f.drho, f.g, f.dg, f.omega),),
        gate="killing_generators")
    return generators, extended


def rank_profile_check(free: FreeTruncation) -> Check:
    """Per-point (generator rank, extended rank, closure defect), a profile
    read as a (points, 3) array.  One SVD of the extended anchor gives both:
    its rank counts the singular values above 1e-10 * max(1, max |rho|), and
    the defect is the largest norm of a next-degree commutator's part off the
    span np.linalg.lstsq keeps (singular values above eps * max(N, n) * s_max)."""
    r, words, idx = len(free.basis[0]), free.words, free.index
    ku, kv = np.array([(idx[u], idx[v]) for u in words for v in words
                       if u < v and u.degree + v.degree == free.degree + 1],
                      dtype=int).reshape(-1, 2).T

    def kernel(f):
        mat, drho = f.rho, f.drho
        finite = np.isfinite(mat).all((-2, -1))
        if not finite.all():        # the SVD would fail without naming the point
            bad = np.reshape(f.point, (-1, mat.shape[-1]))[np.argmin(finite)]
            raise ValueError(f"extended anchor not finite at point "
                             f"{tuple(float(c) for c in bad)}")
        scale = np.fmax(1.0, np.max(np.abs(mat), axis=(-2, -1)))   # NaN -> 1.0
        rank_gen = np.linalg.matrix_rank(mat[..., :r, :], tol=1e-10 * scale)
        # the vector-field commutators [rho_u, rho_v] of every closure pair
        vecs = (np.einsum("...kj,...kij->...ki", mat.take(ku, -2), drho.take(kv, -3))
                - np.einsum("...kj,...kij->...ki", mat.take(kv, -2), drho.take(ku, -3)))
        _, s, vt = np.linalg.svd(mat, full_matrices=False)
        rank_ext = np.count_nonzero(s > 1e-10 * scale[..., None], axis=-1)
        cut = np.finfo(float).eps * max(mat.shape[-2:]) * s[..., :1]   # lstsq's cutoff
        span = vt * (s > cut)[..., None]
        off = vecs - (vecs @ np.swapaxes(span, -2, -1)) @ span      # lstsq's residual
        return rank_gen, rank_ext, np.linalg.norm(off, axis=-1).max(-1, initial=0.0)
    return Check(("rank_generators", "rank_extended", "closure_defect"),
                 {"anchor": 1}, kernel)


def _triples(words, degree: int) -> list:
    """Index triples i < j < k of ``words``, sorted by degree, with degree sum
    <= ``degree``; each word of one has degree <= degree - 2."""
    low = sum(w.degree <= degree - 2 for w in words)
    return [t for t in combinations(range(low), 3)
            if sum(words[k].degree for k in t) <= degree]


def jacobiator_check(free: FreeTruncation, points,
                     tol_override: float | None = None) -> CheckReport:
    """Covariant constancy of the Jacobiator on the almost-mode truncation:
    the connection applied to Jac(triple) must match Jac on nabla-shifted
    arguments, for every basis triple with degree sum within truncation.
    A shifted row (triple, host, q) is listed only where nabla host has an
    entry at q: any other subtracts omega[host, q] = 0 times a Jac that is
    finite (the table's coefficients are constant +-1s), so it could change
    only the sign of a zero, and no NaN is lost."""
    if free.mode != "almost":
        raise ValueError("jacobiator_check needs a truncation built in almost mode")
    if free.degree < 3:
        raise ValueError("jacobiator_check needs degree >= 3")
    words, idx, table = free.words, free.index, free.bracket_table
    triples = [tuple(words[k] for k in t) for t in _triples(words, free.degree)]

    # Jac(triple) at jac[t]; Jac with a slot of triple t, held by word h,
    # replaced by word q at shifted_jac[row] for the row-th (t, h, q) of ``shifted``
    jac, shifted_jac, shifted = np.zeros((len(triples), len(words))), [], []
    for t, args in enumerate(triples):
        jac[t] = _coefficients(_jacobiator(table, *args), idx)
        for slot, host in enumerate(args):
            for q in sorted(free.conn[host]):
                swapped = list(args)
                swapped[slot] = q
                if len(set(swapped)) == 3:
                    jac_q = _jacobiator(table, *swapped)
                    if jac_q:
                        shifted_jac.append(_coefficients(jac_q, idx))
                        shifted.append((t, idx[host], idx[q]))

    ts, hosts, qs = np.array(shifted, dtype=int).reshape(-1, 3).T
    shifted_jac = np.array(shifted_jac).reshape(-1, len(words))

    def kernel(f):
        # nabla_i (Jac(args)) in the extended frame, at [t, i, w]: Jac is constant
        residual = np.einsum("...tv,...vwi->...tiw", jac, f.omega)
        # one product per element, subtracted row by row in order
        np.subtract.at(np.moveaxis(residual, -3, 0), ts, np.einsum(
            "...ri,rw->r...iw", f.omega[..., hosts, qs, :], shifted_jac))
        return residual,
    check = Check(("jacobiator_covariant_constancy",), {"connection": 0}, kernel)
    return run_checks(free, points, [check], tol_override)[0]
