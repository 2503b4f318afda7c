"""Conjugacy of queue actions and effective conjugator sets.

Two actions p, q are conjugate when some z solves p z = z q.  For queue
actions this holds exactly when the write subwords and the read subwords
are cyclic shifts of each other, which `conjugate` checks directly.  The
full solution set of p z = z q is rational: `conjugator_nfa` builds an
automaton accepting the normal-form words of all conjugators, by slicing
an overapproximation (actions whose projections conjugate the projections)
into slices of constant overlap-width gain on each side and intersecting
matching slices.

The slices g_k of one side (gain at least k) are nested, so they are built
in one downward pass: g_top is the words whose gain is witnessed at the
largest width top = |write-proj(x)|, and g_m adds those witnessed at width
m to g_{m+1}.  The right-hand side runs the same pass on the dual pair,
whose top is |write-proj(dual y)| = |read-proj(y)|: the dual side's slices
range up to the read length of y, not to the write length of x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import Alphabet, NormalForm, dual_nf, eval_word, mul
from .automata import (
    Nfa,
    dual_automaton,
    inverse_projection,
    normal_form_dfa,
    shuffle_image,
    write_star,
)

__all__ = [
    "free_conjugate",
    "conjugate",
    "free_conjugator_lang",
    "overconj_nfa",
    "g_k_nfa",
    "ConjugatorAutomaton",
    "conjugator_nfa",
    "find_conjugator",
]


def free_conjugate(u: str, v: str) -> bool:
    """Are two letter words conjugate in the free monoid (cyclic shifts)?"""
    return len(u) == len(v) and v in u + u


def conjugate(p: NormalForm, q: NormalForm) -> bool:
    """Does some action z satisfy p z = z q?

    Decided via the projections: p and q are conjugate exactly when their
    write subwords and their read subwords are cyclic shifts of each other.
    The relation is symmetric and coincides with iterated transposition.
    """
    return free_conjugate(p.write_projection, q.write_projection) and free_conjugate(
        p.read_projection, q.read_projection
    )


def free_conjugator_lang(u: str, v: str, alphabet: Alphabet) -> Nfa:
    """Automaton over plain letters for { z | u z = z v } in the free monoid.

    For nonempty u this is the union of r(sr)* over the factorizations
    u = rs with v = sr; when both words are empty every z is a solution.
    """
    letters = tuple(alphabet.letters)
    if not u and not v:
        return Nfa.universal(letters)
    out = Nfa.empty(letters)
    for cut in range(len(u) + 1):
        r, s = u[:cut], u[cut:]
        if s + r == v:
            out = out.union(Nfa.word(r, letters).concat(Nfa.word(s + r, letters).star()))
    return out.minimize()


def overconj_nfa(x: NormalForm, y: NormalForm, alphabet: Alphabet) -> Nfa:
    """Words whose class conjugates both projections of x to those of y.

    Accepts every representative (not only normal forms) of the actions z
    with write-proj(x z) = write-proj(z y) and the same on the read side;
    this set contains all genuine conjugators of x and y.
    """
    on_writes = free_conjugator_lang(x.write_projection, y.write_projection, alphabet)
    on_reads = free_conjugator_lang(x.read_projection, y.read_projection, alphabet)
    return inverse_projection(on_writes, alphabet, "writes").intersect(
        inverse_projection(on_reads, alphabet, "reads")
    )


def _cycle_prefixes(v: str, alphabet: Alphabet) -> Nfa:
    """Prefix closure of v* for nonempty v: walks around a cycle spelling v."""
    n = len(v)
    trans = {(i, v[i]): {(i + 1) % n} for i in range(n)}
    return Nfa(tuple(alphabet.letters), set(range(n)), {0}, set(range(n)), trans)


def _slices(x: NormalForm, y: NormalForm, alphabet: Alphabet, low: int = 0) -> list:
    """The slices [g_low, ..., g_top, empty] of `g_k_nfa`, top = |write-proj(x)|.

    Built downward in one pass: g_m = minimize(g_{m+1} | (term_m & shape)),
    where term_m encodes the witnesses u of length m and
    shape = normal_form_dfa & overconj_nfa(x, y) is built once.  As
    intersection distributes over union, g_m is the union of the terms
    m..top cut down to shape, and minimize returns its minimal DFA.
    """
    letters = tuple(alphabet.letters)
    syms = alphabet.symbols
    x2 = x.overlap
    x23 = x.write_projection
    out = [Nfa.empty(syms)]
    low = max(low, 0)
    if low > len(x23):
        return out
    shape = normal_form_dfa(alphabet).to_nfa().intersect(overconj_nfa(x, y, alphabet))
    for m in range(len(x23), low - 1, -1):
        u = x23[:m]
        if m == len(x23):
            part_z2 = Nfa.universal(letters)
        else:
            part_z2 = _cycle_prefixes(x23[m:], alphabet)
        tails = {u[j:] for j in range(1, len(u) + 1) if x2.endswith(u[:j])}
        part_z1 = Nfa.universal(letters).concat(Nfa.word(u, letters))
        if tails:
            part_z1 = part_z1.union(Nfa.finite(tails, letters))
        term = (
            part_z1.map_symbols(str.upper, syms)
            .concat(shuffle_image(part_z2, alphabet))
            .concat(write_star(alphabet))
        )
        out.append(out[-1].union(term.intersect(shape)).minimize())
    out.reverse()
    return out


def g_k_nfa(x: NormalForm, y: NormalForm, k: int, alphabet: Alphabet) -> Nfa:
    """Normal-form words of projection-compatible z whose overlap width grows
    by at least k when multiplied by x on the left.

    A normal form reads(z1) pairs(z2) writes(z3) qualifies exactly when some
    letter word u with k <= |u| <= |write-proj(x)| is a suffix of x2 z1 while
    u z2 is a prefix of x2 x3 z2.  The second condition makes u the prefix
    of x2 x3 of its length, so each length m of u gives one term, regular
    constraints on z1 and z2.  The slices are nested, g_k = g_{k+1} | term_k,
    so one pass from m = |write-proj(x)| down to k builds them all; for the
    right-hand slices of `conjugator_nfa` (this function on the dual pair)
    the pass starts at |write-proj(dual y)| = |read-proj(y)|.
    """
    return _slices(x, y, alphabet, k)[0]


@dataclass(frozen=True)
class ConjugatorAutomaton:
    """Automaton accepting the normal-form words of all z with x z = z y."""

    nfa: Nfa
    x: NormalForm
    y: NormalForm

    def contains(self, z: Union[NormalForm, str]) -> bool:
        """Is the action (given as normal form or any word) a conjugator?"""
        w = z.word() if isinstance(z, NormalForm) else eval_word(z).word()
        return self.nfa.accepts(w)


def conjugator_nfa(x: NormalForm, y: NormalForm, alphabet: Alphabet) -> ConjugatorAutomaton:
    """Effective rational description of { z | x z = z y }.

    Within the projection-compatible set, z is a conjugator exactly when
    left multiplication by x and right multiplication by y raise its
    overlap width by the same amount k; that amount is bounded by the
    write-projection length of x, so finitely many slices suffice.  The
    right-hand slices are obtained from left-hand slices of the dual pair;
    slices where either side is already empty add nothing.
    """
    if not conjugate(x, y):
        return ConjugatorAutomaton(Nfa.empty(alphabet.symbols).minimize(), x, y)
    left = _slices(x, y, alphabet)
    right = _slices(dual_nf(y), dual_nf(x), alphabet)
    result = Nfa.empty(alphabet.symbols)
    for k in range(min(len(left), len(right)) - 1):
        exact_left = left[k].difference(left[k + 1])
        exact_right = dual_automaton(right[k].difference(right[k + 1]))
        result = result.union(exact_left.intersect(exact_right))
    return ConjugatorAutomaton(result.minimize(), x, y)


def find_conjugator(
    p: NormalForm, q: NormalForm, alphabet: Alphabet
) -> Optional[NormalForm]:
    """A verified z with p z = z q (shortest accepted by the conjugator
    automaton), or None when p and q are not conjugate."""
    if not conjugate(p, q):
        return None
    witness = conjugator_nfa(p, q, alphabet).nfa.shortest_accepted()
    if witness is None:
        raise RuntimeError(f"conjugate pair without automaton witness: {p}, {q}")
    z = NormalForm.from_word(witness)
    if mul(p, z) != mul(z, q):
        raise RuntimeError(f"witness {z} failed verification for {p}, {q}")
    return z
