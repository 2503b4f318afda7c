"""Recognizable subsets of the queue-action monoid.

Regular conditions on the write and read subwords alone cannot constrain
how writes interleave with reads.  The missing ingredient is the family of
sets Omega_k: an action q lies in Omega_k when no distinct action shares
both its projections while having overlap width in (ow(q), k].  Boolean
combinations of inverse-projection conditions and Omega_k sets ("simple
sets") are exactly the recognizable subsets; `compile_simple` turns such a
combination into a DFA over operation symbols, and `eval_simple` decides
membership directly on a normal form.

The automata for Omega_k and for m-shuffled words are direct deterministic
steppers, explored once and minimized once.  They rest on one fact: the
levels m at which a word is m-shuffled are downward closed, so a single
number, the shuffled level, tracks all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import Alphabet, NormalForm, overlap
from .automata import Dfa, Nfa, inverse_projection, nfa_from_regex

__all__ = [
    "k_shuffled",
    "in_omega",
    "shuffled_nfa",
    "omega_nfa",
    "PiIn",
    "PiBarIn",
    "Omega",
    "And",
    "Or",
    "Not",
    "SimpleSetExpr",
    "eval_simple",
    "compile_simple",
    "parse_simple_expr",
]


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")


def k_shuffled(word: str, k: int) -> bool:
    """Does the i-th write precede the i-th of the last k reads, for i <= k?

    Requires at least k writes and k reads; k = 0 always holds.
    """
    _check_k(k)
    if k == 0:
        return True
    writes = [pos for pos, sym in enumerate(word) if sym.islower()]
    reads = [pos for pos, sym in enumerate(word) if sym.isupper()]
    if len(writes) < k or len(reads) < k:
        return False
    last_reads = reads[len(reads) - k:]
    return all(writes[i] < last_reads[i] for i in range(k))


def in_omega(q: NormalForm, k: int) -> bool:
    """Is q in Omega_k?

    The actions sharing q's projections correspond exactly to the lengths l
    such that the length-l suffix of the read projection is a prefix of the
    write projection; q is in Omega_k when no such alternative length lies
    strictly between ow(q) and k+1, that is, when the longest suffix of the
    last k reads that is a prefix of the first k writes is no longer than
    ow(q).
    """
    _check_k(k)
    writes, reads = q.write_projection, q.read_projection
    return len(overlap(reads[max(0, len(reads) - k):], writes[:k])) <= q.overlap_width()


# ---------------------------------------------------------------------------
# Automata for Omega_k
#
# The levels m at which a word is m-shuffled are downward closed (if the
# first m writes precede the last m reads one for one, the first m-1 precede
# the last m-1), so one number, the shuffled level s, replaces any per-write
# bookkeeping.  A write leaves s unchanged; a read makes the word
# (m+1)-shuffled exactly when it was m-shuffled and m+1 writes came before
# it, so s becomes min(s + 1, writes seen).


def shuffled_nfa(level: int, alphabet: Alphabet) -> Nfa:
    """Automaton for the words that are `level`-shuffled.

    States are (writes seen, shuffled level), both capped at `level`; these
    (level+1)(level+2)/2 states already form the minimal automaton.
    """
    _check_k(level)
    letters = alphabet.letters

    def moves(state):
        writes, s = state
        wrote, read = (min(writes + 1, level), s), (writes, min(s + 1, writes))
        return [(c, wrote) for c in letters] + [(c.upper(), read) for c in letters]

    return Dfa.explore(alphabet.symbols, (0, 0), moves, lambda state: state[1] == level).to_nfa()


def omega_nfa(k: int, alphabet: Alphabet) -> Nfa:
    """Automaton for the words whose class lies in Omega_k.

    Those are the words that are m-shuffled for every border length m <= k,
    where the first m written letters are the last m read letters.  The
    state is (first <= k writes, shuffled level, reads), with `reads` the
    longest suffix of the last <= k read letters that is prefix-compatible
    with the writes; a longer suffix stays incompatible as the writes grow.
    """
    return _omega_dfa(k, alphabet).to_nfa()


def _omega_dfa(k: int, alphabet: Alphabet) -> Dfa:
    """The minimal DFA that `omega_nfa` returns as an Nfa."""
    _check_k(k)
    symbols = alphabet.symbols

    def step(state, sym):
        writes, s, reads = state
        if sym.islower():
            if len(writes) == k:
                return state
            writes += sym
        else:
            reads += sym.lower()
            if len(reads) > k:
                reads = reads[1:]
            s = min(s + 1, len(writes))
        while not (reads.startswith(writes) or writes.startswith(reads)):
            reads = reads[1:]
        return (writes, s, reads)

    def moves(state):
        return [(sym, step(state, sym)) for sym in symbols]

    def accepting(state):
        writes, s, reads = state
        return len(overlap(reads, writes)) <= s

    return Dfa.explore(symbols, ("", 0, ""), moves, accepting).minimize()


# ---------------------------------------------------------------------------
# Simple sets: Boolean combinations of projection conditions and Omega_k


@dataclass(frozen=True)
class PiIn:
    """Write projection lies in a regular letter language."""

    lang: Nfa


@dataclass(frozen=True)
class PiBarIn:
    """Read projection lies in a regular letter language."""

    lang: Nfa


@dataclass(frozen=True)
class Omega:
    k: int


@dataclass(frozen=True)
class And:
    left: "SimpleSetExpr"
    right: "SimpleSetExpr"


@dataclass(frozen=True)
class Or:
    left: "SimpleSetExpr"
    right: "SimpleSetExpr"


@dataclass(frozen=True)
class Not:
    expr: "SimpleSetExpr"


SimpleSetExpr = Union[PiIn, PiBarIn, Omega, And, Or, Not]


def eval_simple(expr: SimpleSetExpr, q: NormalForm) -> bool:
    """Membership of the action q in the set described by `expr`."""
    if isinstance(expr, PiIn):
        return expr.lang.accepts(q.write_projection)
    if isinstance(expr, PiBarIn):
        return expr.lang.accepts(q.read_projection)
    if isinstance(expr, Omega):
        return in_omega(q, expr.k)
    if isinstance(expr, And):
        return eval_simple(expr.left, q) and eval_simple(expr.right, q)
    if isinstance(expr, Or):
        return eval_simple(expr.left, q) or eval_simple(expr.right, q)
    if isinstance(expr, Not):
        return not eval_simple(expr.expr, q)
    raise TypeError(f"not a simple-set expression: {expr!r}")


def compile_simple(expr: SimpleSetExpr, alphabet: Alphabet) -> Dfa:
    """Minimal DFA over operation symbols accepting { w | nf(w) in the set }.

    Every atom compiles to an automaton closed under equivalence of words,
    so the result accepts a word exactly when it accepts its normal form.
    One product of the distinct atoms' minimal DFAs, accepting where the
    expression holds on the atoms' acceptance bits, is minimized once.
    """
    # program is the expression in postfix; atoms key Omega by k, the others by object
    atoms, program, todo = {}, [], [expr]
    while todo:
        node = todo.pop()
        if isinstance(node, (PiIn, PiBarIn, Omega)):
            program.append(atoms.setdefault(node, len(atoms)))
        elif isinstance(node, (And, Or, Not)):
            program.append(type(node))
            todo += (node.expr,) if isinstance(node, Not) else (node.left, node.right)
        else:
            raise TypeError(f"not a simple-set expression: {node!r}")
    program.reverse()
    symbols, rows, finals = alphabet.symbols, [], []
    for atom in atoms:
        if isinstance(atom, Omega):
            dfa = _omega_dfa(atom.k, alphabet)
        else:
            track = "writes" if isinstance(atom, PiIn) else "reads"
            dfa = inverse_projection(atom.lang, alphabet, track).determinize().minimize()
        n = len(dfa.states)  # minimize numbers the states 0..n-1; n is the dead state
        rows.append([tuple(dfa.transitions.get((q, sym), n) for sym in symbols) for q in range(n + 1)])
        finals.append(dfa.accepting)

    def moves(state):
        return list(zip(symbols, zip(*[row[q] for row, q in zip(rows, state)])))

    def accepting(state):
        stack = []
        for op in program:
            if op is Not:
                stack.append(not stack.pop())
            elif op is And or op is Or:
                right, left = stack.pop(), stack.pop()
                stack.append(left and right if op is And else left or right)
            else:
                stack.append(state[op] in finals[op])
        return stack.pop()

    return Dfa.explore(symbols, (0,) * len(rows), moves, accepting).minimize()


# ---------------------------------------------------------------------------
# Textual syntax: pi(REGEX), pibar(REGEX), omega(K) with & | ! and parens


def parse_simple_expr(text: str, alphabet: Alphabet) -> SimpleSetExpr:
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def peek():
        skip_ws()
        return text[pos] if pos < len(text) else None

    def expect(ch):
        nonlocal pos
        if peek() != ch:
            raise ValueError(f"expected {ch!r} at position {pos} in {text!r}")
        pos += 1

    def balanced_argument() -> str:
        # argument of pi(...)/pibar(...): scan to the matching close paren
        nonlocal pos
        expect("(")
        depth = 1
        start = pos
        while pos < len(text):
            if text[pos] == "(":
                depth += 1
            elif text[pos] == ")":
                depth -= 1
                if depth == 0:
                    arg = text[start:pos]
                    pos += 1
                    return arg
            pos += 1
        raise ValueError(f"unbalanced parentheses in {text!r}")

    def parse_or() -> SimpleSetExpr:
        out = parse_and()
        while peek() == "|":
            expect("|")
            out = Or(out, parse_and())
        return out

    def parse_and() -> SimpleSetExpr:
        out = parse_not()
        while peek() == "&":
            expect("&")
            out = And(out, parse_not())
        return out

    def parse_not() -> SimpleSetExpr:
        nonlocal pos
        if peek() == "!":
            expect("!")
            return Not(parse_not())
        if peek() == "(":
            expect("(")
            inner = parse_or()
            expect(")")
            return inner
        skip_ws()
        for name in ("pibar", "pi", "omega"):
            if text.startswith(name, pos):
                pos += len(name)
                if name == "omega":
                    arg = balanced_argument().strip()
                    if not arg.isdigit():
                        raise ValueError(f"omega wants a number, got {arg!r}")
                    return Omega(int(arg))
                lang = nfa_from_regex(balanced_argument().strip(), alphabet)
                return PiIn(lang) if name == "pi" else PiBarIn(lang)
        raise ValueError(f"cannot parse expression at position {pos} in {text!r}")

    out = parse_or()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    return out
