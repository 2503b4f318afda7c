"""Queue actions: words of write/read operations and their normal forms.

A queue over a base alphabet ``A`` (lowercase ASCII letters) is transformed
by writing a letter to its tail or reading a letter from its head.  A word
mixing such operations is encoded as a plain string: a lowercase letter is
a write, the corresponding uppercase letter is the read of that letter, so
``"abBA"`` writes a, writes b, reads b, reads a.  Reading a letter that is
not at the head yields the absorbing error state, encoded here as ``None``.

Two words are equivalent when they transform every queue identically.  Each
equivalence class has a unique normal form: a block of reads, then a block
of write/read pairs of equal letters (the "overlap"), then a block of
writes.  ``rewrite_normalize`` computes it by a confluent, terminating
rewriting system; it is the reference engine that the fast paths are
checked against.  ``mul`` composes two normal forms directly in closed
form, ``eval_word`` folds it over a word, and ``equiv_oracle`` decides
equivalence semantically by running both words on finitely many queues.

Everything in this module is a pure function over immutable values, so it
is safe to use from several threads at once.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "Alphabet",
    "NormalForm",
    "act",
    "act_profile",
    "profile_equivalent",
    "equiv_oracle",
    "redexes",
    "apply_redex",
    "rewrite_normalize",
    "rewrite_trace",
    "eval_word",
    "overlap",
    "mul",
    "proj",
    "dual",
    "dual_nf",
    "ow",
    "shuffle",
    "embed_q2",
    "embed_product",
    "is_write",
    "is_read",
    "parse_word",
    "format_word",
    "all_words",
]

BOT_TOKEN = "BOT"
EMPTY_TOKEN = "e"


def is_write(sym: str) -> bool:
    return sym.islower()


def is_read(sym: str) -> bool:
    return sym.isupper()


@dataclass(frozen=True)
class Alphabet:
    """Ordered base alphabet of at least two distinct lowercase letters."""

    letters: str = "ab"

    def __post_init__(self):
        if len(self.letters) < 2:
            raise ValueError("alphabet needs at least two letters")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"alphabet letters must be distinct: {self.letters!r}")
        if not all(c.isascii() and c.islower() and c.isalpha() for c in self.letters):
            raise ValueError(f"alphabet must be lowercase ASCII letters: {self.letters!r}")

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: str) -> bool:
        """Is `letter` a single letter of the alphabet?"""
        return len(letter) == 1 and letter in self.letters

    @property
    def symbols(self) -> tuple[str, ...]:
        """All operation symbols: writes first, then reads, in alphabet order."""
        return tuple(self.letters) + tuple(self.letters.upper())


def parse_word(text: str, alphabet: Alphabet) -> str:
    """Parse CLI word syntax: lowercase writes, uppercase reads, ``"e"`` or ``""`` empty.

    The empty token only acts as such when 'e' is not itself a letter.
    """
    if text == "" or (text == EMPTY_TOKEN and EMPTY_TOKEN not in alphabet):
        return ""
    for sym in text:
        if sym.lower() not in alphabet:
            raise ValueError(f"symbol {sym!r} not over alphabet {alphabet.letters!r}")
    return text


def format_word(word: str) -> str:
    return word if word else EMPTY_TOKEN


def all_words(symbols, max_len: int) -> Iterator[str]:
    """All strings over `symbols` of length 0..max_len, shortest first."""
    for n in range(max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


# ---------------------------------------------------------------------------
# Queue semantics


def act(queue: Optional[str], word: str) -> Optional[str]:
    """Run `word` on a queue state (string of letters, or None for the error state).

    Writes append at the tail; a read succeeds only if its letter is at the
    head.  The error state absorbs everything.
    """
    if queue is None:
        return None
    q = deque(queue)
    for sym in word:
        if sym.islower():
            q.append(sym)
        else:
            if not q or q.popleft() != sym.lower():
                return None
    return "".join(q)


def act_profile(word: str, n: int) -> Optional[tuple[str, str]]:
    """Closed form of ``act(q, word)`` over all queues q of length exactly `n`.

    Returns None when the word errors on every length-n queue.  Otherwise
    returns ``(need, tail)``: the word maps q to ``q[len(need):] + tail``
    when q starts with `need`, and to the error state when it does not.
    """
    need: list[str] = []
    consumed = 0
    pending: deque[str] = deque()
    for sym in word:
        if sym.islower():
            pending.append(sym)
        else:
            letter = sym.lower()
            if consumed < n:
                # head is still an unknown cell of the original queue
                need.append(letter)
                consumed += 1
            elif pending:
                if pending.popleft() != letter:
                    return None
            else:
                return None
    return "".join(need), "".join(pending)


def _queue_bound(u: str, v: str, max_queue_len: Optional[int]) -> int:
    """Longest queue the equivalence checks try: |u|+|v| unless capped."""
    if max_queue_len is None:
        return len(u) + len(v)
    if max_queue_len < 0:
        raise ValueError(f"max_queue_len must be nonnegative, got {max_queue_len}")
    return max_queue_len


def profile_equivalent(u: str, v: str, max_queue_len: Optional[int] = None) -> bool:
    """Equivalence on all queues of length <= bound, via act_profile.

    Same predicate as `equiv_oracle` (two distinct profiles always disagree
    on a concrete queue, given at least two letters), but computed without
    enumerating queues.  A profile stops changing once n reaches the
    word's number of reads (every read then takes a cell of the original
    queue), so no n beyond the larger read count is tried, whatever the cap.
    """
    reads = max(sum(map(str.isupper, u)), sum(map(str.isupper, v)))
    bound = min(_queue_bound(u, v, max_queue_len), reads)
    return all(act_profile(u, n) == act_profile(v, n) for n in range(bound + 1))


def equiv_oracle(u: str, v: str, alphabet: Alphabet, max_queue_len: Optional[int] = None) -> bool:
    """Do `u` and `v` transform every queue of length <= |u|+|v| identically?

    Plain enumeration; the bound suffices because inequivalent words are
    already told apart by some queue not longer than either word plus one.
    """
    for n in range(_queue_bound(u, v, max_queue_len) + 1):
        for cells in itertools.product(alphabet.letters, repeat=n):
            q = "".join(cells)
            if act(q, u) != act(q, v):
                return False
    return True


# ---------------------------------------------------------------------------
# Rewriting to normal form
#
# Three rule families, each length-preserving:
#   (1)  a B -> B a       for distinct letters a, b
#   (2)  a b B -> a B b
#   (3)  a A X -> A a X    for any read X
# A word is irreducible iff it is reads, then equal-letter write/read
# pairs, then writes.

RULE_COMMUTE = 1
RULE_PAIR_SLIDE = 2
RULE_READ_FRONT = 3


def redexes(word: str) -> list[tuple[int, int]]:
    """All (position, rule) pairs where a rewrite rule applies."""
    found = []
    start = 0
    while (hit := _leftmost_redex(word, start)) is not None:
        found.append(hit)
        start = hit[0] + 1
    return found


def apply_redex(word: str, pos: int, rule: int) -> str:
    """Apply one rule at a position previously reported by `redexes`."""
    if rule == RULE_COMMUTE or rule == RULE_READ_FRONT:
        return word[:pos] + word[pos + 1] + word[pos] + word[pos + 2 :]
    if rule == RULE_PAIR_SLIDE:
        return word[: pos + 1] + word[pos + 2] + word[pos + 1] + word[pos + 3 :]
    raise ValueError(f"unknown rule {rule}")


def _leftmost_redex(word: str, start: int) -> Optional[tuple[int, int]]:
    """Leftmost (position, rule) at or after `start`: the only matcher of the rules."""
    n = len(word)
    for i in range(start, n - 1):
        a = word[i]
        if not a.islower():
            continue
        nxt = word[i + 1]
        if nxt.isupper():
            if nxt.lower() != a:
                return i, RULE_COMMUTE
            if i + 2 < n and word[i + 2].isupper():
                return i, RULE_READ_FRONT
        elif i + 2 < n and word[i + 2] == nxt.upper():
            return i, RULE_PAIR_SLIDE
    return None


def _reductions(word: str) -> Iterator[str]:
    """The leftmost reduction sequence from `word` to its irreducible word."""
    yield word
    start = 0
    while (hit := _leftmost_redex(word, start)) is not None:
        pos, rule = hit
        word = apply_redex(word, pos, rule)
        # a new redex can only appear within two symbols left of the change
        start = max(0, pos - 2)
        yield word


def rewrite_trace(word: str) -> list[str]:
    """The full leftmost reduction sequence, starting at `word`."""
    return list(_reductions(word))


@dataclass(frozen=True)
class NormalForm:
    """Canonical representative of a queue action.

    `reads` is the letter sequence of the leading read block, `overlap` the
    letter sequence of the write/read pair block, `writes` the trailing
    write block.  The denoted word is reads (barred) + pairs + writes, e.g.
    ``NormalForm("b", "", "ab").word() == "Bab"``.
    """

    reads: str = ""
    overlap: str = ""
    writes: str = ""

    def word(self) -> str:
        mid = "".join(c + c.upper() for c in self.overlap)
        return self.reads.upper() + mid + self.writes

    @classmethod
    def from_word(cls, word: str) -> "NormalForm":
        """Parse an irreducible word; raises ValueError on anything else."""
        n = len(word)
        i = 0
        while i < n and word[i].isupper():
            i += 1
        reads = word[:i].lower()
        pairs = []
        while i + 1 < n and word[i].islower() and word[i + 1] == word[i].upper():
            pairs.append(word[i])
            i += 2
        rest = word[i:]
        if not rest.islower() and rest:
            raise ValueError(f"not a normal-form word: {word!r}")
        return cls(reads, "".join(pairs), rest)

    @property
    def write_projection(self) -> str:
        return self.overlap + self.writes

    @property
    def read_projection(self) -> str:
        return self.reads + self.overlap

    def overlap_width(self) -> int:
        return len(self.overlap)

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        return mul(self, other)

    def __str__(self) -> str:
        return format_word(self.word())


IDENTITY = NormalForm()


def rewrite_normalize(word: str) -> NormalForm:
    """Normal form of a word, computed by exhaustive rewriting."""
    return NormalForm.from_word(deque(_reductions(word), maxlen=1).pop())


def proj(value) -> tuple[str, str]:
    """Write and read subwords (bars dropped), for a word or a NormalForm."""
    if isinstance(value, NormalForm):
        return value.write_projection, value.read_projection
    writes = []
    reads = []
    for sym in value:
        if sym.islower():
            writes.append(sym)
        else:
            reads.append(sym.lower())
    return "".join(writes), "".join(reads)


def ow(value) -> int:
    """Overlap width: length of the pair block of the normal form."""
    if isinstance(value, NormalForm):
        return value.overlap_width()
    return eval_word(value).overlap_width()


def dual(word: str) -> str:
    """Swap writes with reads and reverse; an anti-morphic involution."""
    return word.swapcase()[::-1]


def dual_nf(x: NormalForm) -> NormalForm:
    """Normal form of the dual action; blocks swap roles and reverse."""
    return NormalForm(x.writes[::-1], x.overlap[::-1], x.reads[::-1])


def shuffle(v: str, w: str) -> str:
    """Alternating word v1 W1 v2 W2 ... for equal-length letter words."""
    if len(v) != len(w):
        raise ValueError(f"shuffle needs equal lengths: {v!r}, {w!r}")
    return "".join(a + b.upper() for a, b in zip(v, w))


def overlap(v: str, u: str) -> str:
    """Longest suffix of `v` that is also a prefix of `u`."""
    for n in range(min(len(v), len(u)), 0, -1):
        if v[-n:] == u[:n]:
            return u[:n]
    return ""


def mul(x: NormalForm, y: NormalForm) -> NormalForm:
    """Normal form of the composite action (x first, then y).

    The reads of y cancel against the pending writes of x as far as their
    letters agree; the longest such match becomes the new overlap block.
    """
    left = x.overlap + y.reads + y.overlap  # read side before cancelling
    right = x.overlap + x.writes + y.overlap  # write side before cancelling
    s = overlap(left, right)
    r = left[: len(left) - len(s)]
    t = right[len(s) :]
    return NormalForm(x.reads + r, s, t + y.writes)


_GEN_CACHE: dict[str, NormalForm] = {}


def eval_word(word: str) -> NormalForm:
    """Normal form of a word, computed by folding `mul` over its symbols."""
    acc = IDENTITY
    for sym in word:
        gen = _GEN_CACHE.get(sym)
        if gen is None:
            gen = NormalForm(writes=sym) if sym.islower() else NormalForm(reads=sym.lower())
            _GEN_CACHE[sym] = gen
        acc = mul(acc, gen)
    return acc


# ---------------------------------------------------------------------------
# Embeddings


def embed_q2(word: str, alphabet: Alphabet) -> str:
    """Image of a word over an n-letter alphabet inside the two-letter monoid.

    The i-th letter (1-based) maps to a^(n+i) b a^(n-i) b; reads map to the
    read of the same block.  The images pairwise share no boundary overlap,
    which makes the embedding preserve and reflect equivalence.
    """
    n = len(alphabet)
    images = {}
    for i, letter in enumerate(alphabet.letters, start=1):
        block = "a" * (n + i) + "b" + "a" * (n - i) + "b"
        images[letter] = block
        images[letter.upper()] = block.upper()
    return "".join(images[sym] for sym in word)


_PRODUCT_GENS = {"a": "a", "b": "ab", "c": "B", "d": "ABB"}


def embed_product(s: str, t: str) -> NormalForm:
    """Image of a pair (s over {a,b}, t over {c,d}) under the embedding of
    the direct product of two free monoids into the queue-action monoid.

    Generators map to the actions of a, ab, reading b, and reading a,b,b;
    write-side and read-side generators commute, so the image is
    well-defined on pairs.
    """
    for sym in s:
        if sym not in "ab":
            raise ValueError(f"first component must be over ab: {s!r}")
    for sym in t:
        if sym not in "cd":
            raise ValueError(f"second component must be over cd: {t!r}")
    chunks = [_PRODUCT_GENS[sym] for sym in s] + [_PRODUCT_GENS[sym] for sym in t]
    return eval_word("".join(chunks))
