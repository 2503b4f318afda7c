"""Seeded query streams, one per workload.

A workload is an endless stream of blocks, and every block is the same
work: the same kinds of query on the same log-spaced grid of sizes, with
the same word shapes, rewrite steps and answers, drawn once from
``random.Random(name)``.  What changes from block to block is the letters:
block b renames a, b, c and d to letters drawn from the seed and b, so no
two blocks of a run send the same input, and the seed orders each block's
queries.  Renaming letters changes no automaton's size and no rewrite
count, so the blocks of a run, and runs with different seeds, all measure
the same amount of work: their spread is the machine's noise alone.  (How a
query's cost depends on its word's shape would otherwise swamp it: with
shapes drawn from the seed, a `classes` block took from 6 to 13 s.)

Every query carries the data the checker needs to know its answer; the
program only ever sees the argv (and, for `member`, the NFA files written
at set-up).
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from dataclasses import dataclass

from reference import (
    eval_expr,
    expr_text,
    in_omega,
    need,
    normal_form,
    projections,
    shuffled,
    word_text,
)

@dataclass
class Query:
    kind: str
    argv: list[str]
    data: dict
    letters: str
    size: int  # word length, or write-projection length for conjugacy, or max k for compiles
    k: int | None = None


def grid(lo: int, hi: int, points: int) -> list[int]:
    """`points` sizes from lo to hi, evenly spaced on a log scale."""
    return [round(lo * (hi / lo) ** (i / (points - 1))) for i in range(points)]


def random_word(rng: random.Random, n: int, letters: str) -> str:
    symbols = letters + letters.upper()
    return "".join(rng.choice(symbols) for _ in range(n))


def interleave(rng: random.Random, writes: str, reads: str, read_bias: float = 0.5) -> str:
    """A random word with the given write and read projections."""
    out = []
    i = j = 0
    while i < len(writes) or j < len(reads):
        if j == len(reads) or (i < len(writes) and rng.random() >= read_bias):
            out.append(writes[i])
            i += 1
        else:
            out.append(reads[j].upper())
            j += 1
    return "".join(out)


def _redexes(word: str) -> list[tuple[int, int]]:
    """(position, rule) for each rewrite rule that applies: aB->Ba, abB->aBb, aAX->AaX."""
    found = []
    for i in range(len(word) - 1):
        a, nxt = word[i], word[i + 1]
        if not a.islower():
            continue
        if nxt.isupper():
            if nxt.lower() != a:
                found.append((i, 1))
            elif i + 2 < len(word) and word[i + 2].isupper():
                found.append((i, 3))
        elif i + 2 < len(word) and word[i + 2] == nxt.upper():
            found.append((i, 2))
    return found


def variant(rng: random.Random, word: str, steps: int) -> str:
    """An equivalent word: `steps` rewrite steps at seeded positions."""
    for _ in range(steps):
        found = _redexes(word)
        if not found:
            break
        pos, rule = rng.choice(found)
        if rule == 2:
            word = word[: pos + 1] + word[pos + 2] + word[pos + 1] + word[pos + 3:]
        else:
            word = word[:pos] + word[pos + 1] + word[pos] + word[pos + 2:]
    return word


def perturb(rng: random.Random, word: str, letters: str) -> str:
    """An inequivalent word: one symbol's letter changed, so a projection changes."""
    pos = rng.randrange(len(word))
    sym = word[pos]
    other = rng.choice([c for c in letters if c != sym.lower()])
    return word[:pos] + (other if sym.islower() else other.upper()) + word[pos + 1:]


def rotate(rng: random.Random, text: str) -> str:
    if not text:
        return text
    cut = rng.randrange(len(text))
    return text[cut:] + text[:cut]


def seeded_queues(rng: random.Random, word: str, letters: str) -> list[str]:
    """Queues on which `word` mostly runs without error, for the act check."""
    reads = sum(1 for c in word if c.isupper())
    queues = []
    for n in (reads, rng.randint(0, reads)):
        prefix = need(word, n)
        if prefix is None:
            prefix = ""
        queues.append(prefix + "".join(rng.choice(letters) for _ in range(n - len(prefix))))
    return queues


def matched_word(rng: random.Random, n: int, letters: str, k: int, read_bias: float) -> str:
    """A word of length n whose first k writes spell its last k reads."""
    writes = "".join(rng.choice(letters) for _ in range(max(k, n // 2)))
    reads = "".join(rng.choice(letters) for _ in range(max(k, n - len(writes))))
    reads = reads[: len(reads) - k] + writes[:k]
    return interleave(rng, writes, reads, read_bias)


# the letters blocks draw from: all but e, which the command line reads as the empty word
POOL = "abcdfghijklmnopqrstuvwxyz"


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self) -> random.Random:
        """The shapes every block shares, the same for every seed."""
        return random.Random(self.name)

    def renaming(self, b: int) -> dict:
        """Block b's letters for a, b, c and d.  The first two run through a
        seeded order of all ordered pairs, so blocks 0 to 599 of a run never
        share an alphabet."""
        pairs = [(x, y) for x in POOL for y in POOL if x != y]
        random.Random(self.seed).shuffle(pairs)
        first = pairs[b % len(pairs)]
        rest = random.Random(f"{self.seed}:{b}").sample([c for c in POOL if c not in first], 2)
        return str.maketrans("abcd", "".join(first) + "".join(rest))

    def ordered(self, b: int, queries: list[Query]) -> list[Query]:
        """Block b's queries in this seed's order."""
        random.Random(f"{self.seed}:{self.name}:{b}").shuffle(queries)
        return queries

    def setup(self) -> None:
        """Write input files the queries refer to; most workloads need none."""

    def block(self, b: int) -> list[Query]:
        raise NotImplementedError

    def warmup(self) -> list[list[str]]:
        raise NotImplementedError

    def extra_properties(self, queries: list[Query]) -> dict:
        return {}


def _q(kind, cmd, letters, args, data, size, k=None) -> Query:
    letters = "".join(sorted(letters))
    return Query(kind, [cmd, "--alphabet", letters, *args], data, letters, size, k)


class Words(Workload):
    name = "words"

    KINDS = ("nf", "mul", "eq", "act", "conj", "omega", "kshuffled", "embed2")
    SIZES = grid(30, 1000, 6)

    def block(self, b: int) -> list[Query]:
        rng, rename = self.rng(), self.renaming(b)
        out = []
        for kind_index, kind in enumerate(self.KINDS):
            for i, n in enumerate(self.SIZES):
                letters = ("ab" if (i + kind_index) % 2 == 0 else "abcd").translate(rename)
                out.append(getattr(self, "_" + kind)(rng, n, letters, i))
        out.append(self._adversarial_mul(rng, self.SIZES[-1], "ab".translate(rename)))
        for i in range(2):
            out.append(self._eq_oracle(rng, "ab".translate(rename), i))
        return self.ordered(b, out)

    def _nf(self, rng, n, letters, i):
        w = random_word(rng, n, letters)
        return _q("nf", "nf", letters, [w], {"word": w, "queues": seeded_queues(rng, w, letters)}, n)

    @staticmethod
    def _mul_query(rng, n, letters, left, right):
        data = {"left": left, "right": right,
                "queues": seeded_queues(rng, left + right, letters)}
        return _q("mul", "mul", letters, [left, right], data, n)

    def _mul(self, rng, n, letters, i):
        return self._mul_query(rng, n, letters, random_word(rng, n, letters),
                               random_word(rng, n, letters))

    def _adversarial_mul(self, rng, n, letters):
        """x^(n-4) y after three seeded reads, against reads of x^(n-2) y: the
        overlap scan tries every suffix length."""
        x, y = rng.sample(letters, 2)
        left = random_word(rng, 3, letters).upper() + x * (n - 4) + y
        right = x.upper() * (n - 2) + y.upper()
        return self._mul_query(rng, n, letters, left, right)

    def _eq(self, rng, n, letters, i):
        u = random_word(rng, n, letters)
        v = variant(rng, u, min(64, n // 4))
        expected = i % 2 == 0
        if not expected:
            v = perturb(rng, v, letters)
        return _q("eq", "eq", letters, [u, v], {"expected": expected}, n)

    def _eq_oracle(self, rng, letters, i):
        u = ""
        while not _redexes(u):
            u = random_word(rng, 6, letters)
        v = variant(rng, u, 3)
        expected = i % 2 == 0
        if not expected:
            v = perturb(rng, v, letters)
        return _q("eq_oracle", "eq", letters, ["--oracle", u, v], {"expected": expected}, 6)

    def _act(self, rng, n, letters, i):
        w = random_word(rng, n, letters)
        reads = sum(1 for c in w if c.isupper())
        if i % 4 == 0:
            queue = "".join(rng.choice(letters) for _ in range(rng.randint(0, reads)))
        else:
            queue = seeded_queues(rng, w, letters)[0]
        return _q("act", "act", letters, [word_text(queue), w], {"queue": queue, "word": w}, n)

    def _conj(self, rng, n, letters, i):
        p = random_word(rng, n, letters)
        writes, reads = projections(p)
        q = interleave(rng, rotate(rng, writes), rotate(rng, reads))
        expected = i % 2 == 0
        if not expected:
            q = perturb(rng, q, letters)
        return _q("conj", "conj", letters, [p, q], {"expected": expected}, n)

    def _omega(self, rng, n, letters, i):
        k = 1 + i % 4
        w = self._shuffle_probe(rng, n, letters, k, i % 3)
        return _q("omega", "omega", letters, [str(k), w], {"word": w, "k": k}, n, k)

    def _kshuffled(self, rng, n, letters, i):
        k = 1 + i % 4
        w = self._shuffle_probe(rng, n, letters, k, (i + 1) % 3)
        return _q("kshuffled", "kshuffled", letters, [str(k), w], {"word": w, "k": k}, n, k)

    @staticmethod
    def _shuffle_probe(rng, n, letters, k, pattern):
        # random words are nearly always k-shuffled; reads-first ones rarely are
        if pattern == 0:
            return random_word(rng, n, letters)
        return matched_word(rng, n, letters, k, 0.5 if pattern == 1 else 0.85)

    def _embed2(self, rng, n, letters, i):
        w = random_word(rng, n, letters)
        data = {"word": w, "letters": "".join(sorted(letters))}
        return _q("embed2", "embed2", letters, [w], data, n)

    def warmup(self):
        return [["nf", "abBA"], ["mul", "ab", "BA"], ["eq", "abB", "aBb"],
                ["eq", "--oracle", "aB", "Ba"], ["act", "ab", "Ab"], ["conj", "ab", "ba"],
                ["omega", "2", "abBA"], ["kshuffled", "1", "aA"], ["embed2", "aB"]]


def _permutation_dfa(rng: random.Random, letters: str, states: int = 3):
    """A letter DFA where every letter permutes the states; the first letter
    cycles through all of them, so both answers occur at every length."""
    trans = {(s, letters[0]): (s + 1) % states for s in range(states)}
    for c in letters[1:]:
        image = list(range(states))
        rng.shuffle(image)
        for s in range(states):
            trans[(s, c)] = image[s]
    accepting = set(rng.sample(range(states), rng.randint(1, states - 1)))
    return trans, accepting


def _run_dfa(dfa, word: str) -> bool:
    trans, accepting = dfa
    s = 0
    for c in word:
        s = trans[(s, c)]
    return s in accepting


def _letters_with_answer(rng, dfa, n: int, letters: str, want: bool) -> str:
    """A random letter word of length n-2..n that `dfa` accepts exactly when `want`.

    The word is c^j v for the cycling first letter c: v permutes the states,
    so the three starting states c^j reaches end in three different states.
    """
    v = "".join(rng.choice(letters) for _ in range(n - 2))
    for j in range(3):
        word = letters[0] * j + v
        if _run_dfa(dfa, word) == want:
            return word
    raise AssertionError("a permutation DFA reaches every state")


def _nfa_text(letters: str, states, initial, accepting, trans) -> str:
    lines = [f"alphabet: {''.join(sorted(letters))}"]
    for s in states:
        flags = (" initial" if s in initial else "") + (" accepting" if s in accepting else "")
        lines.append(f"state {s}{flags}")
    lines += [f"trans {src} {sym} {dst}" for src, sym, dst in trans]
    return "\n".join(lines) + "\n"


class Classes(Workload):
    name = "classes"

    # classdfa sizes alternate between the alphabets, ab at both ends
    CLASS_SIZES = list(zip(("ab", "abc", "ab", "abc", "ab"), grid(20, 120, 5)))
    MEMBER_SIZES = grid(40, 160, 8)
    FAMILIES = ("universal", "product", "product", "planted")
    PLANTED_LENGTHS = MEMBER_SIZES[::2]
    # letter-DFA pairs per alphabet; every block queries each of them once
    PRODUCTS = 8

    def setup(self) -> None:
        self.files: dict[tuple[str, str], str] = {}
        self.products: dict[tuple[str, int], tuple] = {}
        self.planted: dict[str, list[str]] = {}

    def _write_nfas(self, letters: str) -> None:
        """The NFA files of one alphabet, the same up to renaming for every alphabet."""
        rng = random.Random(f"{self.name}:{len(letters)}")
        symbols = letters + letters.upper()
        self._write(letters, "universal", _nfa_text(
            letters, [0], {0}, {0}, [(0, s, 0) for s in symbols]))
        for t in range(self.PRODUCTS):
            on_writes = _permutation_dfa(rng, letters)
            on_reads = _permutation_dfa(rng, letters)
            self.products[(letters, t)] = (on_writes, on_reads)
            self._write(letters, f"product{t}",
                        self._product_text(letters, on_writes, on_reads))
        bases = [random_word(rng, n, letters) for n in self.PLANTED_LENGTHS]
        self.planted[letters] = bases
        self._write(letters, "planted", self._planted_text(rng, letters, bases))

    def _write(self, letters, family, text):
        path = os.path.join(self.workdir, f"{family}-{letters}.nfa")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.files[(letters, family)] = path

    @staticmethod
    def _product_text(letters, on_writes, on_reads) -> str:
        """Inverse-projection product: writes drive one letter DFA, reads the other."""
        states = [f"p{p}q{q}" for p in range(3) for q in range(3)]
        trans = []
        for p in range(3):
            for q in range(3):
                for c in letters:
                    trans.append((f"p{p}q{q}", c, f"p{on_writes[0][(p, c)]}q{q}"))
                    trans.append((f"p{p}q{q}", c.upper(), f"p{p}q{on_reads[0][(q, c)]}"))
        accepting = {f"p{p}q{q}" for p in on_writes[1] for q in on_reads[1]}
        return _nfa_text(letters, states, {"p0q0"}, accepting, trans)

    @staticmethod
    def _planted_text(rng, letters, bases) -> str:
        """Paths spelling rewrite variants of the base words, plus a random
        component over the first letter only, which cannot accept anything
        equivalent to a word containing another letter."""
        states, trans, initial, accepting = [], [], set(), set()
        for j, base in enumerate(bases):
            for copy in range(2):
                path = variant(rng, base, 20)
                names = [f"w{j}c{copy}s{t}" for t in range(len(path) + 1)]
                states += names
                initial.add(names[0])
                accepting.add(names[-1])
                trans += [(names[t], sym, names[t + 1]) for t, sym in enumerate(path)]
        noise = [f"n{t}" for t in range(5)]
        states += noise
        initial.add("n0")
        accepting.update(s for s in noise if rng.random() < 0.4)
        for s in noise:
            for sym in (letters[0], letters[0].upper()):
                trans += [(s, sym, t) for t in noise if rng.random() < 0.3]
        return _nfa_text(letters, states, initial, accepting, trans)

    def block(self, b: int) -> list[Query]:
        rng, rename = self.rng(), self.renaming(b)
        for letters in ("ab", "abc"):
            self._write_nfas(letters.translate(rename))
        out = []
        for letters, n in self.CLASS_SIZES:
            letters = letters.translate(rename)
            # as many writes as reads: the class DFA's size varies less
            writes = "".join(rng.choice(letters) for _ in range(n // 2))
            reads = "".join(rng.choice(letters) for _ in range(n - n // 2))
            w = interleave(rng, writes, reads)
            nf = normal_form(w)
            reject = [perturb(rng, w, letters)]
            if nf != reads.upper() + writes:
                reject.append(reads.upper() + writes)  # same projections, other class
            data = {"accept": [w, nf, variant(rng, w, 10), variant(rng, w, 40)], "reject": reject}
            out.append(_q("classdfa", "classdfa", letters, [w], data, n))
        for j, n in enumerate(self.MEMBER_SIZES):
            letters = ("ab" if j % 2 == 0 else "abc").translate(rename)
            # "no" answers explore the whole product, so they stay on fixed sizes
            want = j // 2 % 2 == 0
            for f, family in enumerate(self.FAMILIES):
                out.append(self._member(rng, family, letters, n, want, j // 2, f % 2))
        return self.ordered(b, out)

    def _member(self, rng, family, letters, n, want, pair, second):
        """One `member` query; `pair` picks the planted base word and, with
        `second`, which of the product NFAs the query runs against."""
        if family == "universal":
            w, want = random_word(rng, n, letters), True
        elif family == "planted":
            w = variant(rng, self.planted[letters][pair], 30)
            if not want:
                w = perturb(rng, w, letters)
        else:
            index = 2 * pair + second
            family = f"product{index}"
            on_writes, on_reads = self.products[(letters, index)]
            # a "no" fails on the writes, the reads or both
            wants = (True, True) if want else rng.choice(
                ((False, True), (True, False), (False, False)))
            writes = _letters_with_answer(rng, on_writes, n // 2, letters, wants[0])
            reads = _letters_with_answer(rng, on_reads, n - n // 2, letters, wants[1])
            w = interleave(rng, writes, reads)
        path = self.files[(letters, family)]
        return _q("member", "member", letters, [w, "--nfa", path],
                  {"expected": want, "family": family.rstrip("0123456789")}, len(w))

    def warmup(self):
        self._write_nfas("ab")
        return [["classdfa", "abBA"], ["member", "aB", "--nfa", self.files[("ab", "universal")]]]

    def extra_properties(self, queries):
        return {"member_nfa_families": dict(Counter(
            q.data["family"] for q in queries if q.kind == "member"))}


class Conjugators(Workload):
    name = "conjugators"

    # conj twice, so the median query is a projection test and the automaton
    # constructions make up the tail
    KINDS = ("conj", "conj", "conjwitness", "conjset")
    # A unary projection of 7-8 letters costs 10-50x a mixed one at the seed
    # (the determinized slices blow up).  Random projections are drawn
    # non-unary from UNARY_FROM letters on, and one conjset per block gets a
    # unary write projection of UNARY_SLOT letters, so that cliff is met
    # once per block rather than by the luck of the draw.
    UNARY_FROM = 5
    UNARY_SLOT = 7

    def _unary(self, word):
        return len(word) >= self.UNARY_FROM and len(set(word)) == 1

    def _projection(self, rng, n, letters):
        while True:
            word = "".join(rng.choice(letters) for _ in range(n))
            if not self._unary(word):
                return word

    def _pair(self, rng, kind, letters, writes, reads, expected):
        p = interleave(rng, writes, reads)
        q = interleave(rng, rotate(rng, writes), rotate(rng, reads))
        while not expected:
            changed = perturb(rng, q, letters)
            if not any(map(self._unary, projections(changed))):
                q = changed
                break
        data = {"left": p, "right": q, "expected": expected, "letters": letters,
                "brute_len": 4 if len(letters) == 2 else 3, "unary": len(set(writes)) == 1}
        return _q(kind, kind, letters, [p, q], data, len(writes))

    def block(self, b: int) -> list[Query]:
        rng, rename = self.rng(), self.renaming(b)
        out = []
        for letters in ("ab".translate(rename), "abcd".translate(rename)):
            for m in range(1, 9):
                for kind_index, kind in enumerate(self.KINDS):
                    r = 1 + (3 * m + kind_index) % 8
                    out.append(self._pair(rng, kind, letters, self._projection(rng, m, letters),
                                          self._projection(rng, r, letters),
                                          (m + kind_index) % 2 == 0))
        ab = "ab".translate(rename)
        out.append(self._pair(rng, "conjset", ab, rng.choice(ab) * self.UNARY_SLOT,
                              self._projection(rng, 2, ab), True))
        return self.ordered(b, out)

    def extra_properties(self, queries):
        unary = [q.size for q in queries if q.data.get("unary") and q.size >= self.UNARY_FROM]
        return {"unary_write_projection_share": len(unary) / len(queries),
                "unary_write_projection_lengths": dict(Counter(unary))}

    def warmup(self):
        return [["conj", "aB", "Ba"], ["conjwitness", "aB", "Ba"], ["conjset", "aB", "Ba"]]


REGEXES = {
    "ab": ("a*", "(ab)*", "a*b*", "(a|b)*b", "b(a|b)*", "(a|b)*ab(a|b)*", "(aa|b)*"),
    "abc": ("a*", "(abc)*", "a*b*c*", "(a|b|c)*c", "(a|c)*", "b(a|b|c)*", "(a|b|c)*ab(a|b|c)*"),
}
MAX_K = {"ab": 4, "abc": 3}


class SimpleSets(Workload):
    name = "simple_sets"

    EVAL_SIZES = grid(50, 300, 6)

    @staticmethod
    def expression(letters, top, rename):
        """The expression over `letters` whose largest omega(k) has k = `top`.

        The shape and the omega(k) atoms depend on `top` alone, and atoms
        come from a small pool, so omega(k) recurs within and across
        expressions.
        """
        pool = REGEXES[letters]

        def regex_atom(t):
            return (("pi", "pibar")[(top + t) % 2],
                    pool[(2 * top + 5 * t) % len(pool)].translate(rename))

        head = ("omega", top)
        if top % 2 == 0:
            head = ("not", head)
        shape = top % 3
        third = ("omega", top) if shape == 0 else ("omega", max(1, top - 1)) if shape == 1 \
            else regex_atom(1)
        inner = (("and", "or")[top % 2], regex_atom(0), third)
        return (("or", "and")[top % 2], head, inner)

    def block(self, b: int) -> list[Query]:
        rng, rename = self.rng(), self.renaming(b)
        out = []
        exprs = {}
        for letters, max_k in MAX_K.items():
            named = letters.translate(rename)
            for top in range(1, max_k + 1):
                expr = self.expression(letters, top, rename)
                exprs.setdefault(letters, []).append(expr)
                samples = [random_word(rng, rng.randint(0, 10), named) for _ in range(30)]
                samples += [matched_word(rng, rng.randint(2, 10), named, rng.randint(1, 2),
                                         rng.choice((0.5, 0.85))) for _ in range(10)]
                out.append(_q("simple_compile", "simple", named,
                              [expr_text(expr), "--compile"],
                              {"expr": expr, "samples": samples}, top, top))
        for i, n in enumerate(self.EVAL_SIZES):
            for letters in MAX_K:
                named = letters.translate(rename)
                expr = exprs[letters][i % MAX_K[letters]]
                w = random_word(rng, n, named)
                out.append(_q("simple_eval", "simple", named, [expr_text(expr), w],
                              {"expr": expr, "word": w}, n))
                k = 1 + i % MAX_K[letters]
                w = Words._shuffle_probe(rng, n, named, k, i % 3)
                out.append(_q("omega", "omega", named, [str(k), w], {"word": w, "k": k}, n, k))
        return self.ordered(b, out)

    def warmup(self):
        return [["simple", "pi(a*) & omega(1)", "--compile"], ["simple", "pibar(b*)", "aB"],
                ["omega", "1", "aA"]]

    def extra_properties(self, queries):
        atoms = [(q.letters, a[1]) for q in queries if q.kind == "simple_compile"
                 for a in _atoms(q.data["expr"]) if a[0] == "omega"]
        return {
            "omega_atoms": len(atoms),
            "omega_atom_repeat_share": 1 - len(set(atoms)) / len(atoms) if atoms else 0.0,
            "compile_max_k": dict(Counter(f"{len(q.letters)} letters:k{q.k}" for q in queries
                                          if q.kind == "simple_compile")),
        }


def _atoms(expr):
    if expr[0] in ("and", "or"):
        return _atoms(expr[1]) + _atoms(expr[2])
    if expr[0] == "not":
        return _atoms(expr[1])
    return [expr]


WORKLOADS = {w.name: w for w in (Words, Classes, Conjugators, SimpleSets)}


def expected_answer(query: Query):
    """The yes/no answer by construction or reference, None for non-predicates."""
    data = query.data
    if "expected" in data:
        return data["expected"]
    if query.kind == "omega":
        return in_omega(data["word"], data["k"])
    if query.kind == "kshuffled":
        return shuffled(data["word"], data["k"])
    if query.kind == "simple_eval":
        return eval_expr(data["expr"], data["word"])
    return None


def properties(workload: Workload, queries: list[Query]) -> dict:
    """Input properties of the queries a run sent: the record of what was measured."""
    answers = [a for a in map(expected_answer, queries) if a is not None]
    argvs = Counter(tuple(q.argv) for q in queries)
    sizes = Counter()
    for q in queries:
        if q.kind in ("conj", "conjwitness", "conjset") and workload.name == "conjugators":
            sizes[f"write_len_{q.size}"] += 1
        elif q.kind != "simple_compile":
            low = 2 ** int(math.log2(max(q.size, 1)))
            sizes[f"{low}-{2 * low - 1}"] += 1
    return {
        "queries": len(queries),
        "kinds": dict(Counter(q.kind for q in queries)),
        "alphabet_sizes": dict(Counter(f"{len(q.letters)} letters" for q in queries)),
        "alphabets": len({q.letters for q in queries}),
        "size_histogram": dict(sorted(sizes.items(), key=lambda kv: kv[0])),
        "k_histogram": dict(Counter(q.k for q in queries if q.k is not None)),
        "yes_share": sum(answers) / len(answers) if answers else None,
        "repeated_input_share": 1 - len(argvs) / len(queries) if queries else 0.0,
        **workload.extra_properties(queries),
    }
