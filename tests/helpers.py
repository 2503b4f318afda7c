"""Shared enumeration helpers for the test suite."""

import itertools
import random

from queue_monoid import Alphabet, NormalForm, mul, redexes

AB = Alphabet("ab")
SIGMA = AB.symbols
ABC = Alphabet("abc")


def words_upto(max_len, symbols=SIGMA):
    out = []
    for n in range(max_len + 1):
        out.extend("".join(t) for t in itertools.product(symbols, repeat=n))
    return out


def letter_words_upto(max_len, letters="ab"):
    return words_upto(max_len, tuple(letters))


def normal_forms_upto(word_len, letters="ab"):
    """All normal forms whose denoting word has length <= word_len."""
    out = []
    for total in range(word_len + 1):
        for mid in range(total // 2 + 1):
            rest = total - 2 * mid
            for left in range(rest + 1):
                right = rest - left
                for u1 in itertools.product(letters, repeat=left):
                    for u2 in itertools.product(letters, repeat=mid):
                        for u3 in itertools.product(letters, repeat=right):
                            out.append(NormalForm("".join(u1), "".join(u2), "".join(u3)))
    return out


def random_word(rng: random.Random, max_len, symbols=SIGMA):
    return "".join(rng.choice(symbols) for _ in range(rng.randrange(max_len + 1)))


def nfa_language(m, max_len, symbols=SIGMA):
    return {w for w in words_upto(max_len, symbols) if m.accepts(w)}


def random_nfa(rng: random.Random, max_states=5, symbols=SIGMA, density=0.25):
    from queue_monoid import Nfa

    n = rng.randrange(1, max_states + 1)
    states = list(range(n))
    trans = {}
    for s in states:
        for sym in symbols:
            dsts = {t for t in states if rng.random() < density}
            if dsts:
                trans[(s, sym)] = dsts
    initial = {s for s in states if rng.random() < 0.5} or {0}
    accepting = {s for s in states if rng.random() < 0.4}
    return Nfa(symbols, states, initial, accepting, trans)


def member_reference(word, m, alphabet):
    """Reference for `rational_member`: the materialized class DFA of `word`
    meets `m`, whose alphabet is widened to all of `alphabet`'s symbols."""
    from queue_monoid import Nfa, class_dfa

    wide = Nfa(alphabet.symbols, m.states, m.initial, m.accepting, m.transitions)
    return not class_dfa(word, alphabet).to_nfa().intersect(wide).is_empty()


def is_normal_form_word(w):
    return not redexes(w)


def moore_minimize(dfa):
    """Test-only reference for `Dfa.minimize`: Moore's refinement on
    signatures of states sorted by repr, the construction it replaced."""
    from queue_monoid import Dfa

    full = dfa.complete()
    states = sorted(full.states, key=repr)
    block = {s: (s in full.accepting) for s in states}
    while True:
        sigs = {
            s: (block[s], tuple(block[full.transitions[(s, sym)]] for sym in full.alphabet))
            for s in states
        }
        ids: dict = {}
        new_block = {}
        for s in states:
            new_block[s] = ids.setdefault(sigs[s], len(ids))
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    trans = {}
    accepting = set()
    for s in states:
        b = block[s]
        if s in full.accepting:
            accepting.add(b)
        for sym in full.alphabet:
            trans[(b, sym)] = block[full.transitions[(s, sym)]]
    blocks = set(block.values())
    # the block of the empty language is the one that rejects and only loops
    dead = {b for b in blocks if b not in accepting
            and all(trans[(b, sym)] == b for sym in full.alphabet)}
    live = {key: t for key, t in trans.items() if t not in dead}
    return Dfa(full.alphabet, blocks, block[full.initial], accepting, live).renumber()


def fold_eval_word(word):
    """Test-only reference for `eval_word`: `mul` folded over the word's
    generators, the construction it replaced."""
    acc = NormalForm()
    for sym in word:
        acc = mul(acc, NormalForm(writes=sym) if sym.islower() else NormalForm(reads=sym.lower()))
    return acc


def loop_in_omega(q, k):
    """Test-only reference for `in_omega`: every alternative overlap length
    in (ow(q), k] tried one by one, the loop it replaced."""
    writes, reads = q.write_projection, q.read_projection
    limit = min(len(writes), len(reads), k)
    for length in range(q.overlap_width() + 1, limit + 1):
        if reads[len(reads) - length:] == writes[:length]:
            return False
    return True
