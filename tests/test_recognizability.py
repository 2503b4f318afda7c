import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queue_monoid import (
    And,
    Dfa,
    Nfa,
    Not,
    NormalForm,
    Omega,
    Or,
    PiBarIn,
    PiIn,
    compile_simple,
    eval_simple,
    eval_word,
    in_omega,
    k_shuffled,
    mul,
    nfa_from_regex,
    omega_nfa,
    ow,
    parse_simple_expr,
    proj,
    rewrite_normalize,
    shuffled_nfa,
)

from helpers import AB, ABC, letter_words_upto, loop_in_omega, normal_forms_upto, words_upto


# words of up to 40 symbols; the read-then-write pairs make borders that
# separate Omega_k from Omega_(k-1) far more often than uniform letters do
long_words = st.lists(st.sampled_from(["a", "b", "A", "B", "Aa", "Bb"]), max_size=20).map("".join)


# ---------------------------------------------------------------------------
# shuffledness


def test_negative_k_is_rejected():
    with pytest.raises(ValueError):
        k_shuffled("aA", -1)
    with pytest.raises(ValueError):
        in_omega(rewrite_normalize("aA"), -3)
    with pytest.raises(ValueError):
        omega_nfa(-2, AB)
    with pytest.raises(ValueError):
        shuffled_nfa(-1, AB)


def test_k_shuffled_examples():
    assert k_shuffled("aA", 1) and not k_shuffled("Aa", 1)
    for w in words_upto(3):
        assert k_shuffled(w, 0)
    for n in range(2, 7):
        for k in range(0, n):
            w = "a" * n + "b" + "a" * k + "A" * (n - 1) + "B" + "A" * k
            assert ow(w) == k and k_shuffled(w, k), (n, k)


def test_shuffledness_equals_width_when_borders_match():
    # whenever some length-k word is both a write-projection prefix and a
    # read-projection suffix, k-shuffledness coincides with width >= k
    for w in words_upto(6):
        pw, pr = proj(w)
        width = ow(w)
        for k in range(1, min(len(pw), len(pr)) + 1):
            if pw[:k] == pr[len(pr) - k:]:
                assert k_shuffled(w, k) == (width >= k), (w, k)


def test_shuffled_nfa_matches_direct_check():
    for alphabet, max_len in ((AB, 7), (ABC, 5)):
        words = words_upto(max_len, alphabet.symbols)
        for level in range(6):
            m = shuffled_nfa(level, alphabet).determinize()
            for w in words:
                assert m.accepts(w) == k_shuffled(w, level), (alphabet, level, w)


@given(long_words, st.integers(0, 8))
def test_shuffled_nfa_matches_direct_check_on_long_words(w, level):
    assert shuffled_nfa(level, AB).accepts(w) == k_shuffled(w, level)


# ---------------------------------------------------------------------------
# Omega_k


def test_in_omega_examples():
    q = rewrite_normalize("ABaAba")
    assert ow(q) == 1
    assert in_omega(q, 1) and in_omega(q, 2) and not in_omega(q, 3)
    # the only other action with the same projections and width >= 1 has width 3
    pw, pr = proj(q)
    alternatives = [
        NormalForm(pr[: len(pr) - l], pr[len(pr) - l:], pw[l:])
        for l in range(min(len(pw), len(pr)) + 1)
        if pr[len(pr) - l:] == pw[:l]
    ]
    alternatives = [p for p in alternatives if p.write_projection == pw and p.read_projection == pr]
    siblings = {p for p in alternatives if p != q and p.overlap_width() >= ow(q)}
    assert siblings == {rewrite_normalize("aAbBaA")}
    assert ow(rewrite_normalize("aAbBaA")) == 3

    for k in range(1, 7):
        q = rewrite_normalize("Aa" * k)
        assert in_omega(q, k - 1) and not in_omega(q, k)

    for u in letter_words_upto(4):
        for v in letter_words_upto(4):
            q = rewrite_normalize(u + v.upper())
            assert all(in_omega(q, k) for k in range(7))


def test_omega_zero_contains_everything():
    for w in words_upto(4):
        assert in_omega(rewrite_normalize(w), 0)


def test_omega_chain_is_decreasing():
    for w in words_upto(6):
        q = rewrite_normalize(w)
        values = [in_omega(q, k) for k in range(8)]
        assert all(a or not b for a, b in zip(values, values[1:]))


def test_omega_nfa_examples():
    m0 = omega_nfa(0, AB)
    assert all(m0.accepts(w) for w in words_upto(4))
    m1 = omega_nfa(1, AB)
    assert m1.accepts("aA") and not m1.accepts("Aa")


def test_omega_nfa_matches_in_omega():
    for k in range(4):
        d = omega_nfa(k, AB).determinize()
        for w in words_upto(5):
            assert d.accepts(w) == in_omega(rewrite_normalize(w), k), (k, w)


def test_omega_nfa_acceptance_is_class_closed():
    for k in range(3):
        d = omega_nfa(k, AB).determinize()
        for w in words_upto(5):
            assert d.accepts(w) == d.accepts(rewrite_normalize(w).word()), (k, w)


def test_omega_word_characterization():
    # membership is equivalent to being |u|-shuffled for every border word u
    for alphabet, max_len, top in ((AB, 7, 4), (ABC, 5, 3)):
        words = words_upto(max_len, alphabet.symbols)
        for k in range(top + 1):
            d = omega_nfa(k, alphabet).determinize()
            for w in words:
                pw, pr = proj(w)
                expected = all(
                    k_shuffled(w, m)
                    for m in range(min(k, len(pw), len(pr)) + 1)
                    if pw[:m] == pr[len(pr) - m:]
                )
                assert d.accepts(w) == expected, (alphabet, k, w)


@functools.lru_cache(maxsize=None)
def _omega_dfa(k):
    return omega_nfa(k, AB).determinize()


@given(long_words, st.integers(0, 4))
@settings(max_examples=200)
def test_omega_nfa_matches_in_omega_on_long_words(w, k):
    assert _omega_dfa(k).accepts(w) == in_omega(eval_word(w), k)


def test_prefix_split_inside_omega():
    # q in Omega_k with border word u = first k written letters splits as
    # the pure-write action of u times a remainder with equal projections
    for w in words_upto(5):
        q = rewrite_normalize(w)
        pw, pr = proj(q)
        for k in range(0, min(3, len(pw)) + 1):
            if not in_omega(q, k):
                continue
            u = pw[:k]
            found = False
            rest_w = pw[k:]
            for width in range(min(len(rest_w), len(pr)) + 1):
                if width and pr[len(pr) - width:] != rest_w[:width]:
                    continue
                p = NormalForm(pr[: len(pr) - width], pr[len(pr) - width:], rest_w[width:])
                if p.write_projection == rest_w and p.read_projection == pr:
                    if mul(NormalForm(writes=u), p) == q:
                        found = True
                        break
            assert found, (q, k)


def test_wrw_representative():
    # every action equals the class of overlap + barred reads + writes
    for w in words_upto(6):
        q = rewrite_normalize(w)
        rep = q.overlap + q.read_projection.upper() + q.writes
        assert rewrite_normalize(rep) == q, w


# ---------------------------------------------------------------------------
# simple sets


def test_eval_simple_examples():
    astar = nfa_from_regex("a*", AB)
    inside = And(And(PiIn(astar), PiBarIn(astar)), Not(Omega(1)))
    na, an = rewrite_normalize("Aa"), rewrite_normalize("aA")
    assert eval_simple(inside, na) and not eval_simple(inside, an)
    for q in normal_forms_upto(3):
        assert eval_simple(Omega(0), q)
        assert eval_simple(Not(inside), q) == (not eval_simple(inside, q))


def test_compile_simple_examples():
    for k in range(3):
        d = compile_simple(Omega(k), AB)
        reference = omega_nfa(k, AB).determinize()
        for w in words_upto(6):
            assert d.accepts(w) == reference.accepts(w), (k, w)
    empty = compile_simple(PiIn(Nfa.empty(tuple("ab"))), AB)
    assert all(not empty.accepts(w) for w in words_upto(4))


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return Omega(rng.randrange(3))
        regex = rng.choice(["a*", "b", "ab", "a|b*", "(a|b)*", "ba*", ""])
        lang = nfa_from_regex(regex, AB)
        return PiIn(lang) if kind == 1 else PiBarIn(lang)
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_random_expr(rng, depth - 1))
    cls = And if kind == 1 else Or
    return cls(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_compiled_random_expressions_match_direct_evaluation():
    rng = random.Random(41)
    words = words_upto(5)
    classes = {w: rewrite_normalize(w) for w in words}
    for _ in range(20):
        expr = _random_expr(rng, 3)
        d = compile_simple(expr, AB)
        for w in words:
            assert d.accepts(w) == eval_simple(expr, classes[w]), (expr, w)


REGEX_LANGS = {regex: nfa_from_regex(regex, AB)
               for regex in ("a*", "(ab)*", "a*b*", "(a|b)*b", "b(a|b)*", "(aa|b)*", "")}
# one Nfa object per regex, so equal projection atoms recur as well as omega(k)
simple_atoms = st.one_of(
    st.integers(0, 3).map(Omega),
    st.builds(lambda cls, regex: cls(REGEX_LANGS[regex]),
              st.sampled_from([PiIn, PiBarIn]), st.sampled_from(sorted(REGEX_LANGS))),
)


def simple_exprs(depth):
    if depth == 0:
        return simple_atoms
    sub = simple_exprs(depth - 1)
    return st.one_of(simple_atoms, sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub))


SHORT_WORDS = {w: eval_word(w) for w in words_upto(4)}


@given(simple_exprs(4), st.booleans(), st.lists(st.text("abAB", max_size=8), max_size=20))
@settings(max_examples=100, deadline=None)
def test_compiled_product_matches_evaluation_and_is_minimal(expr, negate, words):
    if negate:
        expr = Not(expr)
    d = compile_simple(expr, AB)
    for w, q in [*SHORT_WORDS.items(), *((w, eval_word(w)) for w in words)]:
        assert d.accepts(w) == eval_simple(expr, q), (expr, w)
    assert len(d.minimize().states) == len(d.states)


def test_compile_simple_minimizes_each_atom_and_the_product_once(monkeypatch):
    calls = []
    minimize = Dfa.minimize
    monkeypatch.setattr(Dfa, "minimize", lambda self: calls.append(self) or minimize(self))
    # omega(2) recurs; the two pi(a*) atoms are distinct objects
    expr = parse_simple_expr("omega(2) & pi(a*) | !omega(2) & pi(a*) | !omega(3)", AB)
    compile_simple(expr, AB)
    # one inside each omega stepper, one per projection atom, one for the product
    assert len(calls) == 2 + 2 + 1


def test_parse_simple_expr():
    text = "pi(a*) & pibar(a*) & !omega(1)"
    expr = parse_simple_expr(text, AB)
    astar = nfa_from_regex("a*", AB)
    reference = And(And(PiIn(astar), PiBarIn(astar)), Not(Omega(1)))
    for q in normal_forms_upto(3):
        assert eval_simple(expr, q) == eval_simple(reference, q)
    nested = parse_simple_expr("omega(2) | !(pi(ab|b(a|b)*) & pibar(ba))", AB)
    assert isinstance(nested, Or)
    with pytest.raises(ValueError):
        parse_simple_expr("pi(a*) &", AB)
    with pytest.raises(ValueError):
        parse_simple_expr("omega(x)", AB)
    with pytest.raises(ValueError):
        parse_simple_expr("tau(a)", AB)
    with pytest.raises(ValueError):
        parse_simple_expr("pi(a", AB)


def test_in_omega_matches_the_loop_reference():
    # k = 0 and k beyond both projections included
    for letters, size in (("ab", 8), ("abc", 6)):
        for q in normal_forms_upto(size, letters):
            for k in range(9):
                assert in_omega(q, k) == loop_in_omega(q, k), (q, k)
