import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queue_monoid import (
    Alphabet,
    NormalForm,
    act,
    act_profile,
    apply_redex,
    dual,
    dual_nf,
    embed_product,
    embed_q2,
    equiv_oracle,
    eval_word,
    mul,
    overlap,
    ow,
    parse_word,
    profile_equivalent,
    proj,
    redexes,
    rewrite_normalize,
    rewrite_trace,
    shuffle,
)
from queue_monoid.core import RULE_COMMUTE, RULE_PAIR_SLIDE, RULE_READ_FRONT

from helpers import AB, ABC, letter_words_upto, normal_forms_upto, words_upto

sigma_words = st.text(alphabet="abAB", max_size=7)


# ---------------------------------------------------------------------------
# queue semantics


def test_act_examples():
    assert act("ab", "Ac") == "bc"
    assert act("ab", "cA") == "bc"
    assert act("", "Aa") is None
    assert act("", "aA") == ""
    for q in letter_words_upto(4):
        assert act(q, "") == q


def test_act_bottom_absorbing():
    assert act(None, "") is None
    assert act(None, "abAB") is None
    assert act("a", "B") is None
    assert act("", "A") is None


@given(q=st.text(alphabet="ab", max_size=5), u=sigma_words, v=sigma_words)
def test_act_is_a_monoid_action(q, u, v):
    assert act(q, u + v) == act(act(q, u), v)


def test_act_profile_agrees_with_concrete_queues():
    for w in words_upto(4):
        for n in range(4):
            prof = act_profile(w, n)
            for cells in itertools.product("ab", repeat=n):
                q = "".join(cells)
                expected = None
                if prof is not None:
                    need, tail = prof
                    if q.startswith(need):
                        expected = q[len(need):] + tail
                assert act(q, w) == expected, (w, q)


# ---------------------------------------------------------------------------
# rewriting


def test_rewrite_examples():
    # single swap of a write past a different read
    assert rewrite_normalize("aB") == NormalForm("b", "", "a")
    # write slides right through a pending pair
    assert rewrite_normalize("abB") == NormalForm("b", "", "ab")
    assert rewrite_normalize("abB").word() == "Bab"
    # read moves to the front ahead of its matching write
    assert rewrite_normalize("aAB") == NormalForm("ab", "", "a")
    assert rewrite_trace("aAB") == ["aAB", "AaB", "ABa"]
    assert equiv_oracle("aAB", "ABa", AB)


def test_rewrite_rules_are_length_preserving_equivalences():
    for w in words_upto(5):
        for pos, rule in redexes(w):
            w2 = apply_redex(w, pos, rule)
            assert len(w2) == len(w)
            assert equiv_oracle(w, w2, AB, max_queue_len=6), (w, w2)


def test_rewrite_result_is_irreducible_and_reparses():
    for w in words_upto(5):
        nf = rewrite_normalize(w)
        assert not redexes(nf.word())
        assert NormalForm.from_word(nf.word()) == nf
        assert rewrite_normalize(nf.word()) == nf


def test_confluence_every_redex_choice_joins():
    # all one-step successors lead to the same irreducible word
    cache = {}

    def normal_form_everywhere(w):
        cached = cache.get(w)
        if cached is not None:
            return cached
        hits = redexes(w)
        if not hits:
            cache[w] = w
            return w
        results = {normal_form_everywhere(apply_redex(w, pos, rule)) for pos, rule in hits}
        assert len(results) == 1, (w, results)
        out = results.pop()
        cache[w] = out
        return out

    for w in words_upto(8):
        nf_word = normal_form_everywhere(w)
        assert nf_word == rewrite_normalize(w).word()
        assert NormalForm.from_word(nf_word) is not None


def test_completeness_on_small_words():
    words = words_upto(3)
    classes = {w: rewrite_normalize(w) for w in words}
    for u in words:
        for v in words:
            assert equiv_oracle(u, v, AB) == (classes[u] == classes[v]), (u, v)


# ---------------------------------------------------------------------------
# overlap and multiplication


def test_overlap_examples():
    assert overlap("ab", "bc") == "b"
    assert overlap("aba", "aba") == "aba"
    assert overlap("ab", "cba") == ""


def test_overlap_is_maximal_common_suffix_prefix():
    for v in letter_words_upto(4):
        for u in letter_words_upto(4):
            s = overlap(v, u)
            assert v.endswith(s) and u.startswith(s)
            for n in range(len(s) + 1, min(len(v), len(u)) + 1):
                assert v[-n:] != u[:n]


def test_mul_examples():
    assert mul(NormalForm(writes="a"), NormalForm(reads="a")) == NormalForm(overlap="a")
    assert rewrite_normalize("aA") == NormalForm(overlap="a")
    for x in normal_forms_upto(4):
        assert mul(x, NormalForm()) == x
        assert mul(NormalForm(), x) == x
    assert mul(NormalForm(writes="a"), NormalForm(reads="b")) == NormalForm("b", "", "a")


def test_eval_word_examples():
    assert eval_word("") == NormalForm()
    assert eval_word("aB") == NormalForm("b", "", "a")
    for n in range(2, 7):
        for k in range(0, n):
            w = "a" * n + "b" + "a" * k + "A" * (n - 1) + "B" + "A" * k
            assert eval_word(w).overlap_width() == k


def test_eval_word_matches_rewriting():
    for w in words_upto(6):
        assert eval_word(w) == rewrite_normalize(w), w


def test_mul_associative_exhaustive():
    # every triple of normal forms with denotations totalling at most 9
    by_len = {}
    for x in normal_forms_upto(9):
        by_len.setdefault(len(x.word()), []).append(x)
    lengths = sorted(by_len)
    for i in lengths:
        for j in lengths:
            if i + j > 9:
                break
            for k in lengths:
                if i + j + k > 9:
                    break
                for x in by_len[i]:
                    for y in by_len[j]:
                        xy = mul(x, y)
                        for z in by_len[k]:
                            assert mul(xy, z) == mul(x, mul(y, z))


def test_homomorphism_small():
    words = words_upto(4)
    nf = {w: rewrite_normalize(w) for w in words}
    for u in words_upto(3):
        for v in words_upto(3):
            assert rewrite_normalize(u + v) == mul(nf[u], nf[v])


# ---------------------------------------------------------------------------
# projections, duality, overlap width, shuffle


def test_proj_examples():
    assert proj("aBAb") == ("ab", "ba")
    assert proj("") == ("", "")
    for x in normal_forms_upto(3):
        for y in normal_forms_upto(3):
            pw, pr = proj(mul(x, y))
            assert pw == proj(x)[0] + proj(y)[0]
            assert pr == proj(x)[1] + proj(y)[1]


def test_normal_form_block_invariants():
    for w in words_upto(6):
        q = rewrite_normalize(w)
        pw, pr = proj(q)
        assert (pw, pr) == proj(w)
        assert pr.endswith(q.overlap) and pw.startswith(q.overlap)
        assert q.overlap_width() <= min(len(pw), len(pr))


def test_dual_examples():
    assert dual("aB") == "bA"
    assert dual("") == ""
    for w in words_upto(5):
        assert dual(dual(w)) == w
    for u in words_upto(3):
        for v in words_upto(3):
            assert rewrite_normalize(dual(u + v)) == mul(
                rewrite_normalize(dual(v)), rewrite_normalize(dual(u))
            )


def test_dual_nf_matches_rewriting_and_preserves_width():
    for w in words_upto(6):
        q = rewrite_normalize(w)
        d = dual_nf(q)
        assert d == rewrite_normalize(dual(q.word()))
        assert d.overlap_width() == q.overlap_width()
        assert dual_nf(d) == q


@given(sigma_words)
def test_dual_is_an_involution(w):
    assert dual(dual(w)) == w


def test_ow_examples():
    assert ow("ABaAba") == 1
    assert ow("") == 0
    # (read a, write a)^k leaves one read in front and one write behind,
    # so only k-1 pairs interlock
    for k in range(1, 7):
        assert ow("Aa" * k) == k - 1
        assert ow("aA" * k) == k


def test_shuffle_examples():
    assert shuffle("a", "b") == "aB"
    assert shuffle("ab", "ba") == "aBbA"
    with pytest.raises(ValueError):
        shuffle("ab", "a")
    for v in letter_words_upto(3):
        for w in letter_words_upto(3):
            if len(v) == len(w):
                assert rewrite_normalize(shuffle(v, w)) == rewrite_normalize(v + w.upper())


def rule_occurrences(w, letters="ab"):
    """Every (position, rule) where a rule's left-hand side occurs in `w`."""
    patterns = {}
    for a in letters:
        for b in letters:
            if a != b:
                patterns[a + b.upper()] = RULE_COMMUTE
            patterns[a + b + b.upper()] = RULE_PAIR_SLIDE
            patterns[a + a.upper() + b.upper()] = RULE_READ_FRONT
    return sorted((i, rule) for pat, rule in patterns.items()
                  for i in range(len(w)) if w.startswith(pat, i))


def test_redexes_trace_and_normal_form_follow_the_rules():
    for w in words_upto(6):
        assert redexes(w) == rule_occurrences(w), w
        trace = rewrite_trace(w)
        assert trace[0] == w
        assert trace[-1] == rewrite_normalize(w).word()
        for before, after in zip(trace, trace[1:]):
            assert after == apply_redex(before, *redexes(before)[0]), (w, before)
        assert not redexes(trace[-1])


# ---------------------------------------------------------------------------
# the semantic oracle


def test_equiv_oracle_examples():
    assert equiv_oracle("Ac", "cA", ABC)
    assert not equiv_oracle("aA", "Aa", AB)
    for w in words_upto(3):
        assert equiv_oracle(w, w, AB)


def test_negative_queue_bound_is_rejected():
    with pytest.raises(ValueError):
        equiv_oracle("a", "b", AB, max_queue_len=-1)
    with pytest.raises(ValueError):
        profile_equivalent("a", "b", max_queue_len=-1)
    assert not equiv_oracle("a", "b", AB, max_queue_len=0)
    assert not profile_equivalent("a", "b", max_queue_len=0)


def test_profile_equivalence_matches_oracle():
    words = words_upto(3)
    for u in words:
        for v in words:
            assert profile_equivalent(u, v) == equiv_oracle(u, v, AB), (u, v)
    rng = random.Random(11)
    sample = words_upto(5)
    for _ in range(300):
        u, v = rng.choice(sample), rng.choice(sample)
        assert profile_equivalent(u, v) == equiv_oracle(u, v, AB), (u, v)


@given(u=sigma_words, v=sigma_words)
@settings(max_examples=60)
def test_profile_equivalence_iff_equal_normal_forms(u, v):
    assert profile_equivalent(u, v) == (rewrite_normalize(u) == rewrite_normalize(v))


# ---------------------------------------------------------------------------
# embeddings


def test_embed_q2_examples():
    two = Alphabet("ab")
    assert embed_q2("a", two) == "aaabab"
    assert embed_q2("", two) == ""
    assert embed_q2("A", two) == "AAABAB"
    assert embed_q2("b", two) == "aaaabb"
    img = embed_q2("aB", ABC)
    assert img == "aaaab" + "aab" + ("aaaaab" + "ab").upper()


def test_embed_q2_preserves_and_reflects_equivalence_sampled():
    rng = random.Random(5)
    words = words_upto(2, ABC.symbols)
    for _ in range(250):
        u, v = rng.choice(words), rng.choice(words)
        left = profile_equivalent(u, v)
        right = profile_equivalent(embed_q2(u, ABC), embed_q2(v, ABC))
        assert left == right, (u, v)


def test_embed_product_examples():
    assert embed_product("", "") == NormalForm()
    assert embed_product("b", "c") == NormalForm("b", "", "ab")
    # generator images commute across the two components
    assert embed_product("a", "c") == rewrite_normalize("aB") == rewrite_normalize("Ba")
    for s_sym, t_sym in itertools.product("ab", "cd"):
        assert embed_product(s_sym, t_sym) == mul(
            embed_product("", t_sym), embed_product(s_sym, "")
        )
    with pytest.raises(ValueError):
        embed_product("c", "c")


# ---------------------------------------------------------------------------
# word syntax


def test_parse_word():
    assert parse_word("abBA", AB) == "abBA"
    assert parse_word("e", AB) == ""
    assert parse_word("", AB) == ""
    with pytest.raises(ValueError):
        parse_word("xyz", AB)
    # 'e' stays a letter when the alphabet contains it
    assert parse_word("e", Alphabet("ae")) == "e"


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("a")
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet("aB")
    assert Alphabet("ba").symbols == ("b", "a", "B", "A")


def test_alphabet_membership_is_single_letters():
    abc = Alphabet("abc")
    assert "a" in abc and "c" in abc
    assert "d" not in abc
    assert "A" not in abc
    assert "ab" not in abc
    assert "" not in Alphabet("ab")
