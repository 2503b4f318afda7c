import random

from queue_monoid import (
    NormalForm,
    conjugate,
    conjugator_nfa,
    dual_nf,
    find_conjugator,
    free_conjugate,
    free_conjugator_lang,
    g_k_nfa,
    mul,
    overconj_nfa,
    ow,
    proj,
    redexes,
    rewrite_normalize,
)

from helpers import AB, SIGMA, letter_words_upto, nfa_language, normal_forms_upto, words_upto


def test_free_conjugate_examples():
    assert free_conjugate("ab", "ba")
    assert free_conjugate("abc", "abc")
    assert free_conjugate("aab", "aba") and not free_conjugate("aab", "abb")
    assert free_conjugate("", "")
    assert not free_conjugate("a", "")
    # exhaustive against rotation enumeration
    for u in letter_words_upto(4):
        rotations = {u[i:] + u[:i] for i in range(max(len(u), 1))}
        for v in letter_words_upto(4):
            assert free_conjugate(u, v) == (v in rotations)


def test_conjugate_examples():
    na, an = rewrite_normalize("Aa"), rewrite_normalize("aA")
    assert na != an and conjugate(na, an)
    assert find_conjugator(na, an, AB) is not None
    for x in normal_forms_upto(3):
        assert conjugate(x, x)
    assert not conjugate(rewrite_normalize("a"), rewrite_normalize("b"))


def test_conjugate_is_symmetric():
    nfs = normal_forms_upto(3)
    for p in nfs:
        for q in nfs:
            assert conjugate(p, q) == conjugate(q, p)


def test_rotations_stay_conjugate():
    # rotating the write suffix or the read prefix keeps the class conjugate
    for x in letter_words_upto(3):
        for y in letter_words_upto(3):
            for a in "ab":
                left = rewrite_normalize(x.upper() + y + a)
                right = rewrite_normalize(x.upper() + a + y)
                assert conjugate(left, right), (x, y, a)
                left2 = rewrite_normalize((x + a).upper() + y)
                right2 = rewrite_normalize((a + x).upper() + y)
                assert conjugate(left2, right2), (x, y, a)


def test_free_conjugator_lang_examples():
    every = free_conjugator_lang("", "", AB)
    assert all(every.accepts(w) for w in letter_words_upto(4))
    lang = free_conjugator_lang("ab", "ba", AB)
    got = {z for z in letter_words_upto(5) if lang.accepts(z)}
    assert got == {z for z in letter_words_upto(5) if "ab" + z == z + "ba"}
    assert got == {"a", "aba", "ababa"}
    assert free_conjugator_lang("a", "b", AB).is_empty()


def test_free_conjugator_lang_against_brute_force():
    for u in letter_words_upto(3):
        for v in letter_words_upto(3):
            lang = free_conjugator_lang(u, v, AB)
            for z in letter_words_upto(5):
                assert lang.accepts(z) == (u + z == z + v), (u, v, z)


def test_overconj_examples():
    identity = NormalForm()
    assert all(overconj_nfa(identity, identity, AB).accepts(w) for w in words_upto(3))
    x = rewrite_normalize("A")
    d = overconj_nfa(x, x, AB)
    for w in words_upto(4):
        # the write projection conjugates the empty word freely, so only
        # the read side constrains membership
        pw, pr = proj(w)
        assert d.accepts(w) == (set(pr) <= {"a"}), w
        if d.accepts(w):
            z = rewrite_normalize(w)
            assert proj(mul(x, z)) == proj(mul(z, x))


def test_overconj_contains_all_conjugators_and_bounds_width_gain():
    nfs = normal_forms_upto(3)
    zs = normal_forms_upto(4)
    for x in nfs[:40]:
        for y in nfs[:40]:
            d = overconj_nfa(x, y, AB)
            for z in zs:
                if mul(x, z) == mul(z, y):
                    assert d.accepts(z.word())
            for z in zs:
                if d.accepts(z.word()):
                    gain = ow(mul(x, z)) - ow(z)
                    assert 0 <= gain <= len(x.write_projection)


def test_g_k_examples():
    x = rewrite_normalize("A")
    d = overconj_nfa(x, x, AB)
    g0 = g_k_nfa(x, x, 0, AB)
    for w in words_upto(5):
        assert g0.accepts(w) == (d.accepts(w) and not redexes(w)), w
        if g0.accepts(w):
            z = NormalForm.from_word(w)
            assert ow(mul(x, z)) >= ow(z)
    assert g_k_nfa(x, x, 1, AB).is_empty()


def test_g_k_slices_by_width_gain():
    rng = random.Random(31)
    zs = [NormalForm.from_word(w) for w in words_upto(5) if not redexes(w)]
    for _ in range(6):
        x = rewrite_normalize("".join(rng.choice(SIGMA) for _ in range(rng.randrange(4))))
        y = rewrite_normalize("".join(rng.choice(SIGMA) for _ in range(rng.randrange(4))))
        d = overconj_nfa(x, y, AB)
        for k in range(len(x.write_projection) + 2):
            g = g_k_nfa(x, y, k, AB)
            for z in zs:
                expected = d.accepts(z.word()) and ow(mul(x, z)) - ow(z) >= k
                assert g.accepts(z.word()) == expected, (x, y, k, z)


def test_conjugator_nfa_membership_pattern():
    x = rewrite_normalize("A")
    aut = conjugator_nfa(x, x, AB)
    for k in range(7):
        for l in range(7):
            assert aut.contains("a" * k + "A" * l) == (k <= l), (k, l)


def test_conjugator_nfa_identity_pair_accepts_every_normal_form():
    aut = conjugator_nfa(NormalForm(), NormalForm(), AB)
    for w in words_upto(4):
        assert aut.nfa.accepts(w) == (not redexes(w))


def test_conjugator_nfa_against_direct_product_check():
    rng = random.Random(32)
    zs = [NormalForm.from_word(w) for w in words_upto(5) if not redexes(w)]
    for _ in range(10):
        x = rewrite_normalize("".join(rng.choice(SIGMA) for _ in range(rng.randrange(5))))
        y = rewrite_normalize("".join(rng.choice(SIGMA) for _ in range(rng.randrange(5))))
        aut = conjugator_nfa(x, y, AB)
        for z in zs:
            assert aut.nfa.accepts(z.word()) == (mul(x, z) == mul(z, y)), (x, y, z)
        # accepted words stay inside the normal-form language
        accepted = nfa_language(aut.nfa, 4)
        assert all(not redexes(w) for w in accepted)


def _rotated_pair(rng, reads, writes):
    """A conjugate pair: x interleaves the given read and write projections,
    y interleaves rotations of them."""

    def interleave(r, w):
        tags = [0] * len(r) + [1] * len(w)
        rng.shuffle(tags)
        rs, ws = iter(r.upper()), iter(w)
        return "".join(next(ws) if tag else next(rs) for tag in tags)

    def rotate(v):
        cut = rng.randrange(len(v)) if v else 0
        return v[cut:] + v[:cut]

    x = rewrite_normalize(interleave(reads, writes))
    y = rewrite_normalize(interleave(rotate(reads), rotate(writes)))
    return x, y


def test_conjugator_nfa_with_unequal_projection_lengths():
    # the right-hand slices run up to |read-proj(y)|, which can exceed
    # |write-proj(x)| + 1; independent random pairs are almost never conjugate
    rng = random.Random(35)
    pairs = [(rewrite_normalize("ABA"), rewrite_normalize("ABA")),
             (rewrite_normalize("BBA"), rewrite_normalize("ABB"))]
    while len(pairs) < 10:
        short = rng.randrange(3)
        long = rng.randrange(short + 2, short + 4)
        reads = "".join(rng.choice("ab") for _ in range(long))
        writes = "".join(rng.choice("ab") for _ in range(short))
        if len(pairs) % 2:
            reads, writes = writes, reads
        pairs.append(_rotated_pair(rng, reads, writes))
    zs = normal_forms_upto(6)
    for x, y in pairs:
        assert conjugate(x, y)
        aut = conjugator_nfa(x, y, AB)
        for z in zs:
            assert aut.nfa.accepts(z.word()) == (mul(x, z) == mul(z, y)), (x, y, z)


def test_non_conjugate_pairs_have_no_conjugator():
    # conjugator_nfa returns the empty automaton for these without building slices
    xs, zs = normal_forms_upto(3), normal_forms_upto(5)
    left = {x: [mul(x, z) for z in zs] for x in xs}
    right = {y: [mul(z, y) for z in zs] for y in xs}
    for x in xs:
        for y in xs:
            if not conjugate(x, y):
                assert all(a != b for a, b in zip(left[x], right[y])), (x, y)
                assert conjugator_nfa(x, y, AB).nfa.is_empty(), (x, y)


def test_find_conjugator_examples():
    p = rewrite_normalize("Aa")
    assert find_conjugator(p, p, AB) == NormalForm()
    q = rewrite_normalize("aA")
    z = find_conjugator(p, q, AB)
    assert z is not None and mul(p, z) == mul(z, q)
    assert find_conjugator(rewrite_normalize("a"), rewrite_normalize("b"), AB) is None


def test_find_conjugator_returns_shortest_witness():
    rng = random.Random(33)
    nfs = normal_forms_upto(3)
    checked = 0
    while checked < 25:
        p, q = rng.choice(nfs), rng.choice(nfs)
        if not conjugate(p, q):
            assert find_conjugator(p, q, AB) is None
            continue
        aut = conjugator_nfa(p, q, AB)
        z = find_conjugator(p, q, AB)
        assert z is not None and mul(p, z) == mul(z, q)
        shortest = aut.nfa.shortest_accepted()
        assert len(z.word()) == len(shortest)
        checked += 1


def test_dual_slices_mirror_right_multiplication():
    # the right-hand width gain of z equals the left-hand gain of its dual
    rng = random.Random(34)
    zs = [NormalForm.from_word(w) for w in words_upto(4) if not redexes(w)]
    for _ in range(8):
        y = rewrite_normalize("".join(rng.choice(SIGMA) for _ in range(rng.randrange(4))))
        for z in zs:
            assert ow(mul(z, y)) == ow(mul(dual_nf(y), dual_nf(z)))
