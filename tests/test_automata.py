import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queue_monoid import (
    ClassAutomaton,
    Dfa,
    Nfa,
    apply_redex,
    class_dfa,
    dual,
    dual_automaton,
    eval_word,
    inverse_projection,
    mul,
    nfa_from_regex,
    normal_form_dfa,
    omega_nfa,
    proj,
    rational_member,
    redexes,
    rewrite_normalize,
    shuffle_image,
    shuffled_nfa,
)

from helpers import (
    AB,
    ABC,
    SIGMA,
    member_reference,
    moore_minimize,
    nfa_language,
    random_nfa,
    words_upto,
)

LETTERS = tuple("ab")


# ---------------------------------------------------------------------------
# boolean operations against brute-force language enumeration


def test_boolean_operations_against_enumeration():
    rng = random.Random(20)
    universe = set(words_upto(4))
    for _ in range(12):
        x = random_nfa(rng)
        y = random_nfa(rng)
        lx, ly = nfa_language(x, 4), nfa_language(y, 4)
        assert nfa_language(x.union(y), 4) == lx | ly
        assert nfa_language(x.intersect(y), 4) == lx & ly
        assert nfa_language(x.difference(y), 4) == lx - ly
        assert nfa_language(x.complement(), 4) == universe - lx
        assert nfa_language(x.determinize().to_nfa(), 4) == lx
        assert nfa_language(x.minimize(), 4) == lx
        assert nfa_language(x.reverse(), 4) == {w[::-1] for w in lx}
        assert nfa_language(x.relabel(), 4) == lx


def test_intersect_with_complement_is_empty():
    rng = random.Random(21)
    for _ in range(10):
        x = random_nfa(rng)
        assert x.intersect(x.complement()).is_empty()


def test_concat_and_star():
    rng = random.Random(22)
    for _ in range(8):
        x, y = random_nfa(rng, max_states=4), random_nfa(rng, max_states=4)
        lx, ly = nfa_language(x, 4), nfa_language(y, 4)
        assert nfa_language(x.concat(y), 4) == {
            u + v for u in lx for v in ly if len(u) + len(v) <= 4
        }
        star_lang = {""}
        grew = True
        while grew:
            grew = False
            for w in list(star_lang):
                for u in lx:
                    cand = w + u
                    if u and len(cand) <= 4 and cand not in star_lang:
                        star_lang.add(cand)
                        grew = True
        assert nfa_language(x.star(), 4) == star_lang


def test_shortest_accepted():
    rng = random.Random(23)
    for _ in range(20):
        x = random_nfa(rng)
        lang = nfa_language(x, 5)
        witness = x.shortest_accepted()
        if not lang:
            # languages empty up to length 5 here are empty outright
            assert witness is None or len(witness) > 5
        else:
            assert witness is not None
            assert x.accepts(witness)
            assert len(witness) == min(len(w) for w in lang)
    two = Nfa.finite({"Ba", "aB"}, SIGMA)
    assert len(two.shortest_accepted()) == 2


def test_alphabet_mismatch_rejected():
    x = Nfa.universal(SIGMA)
    y = Nfa.universal(LETTERS)
    with pytest.raises(ValueError):
        x.union(y)
    with pytest.raises(ValueError):
        x.intersect(y)


def test_minimize_is_minimal_on_known_language():
    # words with an even number of writes
    trans = {}
    for sym in SIGMA:
        flip = sym.islower()
        trans[(0, sym)] = {1 if flip else 0}
        trans[(1, sym)] = {0 if flip else 1}
    m = Nfa(SIGMA, {0, 1, 2}, {0}, {0}, trans)
    d = m.minimize().determinize()
    assert len(d.states) == 2


def test_minimize_keeps_the_language_and_only_useful_states():
    rng = random.Random(33)
    for _ in range(40):
        m = random_nfa(rng)
        d = m.determinize().minimize()
        assert nfa_language(d, 4) == nfa_language(m, 4)
        useful = set(d.accepting)  # states that reach acceptance
        grew = True
        while grew:
            grew = False
            for (src, _), dst in d.transitions.items():
                if dst in useful and src not in useful:
                    useful.add(src)
                    grew = True
        assert useful == (d.states if d.accepting else set())
        again = d.minimize()
        assert (again.states, again.initial, again.accepting, again.transitions) == (
            d.states, d.initial, d.accepting, d.transitions)


def test_minimize_of_the_empty_language_is_one_state():
    d = Nfa.empty(SIGMA).determinize().minimize()
    assert (d.states, d.initial, d.accepting, d.transitions) == ({0}, 0, set(), {})


def _random_partial_dfa(rng):
    # string states, so that the order of iterating a state set follows the hash seed
    n = rng.randrange(1, 8)
    trans = {(f"s{p}", sym): f"s{rng.randrange(n)}"
             for p in range(n) for sym in SIGMA if rng.random() < 0.7}
    accepting = {f"s{p}" for p in range(n) if rng.random() < 0.4}
    return Dfa(SIGMA, {f"s{p}" for p in range(n)}, f"s{rng.randrange(n)}", accepting, trans)


def _explored_omega_dfa(k, monkeypatch):
    """The Omega_k stepper's explored states, before minimization."""
    explored = []
    with monkeypatch.context() as patch:
        patch.setattr(Dfa, "minimize", lambda self: explored.append(self) or self)
        omega_nfa(k, AB)
    return explored[0]


def test_minimize_matches_the_moore_reference(monkeypatch):
    rng = random.Random(71)
    dfas = [Dfa(SIGMA, {0}, 0, set(), {}),  # the empty language
            Dfa(SIGMA, {0}, 0, {0}, {}),  # the empty word, one state without moves
            Dfa(SIGMA, {0}, 0, {0}, {(0, sym): 0 for sym in SIGMA})]
    dfas += [_random_partial_dfa(rng) for _ in range(200 - len(dfas))]
    dfas += [_explored_omega_dfa(k, monkeypatch) for k in range(6)]
    for d in dfas:
        got, want = d.minimize(), moore_minimize(d)
        assert (got.initial, got.accepting, got.transitions) == (
            want.initial, want.accepting, want.transitions)


def test_dfa_complete_and_complement():
    d = Nfa.word("aB", SIGMA).determinize()
    full = d.complete()
    assert all((s, sym) in full.transitions for s in full.states for sym in SIGMA)
    comp = d.complement()
    for w in words_upto(3):
        assert comp.accepts(w) == (w != "aB")


def test_dfa_complete_adds_a_fresh_dead_state():
    # a DFA that already has a state named ("dead", 0) and accepts only ""
    taken = ("dead", 0)
    d = Dfa(SIGMA, {taken}, taken, {taken}, {})
    full = d.complete()
    assert full.states == {taken, ("dead", 1)}
    assert [w for w in words_upto(2) if full.accepts(w)] == [""]
    assert [w for w in words_upto(2) if not d.complement().accepts(w)] == [""]


# ---------------------------------------------------------------------------
# regex, text format, DOT


def test_regex_basics():
    m = nfa_from_regex("a(ba)*", AB)
    assert m.accepts("a") and m.accepts("ababa") and not m.accepts("ab")
    m = nfa_from_regex("a*|b", AB)
    assert m.accepts("") and m.accepts("aa") and m.accepts("b") and not m.accepts("ba")
    m = nfa_from_regex("", AB)
    assert m.accepts("") and not m.accepts("a")
    m = nfa_from_regex("(a|b)(a|b)", AB)
    assert {w for w in words_upto(3, LETTERS) if m.accepts(w)} == {
        "aa", "ab", "ba", "bb"
    }
    with pytest.raises(ValueError):
        nfa_from_regex("a(b", AB)
    with pytest.raises(ValueError):
        nfa_from_regex("c", AB)
    with pytest.raises(ValueError):
        nfa_from_regex("a)b", AB)


def test_text_format_round_trip():
    rng = random.Random(24)
    for _ in range(10):
        m = random_nfa(rng)
        back = Nfa.from_text(m.to_text())
        assert nfa_language(back, 4) == nfa_language(m, 4)


def test_text_format_errors():
    with pytest.raises(ValueError):
        Nfa.from_text("state 0 initial\n")
    with pytest.raises(ValueError):
        Nfa.from_text("alphabet: ab\ntrans 0 c 1\n")
    with pytest.raises(ValueError):
        Nfa.from_text("alphabet: ab\nstate 0 starting\n")


def test_text_format_rejects_a_second_alphabet_line():
    with pytest.raises(ValueError, match="repeated alphabet"):
        Nfa.from_text("alphabet: ab\nstate 0 initial accepting\ntrans 0 a 0\n"
                      "alphabet: abc\ntrans 0 c 0\n")
    with pytest.raises(ValueError, match="repeated alphabet"):
        Nfa.from_text("alphabet: ab\nalphabet: ab\nstate 0 initial\n")


def test_dot_output():
    d = class_dfa("aB", AB)
    dot = d.to_dot()
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert '"(0,0,0,0)"' in dot
    nfa_dot = Nfa.word("aB", SIGMA).to_dot()
    assert '[label="a"]' in nfa_dot and '[label="B"]' in nfa_dot


# Two initial states, string state names whose repr order differs from
# their order in the text, and one edge carrying two symbols.
TWO_STARTS = (
    "alphabet: ab\n"
    "state x accepting\n"
    "state s9 initial\n"
    "state s10 initial\n"
    "trans s9 a x\n"
    "trans s10 B s9\n"
    "trans x b s10\n"
    "trans x b s9\n"
    "trans x A x\n"
    "trans x a x\n"
)


def test_two_initial_states_print_golden():
    m = Nfa.from_text(TWO_STARTS)
    assert m.to_text() == (
        "alphabet: ab\n"
        "state 0 initial\n"
        "state 1 initial\n"
        "state 2 accepting\n"
        "trans 0 B 1\n"
        "trans 1 a 2\n"
        "trans 2 A 2\n"
        "trans 2 a 2\n"
        "trans 2 b 0\n"
        "trans 2 b 1\n"
    )
    assert m.to_dot() == (
        "digraph automaton {\n"
        "  rankdir=LR;\n"
        '  __start0 [shape=point, label=""];\n'
        '  __start1 [shape=point, label=""];\n'
        '  "0" [shape=circle];\n'
        '  "1" [shape=circle];\n'
        '  "2" [shape=doublecircle];\n'
        '  __start0 -> "0";\n'
        '  __start1 -> "1";\n'
        '  "0" -> "1" [label="B"];\n'
        '  "1" -> "2" [label="a"];\n'
        '  "2" -> "0" [label="b"];\n'
        '  "2" -> "1" [label="b"];\n'
        '  "2" -> "2" [label="A,a"];\n'
        "}"
    )


# sha256 of `to_text()` and `to_dot()` of automata whose states are neither
# ints nor class-automaton quadruples, so DOT numbers them in repr order.
PRINTER_GOLDEN = {
    "normal_form_dfa": (
        "548f78caceb2055d8d59f5f4326dbab2e3ff58b97fba030979cd57b569673ebc",
        "e8b98de7fc07066189229b0878d3f14e18805908f61b6b30871c1903bdd286b8"),
    "normal_form_dfa.complete": (
        "6f6a6041cb3f10ed90fe05ae9f8769259c79681e6843e1b52e905f8fba36a056",
        "9900e63b1a0ba02985ce2d4436862271a22a5866996bcffe064089b9f9197d32"),
    "shuffle_image": (
        "7bd454056224552fe0cb6825246ee6291f5e8623e0577234b64f37fcee019cd7",
        "c3b9cd4304ebe2abab2a46cd2339102d6c51d61de9a7f28627a077a8ee85686f"),
    "shuffled_nfa": (
        "5f7bc7543393bd7c89f7bee78f0d867543b4ac398eb975f9460f63345a603cb1",
        "1a6a930bcf4757c4605ca4ef4db0e94dc8f55c5b78774ddc1217ebe0821e457a"),
}


@pytest.mark.parametrize("name", sorted(PRINTER_GOLDEN))
def test_library_printers_match_golden_hash(name):
    m = {
        "normal_form_dfa": lambda: normal_form_dfa(AB),
        "normal_form_dfa.complete": lambda: normal_form_dfa(AB).complete(),
        "shuffle_image": lambda: shuffle_image(nfa_from_regex("ab*", AB), AB),
        "shuffled_nfa": lambda: shuffled_nfa(2, AB),
    }[name]()
    digests = tuple(hashlib.sha256(out.encode()).hexdigest() for out in (m.to_text(), m.to_dot()))
    assert digests == PRINTER_GOLDEN[name]


def test_printers_agree_across_renumbering_and_conversion():
    rng = random.Random(32)
    pool = [0, 1, 7, "s", "t0", (0, "x"), (2, 1), ("dead", 0)]
    for _ in range(200):
        states = rng.sample(pool, rng.randrange(1, len(pool) + 1))
        trans = {(s, sym): rng.choice(states)
                 for s in states for sym in SIGMA if rng.random() < 0.6}
        accepting = {s for s in states if rng.random() < 0.4}
        d = Dfa(SIGMA, states, states[0], accepting, trans)
        assert d.to_text() == d.to_nfa().to_text() == d.renumber().to_text()
        assert d.to_dot() == d.to_nfa().to_dot()
        initial = {s for s in states if rng.random() < 0.4} or {states[-1]}
        nfa_trans = {(s, sym): {t for t in states if rng.random() < 0.3}
                     for s in states for sym in SIGMA}
        m = Nfa(SIGMA, states, initial, accepting, nfa_trans)
        assert m.to_text() == m.relabel().to_text()


# ---------------------------------------------------------------------------
# lifts


def test_inverse_projection():
    m = nfa_from_regex("ab", AB)
    on_writes = inverse_projection(m, AB, "writes")
    on_reads = inverse_projection(m, AB, "reads")
    for w in words_upto(4):
        pw, pr = proj(w)
        assert on_writes.accepts(w) == (pw == "ab")
        assert on_reads.accepts(w) == (pr == "ab")
    with pytest.raises(ValueError):
        inverse_projection(m, AB, "sideways")


def test_shuffle_image():
    m = nfa_from_regex("a*b", AB)
    img = shuffle_image(m, AB)
    expected = {"".join(c + c.upper() for c in w) for w in words_upto(2, LETTERS) if m.accepts(w)}
    assert {w for w in words_upto(4) if img.accepts(w)} == expected


def test_normal_form_dfa_matches_irreducibility():
    d = normal_form_dfa(AB)
    for w in words_upto(6):
        assert d.accepts(w) == (not redexes(w)), w


def test_dual_automaton_examples():
    m = Nfa.word("aB", SIGMA)
    assert nfa_language(dual_automaton(m), 3) == {"bA"}
    assert nfa_language(dual_automaton(dual_automaton(m)), 3) == {"aB"}
    rng = random.Random(25)
    for _ in range(6):
        x = random_nfa(rng)
        dx = dual_automaton(x)
        for w in words_upto(4):
            assert dx.accepts(dual(w)) == x.accepts(w), w


# ---------------------------------------------------------------------------
# the class automaton


def test_class_dfa_examples():
    d = class_dfa("aB", AB)
    assert {w for w in words_upto(3) if d.accepts(w)} == {"aB", "Ba"}
    d = class_dfa("", AB)
    assert d.accepts("") and not any(d.accepts(w) for w in words_upto(3) if w)


def test_class_dfa_language_is_the_equivalence_class():
    for w in words_upto(4):
        d = class_dfa(w, AB)
        target = rewrite_normalize(w)
        for v in words_upto(4):
            assert d.accepts(v) == (rewrite_normalize(v) == target), (w, v)


def test_class_dfa_state_count_bound():
    for w in words_upto(5):
        d = class_dfa(w, AB)
        assert len(d.states) <= (len(w) + 1) ** 3


def test_class_automaton_states_denote_left_divisor_normal_forms():
    word = "abAaBb"
    ca = ClassAutomaton(word, AB)
    seen = {ca.initial}
    frontier = [ca.initial]
    while frontier:
        state = frontier.pop()
        for sym in SIGMA:
            nxt = ca.step(state, sym)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    for state in seen:
        i, j, k, l = state
        q = ca.denote(state)
        # consistency: the middle blocks agree and borders sit on own-kind symbols
        assert q.read_projection.endswith(q.overlap)
        for idx, kind in ((i, str.isupper), (j, str.isupper), (k, str.islower), (l, str.islower)):
            assert idx == 0 or kind(word[idx - 1]), state
    # running any prefix of an equivalent word lands on its normal form
    for v in ("abAaBb", "aAbaBb", "abABab"):
        if rewrite_normalize(v) != ca.target:
            continue
        state = ca.initial
        for sym in v:
            state = ca.step(state, sym)
            assert state is not None
        assert ca.is_accepting(state)


def test_rational_member_examples():
    assert rational_member("aB", Nfa.word("Ba", SIGMA), AB)
    assert not rational_member("aB", Nfa.empty(SIGMA), AB)
    assert not rational_member("aA", Nfa.word("Aa", SIGMA), AB)


def test_rational_member_against_brute_force():
    rng = random.Random(26)
    for _ in range(30):
        m = random_nfa(rng)
        w = "".join(rng.choice(SIGMA) for _ in range(rng.randrange(5)))
        target = rewrite_normalize(w)
        brute = any(
            m.accepts(v) and rewrite_normalize(v) == target
            for v in words_upto(len(w))
            if len(v) == len(w)
        )
        assert rational_member(w, m, AB) == brute, w


# words whose write projection is periodic, a^n, (ab)^n or (aab)^n, with
# reads that follow it from some phase, a few letters flipped: borders of
# the write projection make the class automaton fall back along its KMP
# failure links
@st.composite
def periodic_words(draw):
    period = draw(st.sampled_from(["a", "ab", "aab"]))
    writes = (period * 20)[: draw(st.integers(0, 20))]
    phase = draw(st.integers(0, len(period)))
    reads = list((period * 21)[phase: phase + draw(st.integers(0, 20))])
    for idx in draw(st.lists(st.integers(0, 19), max_size=2)):
        if idx < len(reads):
            reads[idx] = "b" if reads[idx] == "a" else "a"
    return _interleave(draw, writes, "".join(reads).upper())


def _interleave(draw, writes, reads):
    order = draw(st.permutations([0] * len(writes) + [1] * len(reads)))
    parts = [iter(writes), iter(reads)]
    return "".join(next(parts[side]) for side in order)


def _rewrite_walk(draw, w):
    for _ in range(draw(st.integers(0, 30))):
        found = redexes(w)
        if not found:
            break
        w = apply_redex(w, *draw(st.sampled_from(found)))
    return w


@given(periodic_words(), st.data())
@settings(max_examples=150, deadline=None)
def test_class_automaton_on_periodic_write_projections(w, data):
    target = eval_word(w)
    d = class_dfa(w, AB)
    writes, reads = proj(w)
    samples = [_rewrite_walk(data.draw, w) for _ in range(3)]
    samples += [_interleave(data.draw, writes, reads.upper()) for _ in range(3)]
    for v in samples:
        same = eval_word(v) == target
        assert d.accepts(v) == same, (w, v)
        assert rational_member(w, Nfa.word(v, SIGMA), AB) == same, (w, v)
    # every move lands on the normal form of its source times the symbol,
    # and `step` is the same function as the moves
    ca = ClassAutomaton(w, AB)
    for state in d.states:
        moves = dict(ca._moves(state))
        for sym in SIGMA:
            assert ca.step(state, sym) == moves.get(sym), (w, state, sym)
            if sym in moves:
                assert ca.denote(moves[sym]) == mul(ca.denote(state), eval_word(sym)), (
                    w, state, sym)


# NFAs for the cross-check below: 1-12 states named by ints, strings and
# tuples, several initial states, an orphan state nothing reaches, a trap
# state that cannot reach acceptance, symbols without moves, an alphabet
# that may miss letters of the word, and sometimes a path spelling a
# rewrite of the word, a random word of its class, or another word with the
# same projections
STATE_NAMES = st.one_of(
    st.integers(0, 99),
    st.text("xyz", max_size=3),
    st.tuples(st.integers(0, 3), st.text("pq", max_size=2)),
)


@st.composite
def member_nfas(draw, word, alphabet):
    # hypothesis favours small draws; the choices of shape are uniform instead
    rng = draw(st.randoms(use_true_random=False))
    letters = alphabet.letters
    if rng.random() < 0.25:
        letters = "".join(c for c in letters if rng.random() < 0.5) or letters[0]
    symbols = tuple(letters) + tuple(letters.upper())
    names = draw(st.lists(STATE_NAMES, min_size=1, max_size=12, unique=True))
    orphan, trap = (names[-1], names[-2]) if len(names) >= 3 else (None, None)
    targets = [q for q in names if q != orphan]
    mute = draw(st.sets(st.sampled_from(symbols), max_size=len(symbols) - 1))
    trans = {}
    for q in names:
        for sym in symbols:
            if sym in mute:
                continue
            if q == trap:
                trans[(q, sym)] = {q}
            else:
                trans[(q, sym)] = set(draw(st.lists(st.sampled_from(targets), max_size=2)))
    initial = draw(st.sets(st.sampled_from(targets), min_size=1, max_size=3))
    accepting = draw(st.sets(st.sampled_from([q for q in names if q != trap])))
    if all(c.lower() in letters for c in word) and rng.random() < 0.8:
        writes, reads = proj(word)
        path = rng.choice([
            lambda: _class_walk(rng, word, alphabet),
            lambda: _class_walk(rng, word, alphabet),
            lambda: _rewrite_walk(draw, word),
            lambda: _interleave(draw, writes, reads.upper()),
        ])()
        chain = [("path", t) for t in range(len(path) + 1)]
        for t, sym in enumerate(path):
            trans.setdefault((chain[t], sym), set()).add(chain[t + 1])
        initial.add(chain[0])
        accepting.add(chain[-1])
    return Nfa(symbols, names, initial, accepting, trans)


def _class_walk(rng, word, alphabet):
    """A random word equivalent to `word`: a walk through its trimmed class DFA."""
    d = class_dfa(word, alphabet).to_nfa().trim()
    state, out = next(iter(d.initial)), []
    while moves := [(sym, t) for sym in d.alphabet for t in d.transitions.get((state, sym), ())]:
        sym, state = rng.choice(moves)
        out.append(sym)
    return "".join(out)


@st.composite
def member_words(draw):
    alphabet = draw(st.sampled_from([AB, ABC]))
    n = draw(st.randoms(use_true_random=False)).randrange(41)  # uniform, not small-biased
    text = st.text(alphabet=alphabet.symbols, min_size=n, max_size=n)
    return draw(st.one_of(periodic_words(), text)), alphabet


@given(member_words(), st.data())
@settings(max_examples=200, deadline=None)
def test_rational_member_against_the_class_dfa_product(case, data):
    word, alphabet = case
    m = data.draw(member_nfas(word, alphabet))
    assert rational_member(word, m, alphabet) == member_reference(word, m, alphabet)


def test_rational_member_on_a_large_nfa_is_fast():
    # a dense 200-state NFA: the walk over (class state, NFA state) pairs
    # this replaced took about 40 s here
    rng = random.Random(240)
    word = "".join(rng.choice(SIGMA) for _ in range(240))
    trans = {}
    for q in range(200):
        for sym in SIGMA:
            if rng.random() < 0.9:
                trans[(q, sym)] = set(rng.sample(range(200), rng.randint(1, 2)))
    accepting = {q for q in range(200) if rng.random() < 0.05}
    m = Nfa(SIGMA, range(200), {0, 1}, accepting, trans)
    start = time.perf_counter()
    answer = rational_member(word, m, AB)
    assert time.perf_counter() - start < 2.0
    assert answer
