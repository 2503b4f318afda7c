"""Finite automata over operation symbols or plain letters.

Small NFA/DFA toolkit used by the conjugacy and recognizability machinery:
Boolean operations, determinization, minimization, shortest accepted word,
DOT export and a line-based text format.  On top of it sit the automaton
accepting one equivalence class of queue-action words (`class_dfa`) and the
rational-subset membership test (`rational_member`).

Every walk over states (renumbering, reachability, products, subset
construction, shortest words, the class automaton, text export) goes through
one breadth-first explorer, `_bfs`, which numbers states in discovery order
and hands each state's moves to the caller as it arrives; `Dfa.explore` runs
it over the moves of a deterministic stepper.  `to_text` prints, and
`Dfa.minimize` numbers its quotient, in the walk itself: no automaton is
built only to be printed or renumbered.  The constructors take time linear
in the states and transitions they are given.

`rational_member` is the one exception: the class automaton's states are
counters into the word and every move consumes one symbol, so its states
form a grid that one forward pass visits in order, carrying the set of NFA
states reached at each grid point as an int bitmask.  That is the paper's
nondeterministic logspace walk over the product, made deterministic.

Automata are immutable after construction; every operation returns a fresh
automaton, so instances can be shared freely between threads.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from .core import Alphabet, NormalForm, _border_step, eval_word, proj

__all__ = [
    "Nfa",
    "Dfa",
    "nfa_from_regex",
    "inverse_projection",
    "shuffle_image",
    "normal_form_dfa",
    "dual_automaton",
    "ClassAutomaton",
    "class_dfa",
    "rational_member",
]


def _merge(transitions, key, targets):
    old = transitions.get(key)
    transitions[key] = frozenset(targets) if old is None else old | frozenset(targets)


def _bfs(starts, moves, ids=None):
    """Visit every state reachable from `starts` once, breadth first.

    Yields ``(state, moves(state))`` in discovery order, where `moves` gives
    the state's (symbol, successor) pairs.  `ids` (a fresh dict by default)
    numbers each state when it is first discovered, which happens before
    the state that reaches it is yielded, so callers can map successors to
    ids at once; afterwards it holds every reachable state.
    """
    if ids is None:
        ids = {}
    queue = deque()
    for s in starts:
        if s not in ids:
            ids[s] = len(ids)
            queue.append(s)
    while queue:
        state = queue.popleft()
        out = moves(state)
        for _, t in out:
            if t not in ids:
                ids[t] = len(ids)
                queue.append(t)
        yield state, out


class Nfa:
    """Nondeterministic finite automaton with a fixed symbol tuple.

    `transitions` maps (state, symbol) to a frozenset of successor states;
    missing keys mean no move.  States are arbitrary hashable values.
    """

    __slots__ = ("alphabet", "states", "initial", "accepting", "transitions")

    def __init__(self, alphabet, states, initial, accepting, transitions):
        self.alphabet = tuple(alphabet)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.transitions = {k: frozenset(v) for k, v in transitions.items() if v}
        every = set(states) | self.initial | self.accepting
        for (src, sym), dsts in self.transitions.items():
            if sym not in self.alphabet:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            every.add(src)
            every |= dsts
        self.states = frozenset(every)

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, alphabet) -> "Nfa":
        return cls(alphabet, {0}, {0}, set(), {})

    @classmethod
    def universal(cls, alphabet) -> "Nfa":
        return cls(alphabet, {0}, {0}, {0}, {(0, sym): {0} for sym in alphabet})

    @classmethod
    def word(cls, w: str, alphabet) -> "Nfa":
        trans = {(i, sym): {i + 1} for i, sym in enumerate(w)}
        return cls(alphabet, set(range(len(w) + 1)), {0}, {len(w)}, trans)

    @classmethod
    def finite(cls, words: Iterable[str], alphabet) -> "Nfa":
        """Trie automaton for a finite language."""
        trans: dict = {}
        accepting = set()
        states = {""}
        for w in words:
            for i in range(len(w)):
                states.add(w[: i + 1])
                _merge(trans, (w[:i], w[i]), {w[: i + 1]})
            accepting.add(w)
        return cls(alphabet, states, {""}, accepting, trans).relabel()

    # -- running -------------------------------------------------------------

    def _post(self, subset: frozenset, sym) -> frozenset:
        out = set()
        for s in subset:
            out |= self.transitions.get((s, sym), frozenset())
        return frozenset(out)

    def accepts(self, word: str) -> bool:
        cur = self.initial
        for sym in word:
            cur = self._post(cur, sym)
            if not cur:
                return False
        return bool(cur & self.accepting)

    def is_empty(self) -> bool:
        return self.shortest_accepted() is None

    def shortest_accepted(self) -> Optional[str]:
        """A shortest accepted word (deterministic tie-break), or None.

        Any single path from an initial to an accepting state is a run, so a
        breadth-first search over plain states finds a shortest witness.
        """
        if self.initial & self.accepting:
            return ""
        parent: dict = {s: None for s in self.initial}
        for s, moves in _bfs(sorted(self.initial, key=repr), self._moves):
            for sym, t in moves:
                if t in parent:
                    continue
                parent[t] = (s, sym)
                if t in self.accepting:
                    letters = []
                    cur = t
                    while parent[cur] is not None:
                        cur, step = parent[cur]
                        letters.append(step)
                    return "".join(reversed(letters))
        return None

    def _moves(self, state) -> list:
        """(symbol, successor) pairs in alphabet order, successors by repr."""
        get = self.transitions.get
        return [(sym, t) for sym in self.alphabet for t in sorted(get((state, sym), ()), key=repr)]

    # -- rewiring ------------------------------------------------------------

    def relabel(self) -> "Nfa":
        """Renumber states 0,1,... in a breadth-first, hash-independent order.

        Unreachable states are dropped; the language is unchanged.
        """
        order: dict = {}
        trans: dict = {}
        for s, moves in _bfs(sorted(self.initial, key=repr), self._moves, order):
            src = order[s]
            for sym, t in moves:
                trans.setdefault((src, sym), set()).add(order[t])
        return Nfa(
            self.alphabet,
            order.values(),
            {order[s] for s in self.initial},
            {order[s] for s in self.accepting if s in order},
            trans,
        )

    def map_symbols(self, fn: Callable, alphabet=None) -> "Nfa":
        """Apply an injective renaming to every transition symbol."""
        new_alpha = tuple(alphabet) if alphabet is not None else tuple(fn(s) for s in self.alphabet)
        trans: dict = {}
        for (src, sym), dsts in self.transitions.items():
            _merge(trans, (src, fn(sym)), dsts)
        return Nfa(new_alpha, self.states, self.initial, self.accepting, trans)

    def reverse(self) -> "Nfa":
        trans: dict = {}
        for (src, sym), dsts in self.transitions.items():
            for d in dsts:
                _merge(trans, (d, sym), {src})
        return Nfa(self.alphabet, self.states, self.accepting, self.initial, trans)

    def trim(self) -> "Nfa":
        """Drop states that are unreachable or cannot reach acceptance."""
        keep = self._reachable() & self.reverse()._reachable()
        if not keep:
            return Nfa.empty(self.alphabet)
        trans = {}
        for (src, sym), dsts in self.transitions.items():
            if src in keep:
                live = dsts & keep
                if live:
                    trans[(src, sym)] = live
        return Nfa(self.alphabet, keep, self.initial & keep, self.accepting & keep, trans)

    def _reachable(self) -> frozenset:
        return frozenset(s for s, _ in _bfs(self.initial, self._moves))

    # -- boolean operations ---------------------------------------------------

    def _check_alphabet(self, other: "Nfa"):
        if set(self.alphabet) != set(other.alphabet):
            raise ValueError(f"alphabet mismatch: {self.alphabet} vs {other.alphabet}")

    def union(self, other: "Nfa") -> "Nfa":
        self._check_alphabet(other)
        trans = {((0, s), sym): {(0, t) for t in dsts} for (s, sym), dsts in self.transitions.items()}
        for (s, sym), dsts in other.transitions.items():
            trans[((1, s), sym)] = {(1, t) for t in dsts}
        return Nfa(
            self.alphabet,
            {(0, s) for s in self.states} | {(1, s) for s in other.states},
            {(0, s) for s in self.initial} | {(1, s) for s in other.initial},
            {(0, s) for s in self.accepting} | {(1, s) for s in other.accepting},
            trans,
        ).relabel()

    def intersect(self, other: "Nfa") -> "Nfa":
        self._check_alphabet(other)
        start = {(p, q) for p in self.initial for q in other.initial}
        left, right = self.transitions.get, other.transitions.get
        alphabet = self.alphabet

        def moves(pair):
            p, q = pair
            return [(sym, (a, b)) for sym in alphabet
                    for a in left((p, sym), ()) for b in right((q, sym), ())]

        seen: dict = {}
        trans: dict = {}
        for pair, out in _bfs(start, moves, seen):
            for sym, t in out:
                trans.setdefault((pair, sym), set()).add(t)
        accepting = {(p, q) for (p, q) in seen if p in self.accepting and q in other.accepting}
        return Nfa(self.alphabet, seen, start, accepting, trans).relabel()

    def complement(self) -> "Nfa":
        return self.determinize().complement().to_nfa()

    def difference(self, other: "Nfa") -> "Nfa":
        self._check_alphabet(other)
        return self.intersect(other.complement()).trim().relabel()

    def concat(self, other: "Nfa") -> "Nfa":
        """Language concatenation, by gluing accepting states to the right part."""
        self._check_alphabet(other)
        trans = {((0, s), sym): {(0, t) for t in dsts} for (s, sym), dsts in self.transitions.items()}
        for (s, sym), dsts in other.transitions.items():
            trans[((1, s), sym)] = {(1, t) for t in dsts}
        right_entry: dict = {}
        for (s, sym), dsts in other.transitions.items():
            if s in other.initial:
                _merge(right_entry, sym, {(1, t) for t in dsts})
        for f in self.accepting:
            for sym, dsts in right_entry.items():
                _merge(trans, ((0, f), sym), dsts)
        initial = {(0, s) for s in self.initial}
        accepting = {(1, f) for f in other.accepting}
        if other.initial & other.accepting:
            accepting |= {(0, f) for f in self.accepting}
        states = {(0, s) for s in self.states} | {(1, s) for s in other.states}
        return Nfa(self.alphabet, states, initial, accepting, trans).relabel()

    def star(self) -> "Nfa":
        base = self.relabel()  # integer states, so the fresh state is distinct
        fresh = "*"
        trans = {(s, sym): set(dsts) for (s, sym), dsts in base.transitions.items()}
        entry: dict = {}
        for (s, sym), dsts in base.transitions.items():
            if s in base.initial:
                _merge(entry, sym, dsts)
        for src in set(base.accepting) | {fresh}:
            for sym, dsts in entry.items():
                _merge(trans, (src, sym), dsts)
        return Nfa(
            base.alphabet,
            base.states | {fresh},
            {fresh},
            base.accepting | {fresh},
            trans,
        ).relabel()

    def determinize(self) -> "Dfa":
        post, alphabet = self._post, self.alphabet

        def moves(subset):
            return [(sym, nxt) for sym in alphabet if (nxt := post(subset, sym))]

        ids: dict = {}
        trans: dict = {}
        accepting = set()
        for cur, out in _bfs([self.initial], moves, ids):
            i = ids[cur]
            if cur & self.accepting:
                accepting.add(i)
            for sym, nxt in out:
                trans[(i, sym)] = ids[nxt]
        return Dfa(self.alphabet, ids.values(), 0, accepting, trans)

    def minimize(self) -> "Nfa":
        """Language-preserving size reduction via the minimal DFA."""
        return self.determinize().minimize().to_nfa()

    # -- export ---------------------------------------------------------------

    def to_dot(self) -> str:
        return _to_dot(sorted(self.initial, key=repr), self.states, self.accepting,
                       ((s, sym, t) for (s, sym), dsts in self.transitions.items() for t in dsts))

    def to_text(self) -> str:
        """Text of the reachable part, numbered as `relabel` would, in one walk."""
        return _to_text(self.alphabet, sorted(self.initial, key=repr), self._moves, self.accepting)

    @classmethod
    def from_text(cls, text: str) -> "Nfa":
        return _from_text(text)


class Dfa:
    """Deterministic automaton, possibly with missing (dead) transitions."""

    __slots__ = ("alphabet", "states", "initial", "accepting", "transitions")

    def __init__(self, alphabet, states, initial, accepting, transitions):
        self.alphabet = tuple(alphabet)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)
        every = set(states) | {initial} | self.accepting
        every.update(src for src, _ in self.transitions)
        every.update(self.transitions.values())
        self.states = frozenset(every)

    @classmethod
    def explore(cls, symbols, initial, moves, accepting) -> "Dfa":
        """The part of a deterministic stepper reachable from `initial`.

        `moves(state)` gives the state's (symbol, successor) pairs, at most
        one per symbol, as for `_bfs`; `accepting(state)` tests acceptance.
        States are kept as given.
        """
        seen: dict = {}
        trans: dict = {}
        for state, out in _bfs([initial], moves, seen):
            for sym, t in out:
                trans[(state, sym)] = t
        return cls(symbols, seen, initial, filter(accepting, seen), trans)

    def step(self, state, sym):
        return self.transitions.get((state, sym))

    def accepts(self, word: str) -> bool:
        cur = self.initial
        for sym in word:
            cur = self.transitions.get((cur, sym))
            if cur is None:
                return False
        return cur in self.accepting

    def complete(self) -> "Dfa":
        """Total version: missing moves go to ("dead", n), n the least not a state."""
        if all((s, sym) in self.transitions for s in self.states for sym in self.alphabet):
            return self
        dead = next(d for n in range(len(self.states) + 1) if (d := ("dead", n)) not in self.states)
        trans = dict(self.transitions)
        for s in self.states | {dead}:
            for sym in self.alphabet:
                trans.setdefault((s, sym), dead)
        return Dfa(self.alphabet, self.states | {dead}, self.initial, self.accepting, trans)

    def complement(self) -> "Dfa":
        full = self.complete()
        return Dfa(full.alphabet, full.states, full.initial,
                   full.states - full.accepting, full.transitions)

    def minimize(self) -> "Dfa":
        """Minimal DFA without a dead state, numbered by `renumber`'s walk as it is
        built: Moore's refinement on integers, one successor column per symbol."""
        sink = object()  # the target of every missing move
        states = [*self.states, sink]
        index = {s: i for i, s in enumerate(states)}
        get = self.transitions.get
        columns = [[index[get((s, sym), sink)] for s in states] for sym in self.alphabet]
        block = [s in self.accepting for s in states]
        ids = set(block)
        while True:
            count, ids = len(ids), {}
            block = [ids.setdefault(sig, len(ids))
                     for sig in zip(block, *[map(block.__getitem__, col) for col in columns])]
            if len(ids) == count:
                break
        accepting = {b for b, s in zip(block, states) if s in self.accepting}
        dead = block[-1]  # the sink's block: every state whose language is empty
        rep = {b: i for i, b in enumerate(block)}  # any state stands for its block

        def moves(b):
            i = rep[b]
            return [(sym, t) for sym, col in zip(self.alphabet, columns)
                    if (t := block[col[i]]) != dead]

        return self._numbered(self.alphabet, block[index[self.initial]], moves, accepting)

    def renumber(self) -> "Dfa":
        """The reachable part, states numbered 0, 1, ... in one `_bfs` walk."""
        return self._numbered(self.alphabet, self.initial, self._moves, self.accepting)

    @classmethod
    def _numbered(cls, alphabet, initial, moves, accepting) -> "Dfa":
        """The part reachable from `initial` by `moves`, numbered in `_bfs` order."""
        ids: dict = {}
        trans = {(ids[s], sym): ids[t] for s, out in _bfs([initial], moves, ids) for sym, t in out}
        return cls(alphabet, ids.values(), 0, {ids[s] for s in accepting if s in ids}, trans)

    def _moves(self, state) -> list:
        """(symbol, successor) pairs in alphabet order."""
        get = self.transitions.get
        return [(sym, t) for sym in self.alphabet if (t := get((state, sym))) is not None]

    def to_nfa(self) -> Nfa:
        trans = {k: {v} for k, v in self.transitions.items()}
        return Nfa(self.alphabet, self.states, {self.initial}, self.accepting, trans)

    def to_dot(self) -> str:
        return _to_dot([self.initial], self.states, self.accepting,
                       ((s, sym, t) for (s, sym), t in self.transitions.items()))

    def to_text(self) -> str:
        """Same text as ``to_nfa().to_text()``, printed in one walk as `renumber` numbers it."""
        return _to_text(self.alphabet, [self.initial], self._moves, self.accepting)


# ---------------------------------------------------------------------------
# Export formats


def _dot_labels(states) -> dict:
    """DOT name of each state: ints and class-automaton quadruples name
    themselves; if any state is something else, all are numbered in repr order."""
    labels = {}
    for s in states:
        if isinstance(s, int):
            labels[s] = str(s)
        elif isinstance(s, tuple) and len(s) == 4 and all(isinstance(x, int) for x in s):
            labels[s] = "(%d,%d,%d,%d)" % s
        else:
            return {s: str(i) for i, s in enumerate(sorted(states, key=repr))}
    return labels


def _to_dot(starts, states, accepting, triples) -> str:
    """DOT of every state; `triples` are the (src, symbol, dst) transitions."""
    labels = _dot_labels(states)
    lines = ["digraph automaton {", "  rankdir=LR;"]
    lines += [f'  __start{i} [shape=point, label=""];' for i in range(len(starts))]
    lines += [f'  "{label}" [shape={"doublecircle" if s in accepting else "circle"}];'
              for s, label in sorted(labels.items(), key=lambda kv: kv[1])]
    lines += [f'  __start{i} -> "{labels[s]}";' for i, s in enumerate(starts)]
    edges: dict = {}
    for src, sym, dst in triples:
        edges.setdefault((labels[src], labels[dst]), []).append(sym)
    lines += [f'  "{a}" -> "{b}" [label="{",".join(sorted(syms))}"];'
              for (a, b), syms in sorted(edges.items())]
    return "\n".join(lines + ["}"])


def _to_text(alphabet, starts, moves, accepting) -> str:
    """Text of the automaton reachable from `starts`, numbered and printed in
    one `_bfs` walk; each state's moves print by symbol, then successor."""
    ids: dict = {}
    head = ["alphabet: " + "".join(sorted({sym.lower() for sym in alphabet}))]
    body = []
    for s, out in _bfs(starts, moves, ids):
        i = ids[s]
        flags = (" initial" if i < len(starts) else "") + (" accepting" if s in accepting else "")
        head.append(f"state {i}{flags}")
        body += [f"trans {i} {sym} {t}" for sym, t in sorted([(sym, ids[t]) for sym, t in out])]
    return "\n".join(head + body) + "\n"


def _from_text(text: str) -> Nfa:
    alphabet = None
    states: set = set()
    initial: set = set()
    accepting: set = set()
    trans: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise ValueError(f"repeated alphabet line: {line!r}")
            letters = line.split(":", 1)[1].strip()
            alphabet = Alphabet(letters)
            continue
        parts = line.split()
        if parts[0] == "state":
            if len(parts) < 2:
                raise ValueError(f"bad state line: {line!r}")
            states.add(parts[1])
            for flag in parts[2:]:
                if flag == "initial":
                    initial.add(parts[1])
                elif flag == "accepting":
                    accepting.add(parts[1])
                else:
                    raise ValueError(f"unknown state flag {flag!r}")
        elif parts[0] == "trans":
            if len(parts) != 4:
                raise ValueError(f"bad trans line: {line!r}")
            src, sym, dst = parts[1], parts[2], parts[3]
            if alphabet is None:
                raise ValueError("alphabet line must come first")
            if sym.lower() not in alphabet:
                raise ValueError(f"symbol {sym!r} not over alphabet {alphabet.letters!r}")
            states |= {src, dst}
            _merge(trans, (src, sym), {dst})
        else:
            raise ValueError(f"unknown line {line!r}")
    if alphabet is None:
        raise ValueError("missing alphabet line")
    return Nfa(alphabet.symbols, states, initial, accepting, trans)


# ---------------------------------------------------------------------------
# Regular expressions over plain letters: literals, concatenation, |, *, ()


def nfa_from_regex(pattern: str, alphabet: Alphabet) -> Nfa:
    syms = tuple(alphabet.letters)
    pos = 0

    def peek():
        return pattern[pos] if pos < len(pattern) else None

    def parse_union() -> Nfa:
        nonlocal pos
        out = parse_concat()
        while peek() == "|":
            pos += 1
            out = out.union(parse_concat())
        return out

    def parse_concat() -> Nfa:
        nonlocal pos
        out = Nfa.word("", syms)
        while peek() is not None and peek() not in "|)":
            out = out.concat(parse_factor())
        return out

    def parse_factor() -> Nfa:
        nonlocal pos
        c = peek()
        if c == "(":
            pos += 1
            inner = parse_union()
            if peek() != ")":
                raise ValueError(f"unbalanced parenthesis in regex {pattern!r}")
            pos += 1
        elif c is not None and c in alphabet:
            inner = Nfa.word(c, syms)
            pos += 1
        else:
            raise ValueError(f"unexpected {c!r} at position {pos} in regex {pattern!r}")
        while peek() == "*":
            pos += 1
            inner = inner.star()
        return inner

    out = parse_union()
    if pos != len(pattern):
        raise ValueError(f"trailing input at position {pos} in regex {pattern!r}")
    return out


# ---------------------------------------------------------------------------
# Lifts between letter automata and operation-symbol automata


def inverse_projection(m: Nfa, alphabet: Alphabet, track: str) -> Nfa:
    """Automaton for the words whose write (or read) subword lies in L(m).

    `m` runs over plain letters.  With ``track="writes"`` the write symbols
    drive `m` and read symbols are ignored via self-loops; ``track="reads"``
    is the mirror case.
    """
    if track not in ("writes", "reads"):
        raise ValueError(f"track must be 'writes' or 'reads': {track!r}")
    trans: dict = {}
    for (src, sym), dsts in m.transitions.items():
        moved = sym if track == "writes" else sym.upper()
        trans[(src, moved)] = frozenset(dsts)
    loops = alphabet.letters.upper() if track == "writes" else alphabet.letters
    for s in m.states:
        for sym in loops:
            _merge(trans, (s, sym), {s})
    return Nfa(alphabet.symbols, m.states, m.initial, m.accepting, trans)


def shuffle_image(m: Nfa, alphabet: Alphabet) -> Nfa:
    """Image of L(m) under the letter-to-pair morphism c -> c c̄."""
    trans: dict = {}
    states = set(m.states)
    for (src, sym), dsts in m.transitions.items():
        for d in dsts:
            mid = ("pair", src, sym, d)
            states.add(mid)
            _merge(trans, (src, sym), {mid})
            _merge(trans, (mid, sym.upper()), {d})
    return Nfa(alphabet.symbols, states, m.initial, m.accepting, trans)


def write_star(alphabet: Alphabet) -> Nfa:
    """All words consisting of write symbols only."""
    return Nfa(alphabet.symbols, {0}, {0}, {0}, {(0, c): {0} for c in alphabet.letters})


def normal_form_dfa(alphabet: Alphabet) -> Dfa:
    """Partial DFA for the irreducible words: reads, then pairs, then writes."""
    reads_state = "r"
    pairs_state = "s"
    writes_state = "w"
    states = {reads_state, pairs_state, writes_state}
    trans: dict = {}
    for c in alphabet.letters:
        pending = ("p", c)
        states.add(pending)
        trans[(reads_state, c)] = pending
        trans[(pairs_state, c)] = pending
        trans[(pending, c.upper())] = pairs_state
        trans[(writes_state, c)] = writes_state
        trans[(reads_state, c.upper())] = reads_state
        for d in alphabet.letters:
            trans[(pending, d)] = writes_state
    return Dfa(alphabet.symbols, states, reads_state, states, trans)


def dual_automaton(m: Nfa) -> Nfa:
    """Automaton for the duals of the accepted words (reverse, swap kinds)."""
    return m.map_symbols(str.swapcase, m.alphabet).reverse()


# ---------------------------------------------------------------------------
# The automaton of one equivalence class


class ClassAutomaton:
    """Deterministic on-the-fly automaton accepting everything equivalent to `word`.

    States are index quadruples (i, j, k, l) into `word`: positions i..j
    delimit the reads consumed against the read block, k..l the writes
    produced so far.  Each state denotes a normal form that is a left
    divisor of the class: reads R[:rc(i)], overlap R[rc(i):rc(j)], writes
    W[wc(k):wc(l)], where R and W are the read and write projections of
    `word` and rc(p), wc(p) count the reads and writes among its first p
    symbols.

    Invariant of every reachable state: the reads in (i, j] spell W[:wc(k)].
    The overlap after a read of c is the longest suffix of W[:wc(k)] + c
    that is a prefix of W[:wc(l)], so the overlap length moves like the
    Knuth-Morris-Pratt automaton of W, capped at wc(l): one table lookup
    per read (`core._border_step`, as in `eval_word`).  So a state is fixed
    by three counters, rc(j), wc(l) and the overlap length wc(k);
    `rational_member` walks the states in that form.
    """

    def __init__(self, word: str, alphabet: Alphabet):
        self.word = word
        self.alphabet = alphabet
        n = len(word)
        self.read_positions = [p for p in range(1, n + 1) if word[p - 1].isupper()]
        self.write_positions = [p for p in range(1, n + 1) if word[p - 1].islower()]
        self._writes, self._reads = proj(word)
        # counts of reads/writes among the first p symbols, and the next of each after p
        self._rc, self._wc = [0], [0]
        for sym in word:
            upper = sym.isupper()
            self._rc.append(self._rc[-1] + upper)
            self._wc.append(self._wc[-1] + (not upper))
        self.next_read = self._next_table(self.read_positions, n)
        self.next_write = self._next_table(self.write_positions, n)
        self._step = _border_step(self._writes)
        self.target = eval_word(word)
        self.initial = (0, 0, 0, 0)

    @staticmethod
    def _next_table(positions, n):
        out = []
        idx = 0
        for j in range(n + 1):
            while idx < len(positions) and positions[idx] <= j:
                idx += 1
            out.append(positions[idx] if idx < len(positions) else None)
        return out

    def denote(self, state) -> NormalForm:
        i, j, k, l = state
        ri, wk = self._rc[i], self._wc[k]
        return NormalForm(self._reads[:ri], self._reads[ri:self._rc[j]],
                          self._writes[wk:self._wc[l]])

    def is_accepting(self, state) -> bool:
        i, j, k, l = state
        t = self.target
        return (self._rc[j] == len(self._reads) and self._wc[l] == len(self._writes)
                and self._rc[i] == len(t.reads) and self._wc[k] == len(t.overlap))

    def step(self, state, sym):
        return dict(self._moves(state)).get(sym)

    def _moves(self, state) -> list:
        """(symbol, successor) pairs: the word's next write, then its next read."""
        i, j, k, l = state
        out = []
        word = self.word
        l2 = self.next_write[l]
        if l2 is not None:
            out.append((word[l2 - 1], (i, j, k, l2)))
        j2 = self.next_read[j]
        if j2 is not None:
            sym = word[j2 - 1]
            kc = self._step(self._wc[k], self._wc[l], sym.lower())
            dropped = self._rc[j2] - kc
            i2 = self.read_positions[dropped - 1] if dropped else 0
            k2 = self.write_positions[kc - 1] if kc else 0
            out.append((sym, (i2, j2, k2, l)))
        return out


def class_dfa(word: str, alphabet: Alphabet) -> Dfa:
    """DFA accepting exactly the words equivalent to `word`."""
    ca = ClassAutomaton(word, alphabet)
    return Dfa.explore(alphabet.symbols, ca.initial, ca._moves, ca.is_accepting)


def rational_member(word: str, nfa: Nfa, alphabet: Alphabet) -> bool:
    """Does the automaton accept some word equivalent to `word`?

    The product of `nfa` with the class automaton, walked deterministically
    in one forward pass.  A class-automaton state is fixed by three counters:
    r reads and w writes of `word` consumed, and the overlap length kc.  A
    write moves (r, w, kc) to (r, w + 1, kc), a read to (r + 1, w, kc') by
    the capped KMP step of the write projection W (`core._border_step`);
    every move consumes one symbol of `word`, so the states form a grid DAG.
    The pass walks it row by row (r = 0..|R|) and keeps, per cell (r, w) and
    overlap kc, the set of `nfa` states that some word reaches there, as an
    int bitmask; successor sets are computed per symbol, once per distinct
    mask.  The answer is whether the set at (|R|, |W|, overlap of the normal
    form) meets the accepting states.  This is the paper's NL walk made
    deterministic: it costs O(class states) mask operations and keeps one
    row in memory.
    """
    for sym in nfa.alphabet:
        if sym.lower() not in alphabet:
            raise ValueError(f"automaton symbol {sym!r} not over alphabet {alphabet.letters!r}")
    writes, reads = proj(word)
    step = _border_step(writes)
    index = {q: n for n, q in enumerate(nfa.states)}
    post = {sym: _Successors([0] * len(index)) for sym in set(word)}
    for (q, sym), dsts in nfa.transitions.items():
        if sym in post:
            post[sym].table[index[q]] = sum(1 << index[t] for t in dsts)
    accepting = sum(1 << index[q] for q in nfa.accepting)
    nr, nw = len(reads), len(writes)
    stuck = _Successors([0] * len(index))  # no move past the last read or write
    write_posts = [post[c] for c in writes] + [stuck]
    # a row holds cells w = 0..nw and a spare one that `stuck` never fills
    row = [{} for _ in range(nw + 2)]
    row[0][0] = sum(1 << index[q] for q in nfa.initial)
    for r in range(nr + 1):
        below = [{} for _ in range(nw + 2)]
        if r < nr:
            # the read's overlap step from each kc, below the cap (kc < w) and at it
            c, down_post = reads[r], post[reads[r].upper()]
            grow = [step(kc, kc + 1, c) for kc in range(min(r + 1, nw))]
            capped = [step(kc, kc, c) for kc in range(min(r, nw) + 1)]
        else:
            down_post = stuck
        for w, cell in enumerate(row):
            if not cell:
                continue
            right, right_post, down = row[w + 1], write_posts[w], below[w]
            for kc, mask in cell.items():
                if nxt := right_post[mask]:
                    right[kc] = right.get(kc, 0) | nxt
                if nxt := down_post[mask]:
                    kc2 = grow[kc] if kc < w else capped[kc]
                    down[kc2] = down.get(kc2, 0) | nxt
        if r == nr:
            return bool(row[nw].get(eval_word(word).overlap_width(), 0) & accepting)
        if not any(below):
            return False
        row = below


class _Successors(dict):
    """Successor mask of each NFA state mask under one symbol, computed on
    first use from `table`, the successor mask of each single state."""

    __slots__ = ("table",)

    def __init__(self, table):
        super().__init__()
        self.table = table

    def __missing__(self, mask):
        out, rest = 0, mask
        while rest:
            low = rest & -rest
            out |= self.table[low.bit_length() - 1]
            rest ^= low
        self[mask] = out
        return out
