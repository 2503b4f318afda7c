"""Reference answers for the benchmark's answer checker.

Everything here is written independently of the library, so a defect in
the library cannot hide itself by being copied into the checker:

* `normal_form` uses the characterization of the overlap block by
  projections and shuffledness: the overlap width of a word is the largest
  l such that the last l reads spell the first l writes and the word is
  l-shuffled (the i-th write precedes the i-th of the last l reads).
* `act` and `need` are the queue semantics themselves.
* `in_omega` is the word-level form of Omega_k: for every m <= k, if the
  first m writes spell the last m reads, the word must be m-shuffled.
* Automata printed by the CLI are parsed from their text form and run by
  subset simulation; `conjset` and `simple --compile` must print automata
  no larger than the minimal DFA of their language (subset construction
  and Moore refinement here).
"""

from __future__ import annotations

import re
from collections import deque
from functools import cache
from itertools import product

EMPTY = "e"
BOT = "BOT"


def projections(word: str) -> tuple[str, str]:
    """(write letters, read letters) of a word."""
    writes = "".join(c for c in word if c.islower())
    reads = "".join(c.lower() for c in word if c.isupper())
    return writes, reads


def shuffled(word: str, k: int) -> bool:
    """Does the i-th write precede the i-th of the last k reads, for i <= k?"""
    return _shuffled_prefix(word)(k)


def _shuffled_prefix(word: str):
    """Callable k -> shuffled(word, k), with the position lists built once."""
    writes = [i for i, c in enumerate(word) if c.islower()]
    reads = [i for i, c in enumerate(word) if c.isupper()]

    def test(k: int) -> bool:
        if k > len(writes) or k > len(reads):
            return False
        base = len(reads) - k
        return all(writes[i] < reads[base + i] for i in range(k))

    return test


def normal_form(word: str) -> str:
    """The normal-form word of `word`: reads, then write/read pairs, then writes."""
    writes, reads = projections(word)
    is_shuffled = _shuffled_prefix(word)
    for width in range(min(len(writes), len(reads)), 0, -1):
        if reads[len(reads) - width:] == writes[:width] and is_shuffled(width):
            pairs = "".join(c + c.upper() for c in writes[:width])
            return reads[: len(reads) - width].upper() + pairs + writes[width:]
    return reads.upper() + writes


def is_normal_form(word: str) -> bool:
    """Is the word shaped as reads, then equal-letter pairs, then writes?"""
    i, n = 0, len(word)
    while i < n and word[i].isupper():
        i += 1
    while i + 1 < n and word[i].islower() and word[i + 1] == word[i].upper():
        i += 2
    return i == n or word[i:].islower()


def equivalent(u: str, v: str) -> bool:
    return normal_form(u) == normal_form(v)


def in_omega(word: str, k: int) -> bool:
    writes, reads = projections(word)
    for m in range(1, k + 1):
        if m <= len(writes) and m <= len(reads) and writes[:m] == reads[len(reads) - m:]:
            if not shuffled(word, m):
                return False
    return True


def act(queue: str, word: str):
    """Run a word on a queue; None for the error state."""
    q = deque(queue)
    for sym in word:
        if sym.islower():
            q.append(sym)
        elif not q or q.popleft() != sym.lower():
            return None
    return "".join(q)


def need(word: str, n: int):
    """Letters a length-n queue must start with for `word` not to fail, or None."""
    needed = []
    pending = deque()
    for sym in word:
        if sym.islower():
            pending.append(sym)
        elif len(needed) < n:
            needed.append(sym.lower())
        elif not pending or pending.popleft() != sym.lower():
            return None
    return "".join(needed)


def embed_q2(word: str, letters: str) -> str:
    n = len(letters)
    image = {}
    for i, c in enumerate(letters, start=1):
        block = "a" * (n + i) + "b" + "a" * (n - i) + "b"
        image[c] = block
        image[c.upper()] = block.upper()
    return "".join(image[s] for s in word)


def word_text(word: str) -> str:
    return word if word else EMPTY


def parse_word_text(text: str) -> str:
    return "" if text == EMPTY else text


# ---------------------------------------------------------------------------
# Simple-set expressions, kept as tuples by the generator:
#   ("pi", regex) ("pibar", regex) ("omega", k) ("and", a, b) ("or", a, b) ("not", a)

def eval_expr(expr, word: str) -> bool:
    """Membership of the class of `word` in the simple set `expr`."""
    op = expr[0]
    if op == "pi":
        return re.fullmatch(expr[1], projections(word)[0]) is not None
    if op == "pibar":
        return re.fullmatch(expr[1], projections(word)[1]) is not None
    if op == "omega":
        return in_omega(word, expr[1])
    if op == "and":
        return eval_expr(expr[1], word) and eval_expr(expr[2], word)
    if op == "or":
        return eval_expr(expr[1], word) or eval_expr(expr[2], word)
    if op == "not":
        return not eval_expr(expr[1], word)
    raise ValueError(f"unknown expression node {op!r}")


def expr_text(expr) -> str:
    op = expr[0]
    if op in ("pi", "pibar"):
        return f"{op}({expr[1]})"
    if op == "omega":
        return f"omega({expr[1]})"
    if op == "not":
        return f"!({expr_text(expr[1])})"
    joiner = " & " if op == "and" else " | "
    return f"({expr_text(expr[1])}{joiner}{expr_text(expr[2])})"


# ---------------------------------------------------------------------------
# Automata in the CLI's text format


class TextAutomaton:
    """An automaton parsed from `alphabet:`/`state`/`trans` lines."""

    def __init__(self, text: str):
        self.states: set[str] = set()
        self.initial: set[str] = set()
        self.accepting: set[str] = set()
        self.trans: dict[tuple[str, str], list[str]] = {}
        self.deterministic = True
        for line in text.splitlines():
            parts = line.split()
            if not parts or parts[0] == "alphabet:":
                continue
            if parts[0] == "state":
                self.states.add(parts[1])
                if "initial" in parts[2:]:
                    self.initial.add(parts[1])
                if "accepting" in parts[2:]:
                    self.accepting.add(parts[1])
            elif parts[0] == "trans" and len(parts) == 4:
                targets = self.trans.setdefault((parts[1], parts[2]), [])
                targets.append(parts[3])
                if len(targets) > 1:
                    self.deterministic = False
            else:
                raise ValueError(f"unexpected automaton line {line!r}")

    def accepts(self, word: str) -> bool:
        current = set(self.initial)
        for sym in word:
            current = {t for s in current for t in self.trans.get((s, sym), ())}
            if not current:
                return False
        return bool(current & self.accepting)

    def is_empty(self) -> bool:
        seen = set(self.initial)
        queue = deque(seen)
        succ: dict[str, list[str]] = {}
        for (src, _), targets in self.trans.items():
            succ.setdefault(src, []).extend(targets)
        while queue:
            s = queue.popleft()
            if s in self.accepting:
                return False
            for t in succ.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return True


    def minimal_size(self) -> int:
        """States of the minimal trim DFA of the language (1 for the empty one)."""
        symbols = sorted({sym for _, sym in self.trans})
        start = frozenset(self.initial)
        subsets, queue, step = {start}, deque([start]), {}
        while queue:
            current = queue.popleft()
            for sym in symbols:
                nxt = frozenset(t for s in current for t in self.trans.get((s, sym), ()))
                if nxt:
                    step[(current, sym)] = nxt
                    if nxt not in subsets:
                        subsets.add(nxt)
                        queue.append(nxt)
        # keep the subsets from which an accepting one is reachable
        useful = {s for s in subsets if s & self.accepting}
        grew = True
        while grew:
            grew = False
            for (src, _), dst in step.items():
                if dst in useful and src not in useful:
                    useful.add(src)
                    grew = True
        block = {s: bool(s & self.accepting) for s in useful}
        count = len(set(block.values()))
        while True:
            signature = {s: (block[s], tuple(block.get(step.get((s, sym))) for sym in symbols))
                         for s in useful}
            ids: dict = {}
            block = {s: ids.setdefault(signature[s], len(ids)) for s in useful}
            if len(ids) == count:
                return max(count, 1)
            count = len(ids)


@cache
def short_words(letters: str, max_len: int) -> tuple[str, ...]:
    """All words over the operation symbols of `letters`, up to `max_len`."""
    symbols = letters + letters.upper()
    return tuple("".join(t) for n in range(max_len + 1) for t in product(symbols, repeat=n))


# ---------------------------------------------------------------------------
# Checking one answer


def _verdict(out: str, rc, yes_text: str, no_text: str, expected: bool):
    want = (yes_text, 0) if expected else (no_text, 1)
    if (out.strip(), rc) != want:
        return f"expected {want[0]!r} with exit {want[1]}, got {out.strip()!r} with exit {rc}"
    return None


def _word_answer(out: str, rc, expected: str, queues, original: str):
    if rc != 0:
        return f"exit {rc}"
    got = parse_word_text(out.strip())
    if got != expected:
        return f"normal form {got[:40]!r}... differs from reference {expected[:40]!r}..."
    for q in queues:
        if act(q, got) != act(q, original):
            return f"acts differently from the input on queue {q[:20]!r}"
    return None


def check(query, rc, out: str):
    """None when the CLI's answer to `query` is right, else a reason."""
    kind, data = query.kind, query.data
    if kind == "nf":
        return _word_answer(out, rc, normal_form(data["word"]), data["queues"], data["word"])
    if kind == "mul":
        joined = data["left"] + data["right"]
        return _word_answer(out, rc, normal_form(joined), data["queues"], joined)
    if kind == "act":
        result = act(data["queue"], data["word"])
        want = BOT if result is None else word_text(result)
        if (out.strip(), rc) != (want, 0):
            return f"act gave {out.strip()[:40]!r}, reference {want[:40]!r}"
        return None
    if kind in ("eq", "eq_oracle"):
        return _verdict(out, rc, "equivalent", "inequivalent", data["expected"])
    if kind == "conj":
        return _verdict(out, rc, "conjugate", "not-conjugate", data["expected"])
    if kind == "omega":
        return _verdict(out, rc, "in", "out", in_omega(data["word"], data["k"]))
    if kind == "kshuffled":
        return _verdict(out, rc, "yes", "no", shuffled(data["word"], data["k"]))
    if kind == "embed2":
        want = word_text(embed_q2(data["word"], data["letters"]))
        if (out.strip(), rc) != (want, 0):
            return "embed2 image differs from reference"
        return None
    if kind == "member":
        return _verdict(out, rc, "yes", "no", data["expected"])
    if kind == "simple_eval":
        return _verdict(out, rc, "in", "out", eval_expr(data["expr"], data["word"]))
    if kind == "conjwitness":
        return _check_witness(out, rc, data)
    if kind in ("classdfa", "conjset", "simple_compile"):
        if rc != 0:
            return f"exit {rc}"
        try:
            automaton = TextAutomaton(out)
        except ValueError as exc:
            return str(exc)
        if kind == "classdfa":
            return _check_class(automaton, data)
        minimal = automaton.minimal_size()
        if len(automaton.states) > minimal:
            return f"{len(automaton.states)} states printed, the minimal DFA has {minimal}"
        if kind == "conjset":
            return _check_conjugators(automaton, data)
        return _check_compiled(automaton, data)
    raise ValueError(f"unknown query kind {kind!r}")


def _check_witness(out, rc, data):
    if not data["expected"]:
        return None if (out.strip(), rc) == ("NONE", 1) else "witness for a non-conjugate pair"
    if rc != 0:
        return f"no witness for a conjugate pair (exit {rc})"
    z = parse_word_text(out.strip())
    if not is_normal_form(z):
        return f"witness {z!r} is not a normal form"
    if not equivalent(data["left"] + z, z + data["right"]):
        return f"witness {z!r} does not conjugate"
    return None


def _check_class(automaton: TextAutomaton, data):
    if not automaton.deterministic:
        return "class automaton is not deterministic"
    for w in data["accept"]:
        if not automaton.accepts(w):
            return f"class DFA rejects the equivalent word {w[:40]!r}..."
    for w in data["reject"]:
        if automaton.accepts(w):
            return f"class DFA accepts the inequivalent word {w[:40]!r}..."
    return None


def _check_conjugators(automaton: TextAutomaton, data):
    p, q = data["left"], data["right"]
    if not data["expected"]:
        return None if automaton.is_empty() else "conjugators of a non-conjugate pair"
    if automaton.is_empty():
        return "no conjugators for a conjugate pair"
    for z in short_words(data["letters"], data["brute_len"]):
        want = is_normal_form(z) and equivalent(p + z, z + q)
        if automaton.accepts(z) != want:
            return f"conjugator set wrong on z={z!r} (reference says {want})"
    return None


def _check_compiled(automaton: TextAutomaton, data):
    for w in data["samples"]:
        if automaton.accepts(w) != eval_expr(data["expr"], w):
            return f"compiled DFA disagrees with the reference on {w!r}"
    return None
