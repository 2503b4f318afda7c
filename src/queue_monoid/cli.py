"""Command-line front end.

Words use the compact syntax of the library: a lowercase letter writes
that letter, the uppercase letter reads it, "e" (or the empty string) is
the empty word.  Predicates print a single lowercase word and signal their
answer through the exit status: 0 for yes/success, 1 for no, 2 for usage
or parse errors, 3 for an internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import (
    Alphabet,
    BOT_TOKEN,
    act,
    embed_q2,
    format_word,
    mul,
    parse_word,
    profile_equivalent,
    rewrite_normalize,
)
from .automata import Nfa, class_dfa, rational_member
from .conjugacy import conjugate, conjugator_nfa, find_conjugator
from .recognizability import (
    compile_simple,
    eval_simple,
    k_shuffled,
    in_omega,
    parse_simple_expr,
)

__all__ = ["main"]


def _emit_automaton(automaton, dot: bool) -> None:
    if dot:
        print(automaton.to_dot())
    else:
        print(automaton.to_text(), end="")


def _cmd_nf(args) -> int:
    w = parse_word(args.word, Alphabet(args.alphabet))
    print(format_word(rewrite_normalize(w).word()))
    return 0


def _cmd_act(args) -> int:
    alphabet = Alphabet(args.alphabet)
    q = parse_word(args.queue, alphabet)
    if q != q.lower():
        raise ValueError(f"queue {args.queue!r} must hold letters, not reads")
    w = parse_word(args.word, alphabet)
    result = act(q, w)
    print(BOT_TOKEN if result is None else format_word(result))
    return 0


def _cmd_mul(args) -> int:
    alphabet = Alphabet(args.alphabet)
    x = rewrite_normalize(parse_word(args.left, alphabet))
    y = rewrite_normalize(parse_word(args.right, alphabet))
    print(format_word(mul(x, y).word()))
    return 0


def _cmd_eq(args) -> int:
    if args.max_queue is not None and not args.oracle:
        raise ValueError("--max-queue needs --oracle")
    alphabet = Alphabet(args.alphabet)
    u = parse_word(args.left, alphabet)
    v = parse_word(args.right, alphabet)
    if args.oracle:
        same = profile_equivalent(u, v, args.max_queue)
    else:
        same = rewrite_normalize(u) == rewrite_normalize(v)
    print("equivalent" if same else "inequivalent")
    return 0 if same else 1


def _cmd_conj(args) -> int:
    alphabet = Alphabet(args.alphabet)
    p = rewrite_normalize(parse_word(args.left, alphabet))
    q = rewrite_normalize(parse_word(args.right, alphabet))
    answer = conjugate(p, q)
    print("conjugate" if answer else "not-conjugate")
    return 0 if answer else 1


def _cmd_conjwitness(args) -> int:
    alphabet = Alphabet(args.alphabet)
    p = rewrite_normalize(parse_word(args.left, alphabet))
    q = rewrite_normalize(parse_word(args.right, alphabet))
    z = find_conjugator(p, q, alphabet)
    if z is None:
        print("NONE")
        return 1
    print(format_word(z.word()))
    return 0


def _cmd_conjset(args) -> int:
    alphabet = Alphabet(args.alphabet)
    p = rewrite_normalize(parse_word(args.left, alphabet))
    q = rewrite_normalize(parse_word(args.right, alphabet))
    _emit_automaton(conjugator_nfa(p, q, alphabet).nfa, args.dot)
    return 0


def _cmd_classdfa(args) -> int:
    alphabet = Alphabet(args.alphabet)
    w = parse_word(args.word, alphabet)
    _emit_automaton(class_dfa(w, alphabet), args.dot)
    return 0


def _cmd_member(args) -> int:
    alphabet = Alphabet(args.alphabet)
    w = parse_word(args.word, alphabet)
    with open(args.nfa, encoding="utf-8") as handle:
        nfa = Nfa.from_text(handle.read())
    answer = rational_member(w, nfa, alphabet)
    print("yes" if answer else "no")
    return 0 if answer else 1


def _cmd_omega(args) -> int:
    q = rewrite_normalize(parse_word(args.word, Alphabet(args.alphabet)))
    answer = in_omega(q, args.k)
    print("in" if answer else "out")
    return 0 if answer else 1


def _cmd_kshuffled(args) -> int:
    w = parse_word(args.word, Alphabet(args.alphabet))
    answer = k_shuffled(w, args.k)
    print("yes" if answer else "no")
    return 0 if answer else 1


def _cmd_embed2(args) -> int:
    alphabet = Alphabet(args.alphabet)
    w = parse_word(args.word, alphabet)
    print(format_word(embed_q2(w, alphabet)))
    return 0


def _cmd_simple(args) -> int:
    if args.dot and not args.compile:
        raise ValueError("--dot needs --compile")
    alphabet = Alphabet(args.alphabet)
    try:
        expr = parse_simple_expr(args.expr, alphabet)
        if args.compile:
            if args.word is not None:
                raise ValueError("--compile does not take a word argument")
            _emit_automaton(compile_simple(expr, alphabet), args.dot)
            return 0
        if args.word is None:
            raise ValueError("evaluation needs a word argument (or pass --compile)")
        q = rewrite_normalize(parse_word(args.word, alphabet))
        answer = eval_simple(expr, q)
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    print("in" if answer else "out")
    return 0 if answer else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--alphabet",
        default="ab",
        help="base letters, lowercase, at least two (default: ab)",
    )

    parser = argparse.ArgumentParser(
        prog="queue-monoid",
        description="Normal forms, conjugacy and recognizability for queue actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", parents=[common], help="normal form of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("act", parents=[common], help="run a word on a queue")
    p.add_argument("queue")
    p.add_argument("word")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("mul", parents=[common], help="normal form of a product")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("eq", parents=[common], help="decide equivalence of two words")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--oracle", action="store_true", help="decide by the action on queues (queue profiles)")
    p.add_argument("--max-queue", type=int, default=None, help="queue length cap for --oracle")
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("conj", parents=[common], help="decide conjugacy")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser("conjwitness", parents=[common], help="find a verified conjugator")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_conjwitness)

    p = sub.add_parser("conjset", parents=[common], help="automaton of all conjugators")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.set_defaults(func=_cmd_conjset)

    p = sub.add_parser("classdfa", parents=[common], help="DFA of the equivalence class")
    p.add_argument("word")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.set_defaults(func=_cmd_classdfa)

    p = sub.add_parser("member", parents=[common], help="rational-subset membership")
    p.add_argument("word")
    p.add_argument("--nfa", required=True, help="automaton file (text format)")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("omega", parents=[common], help="membership in Omega_k")
    p.add_argument("k", type=int)
    p.add_argument("word")
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("kshuffled", parents=[common], help="k-shuffledness of a word")
    p.add_argument("k", type=int)
    p.add_argument("word")
    p.set_defaults(func=_cmd_kshuffled)

    p = sub.add_parser("embed2", parents=[common], help="image in the two-letter monoid")
    p.add_argument("word")
    p.set_defaults(func=_cmd_embed2)

    p = sub.add_parser("simple", parents=[common], help="evaluate or compile a simple set")
    p.add_argument("expr", help="e.g. 'pi(a*) & pibar(a*) & !omega(1)'")
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--compile", action="store_true", help="emit an automaton for the set")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.set_defaults(func=_cmd_simple)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a library fault must not read as a "no" (exit 1)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
