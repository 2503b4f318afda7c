import contextlib
import hashlib
import io
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queue_monoid import Alphabet, Nfa, NormalForm, equiv_oracle, rewrite_normalize
from queue_monoid import cli
from queue_monoid.cli import main

from helpers import AB, member_reference, words_upto


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "abB")
    assert (code, out) == (0, "Bab")
    code, out, _ = run(capsys, "nf", "e")
    assert (code, out) == (0, "e")


def test_nf_output_reparses_to_same_normal_form(capsys):
    for word in ("abB", "aAB", "BAba", "aabbAB"):
        _, out, _ = run(capsys, "nf", word)
        parsed = "" if out == "e" else out
        assert NormalForm.from_word(parsed) == rewrite_normalize(word)


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--alphabet", "abc", "ab", "Ac")
    assert (code, out) == (0, "bc")
    code, out, _ = run(capsys, "act", "e", "Aa")
    assert (code, out) == (0, "BOT")
    code, out, _ = run(capsys, "act", "ab", "AB")
    assert (code, out) == (0, "e")


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "a", "A")
    assert (code, out) == (0, "aA")


def test_eq(capsys):
    code, out, _ = run(capsys, "eq", "aA", "Aa")
    assert (code, out) == (1, "inequivalent")
    code, out, _ = run(capsys, "eq", "abB", "Bab")
    assert (code, out) == (0, "equivalent")
    code, out, _ = run(capsys, "eq", "--oracle", "abB", "Bab")
    assert (code, out) == (0, "equivalent")
    code, out, _ = run(capsys, "eq", "--oracle", "--max-queue", "3", "aA", "Aa")
    assert (code, out) == (1, "inequivalent")


def test_eq_oracle_on_long_words_is_fast(capsys):
    # enumerating every queue up to length |u|+|v| = 28 takes about 2^29 runs
    started = time.perf_counter()
    code, out, _ = run(capsys, "eq", "--oracle", "aBaBaBaBaBaBaB", "BaBaBaBaBaBaBa")
    assert (code, out) == (0, "equivalent")
    assert time.perf_counter() - started < 0.5


def test_eq_oracle_with_a_huge_cap_is_fast(capsys):
    # no queue longer than the words' read count can tell them apart, so the
    # cap does not set the work; trying every length up to it takes hours
    started = time.perf_counter()
    code, out, _ = run(capsys, "eq", "--oracle", "--max-queue", "1000000000", "aB", "Ba")
    assert (code, out) == (0, "equivalent")
    code, out, _ = run(capsys, "eq", "--oracle", "--max-queue", "1000000000", "aA", "Aa")
    assert (code, out) == (1, "inequivalent")
    assert time.perf_counter() - started < 0.5


def test_omega_compile_is_fast(capsys):
    # building one automaton per border word u (62 of them up to k = 5)
    # instead of one stepper takes about 2 s
    started = time.perf_counter()
    assert main(["simple", "omega(5)", "--compile"]) == 0
    capsys.readouterr()
    assert time.perf_counter() - started < 1.0


# sha256 of the stdout of `simple 'omega(k)' --compile`, taken from the
# construction with one intersected term per border word u; the minimal DFA
# is canonical, so equal hashes mean equal languages
OMEGA_COMPILE_SHA256 = {
    ("ab", 0): "e9b2fd234088d6b55f8d5cb585c2bded17a5d84358cfb7c5bb3c1fa17da6c140",
    ("ab", 1): "31be0e357b00feed54ad1c53496f642469e6894727183b921f0f10f4469fe5ce",
    ("ab", 2): "d9936f018c22a1320621e62f7fc2a7b67f2f63af6015bf20ab1dd38493d7a9fa",
    ("ab", 3): "70648e33b49dee53488381807beb1a343a9eaa75b71a62b46f9506493b1efa0c",
    ("ab", 4): "79335ca09676027dcab793e85d090ed694e0197ccfb235fb91647e2289c0f575",
    ("abc", 0): "c923b9ae3a283f7f6b6ec8dd02d135ddc899c15570b507c0ca2779a56fbde4fe",
    ("abc", 1): "d196a80782b6278e9a16a9759f70384ab24d114cfff347cdadbc9304f5a48ebc",
    ("abc", 2): "570e4a34d2cb038d9748af6bb0a9eea5281cb080c595054f1a90f5d264c51140",
    ("abc", 3): "7e18e881b2817e1d9f9ee00f5bd49064c6ad1b7fc9b4704caeec4b137de25c1c",
}


@pytest.mark.parametrize("letters,k", sorted(OMEGA_COMPILE_SHA256))
def test_omega_compile_matches_golden_hash(capsys, letters, k):
    assert main(["simple", f"omega({k})", "--compile", "--alphabet", letters]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == OMEGA_COMPILE_SHA256[(letters, k)]


# sha256 of the stdout of `simple EXPR --compile` (text, then --dot), taken
# from the construction that built and minimized one product per node: the
# seven compiles of block 0 of the benchmark's simple_sets workload (seed 1),
# then mixed expressions, a negated omega(5) and repeated atoms
MIXED_COMPILE_SHA256 = {
    ("dt", "(!(omega(4)) | (pi((dt)*) & omega(3)))"): (
        "258ca072d903ceed05b25d6177acaf4a8593871be314bd552913da729e17aec2",
        "21f272bd4e0a4397bd07881e777b1c3f1598a793cc07a2fde3d218037cdd6d45"),
    ("dpt", "(omega(1) & (pibar(d*t*p*) | omega(1)))"): (
        "7c82300cb5fee95d153e093b3ca4bb10aab5e47808226f07890cd6c52276075f",
        "9f9d8fbda9ce092a944d153eabe1ca00cf1db30beae31798fba6d9d68ba0b5a5"),
    ("dpt", "(omega(3) & (pibar((d|t|p)*dt(d|t|p)*) | omega(3)))"): (
        "e2ab0983b3392376e937b58fc51f0e290d998edfdba3e5f5b087f1b9866cb7d9",
        "05a6eb9cecdb6f8c540468ac1f64559781606af164300c21aacb93847ca0819e"),
    ("dpt", "(!(omega(2)) | (pi((d|p)*) & pibar(d*t*p*)))"): (
        "556c84884335512f270707c80cf1996e772fbd72732eea3cc0ba785988798353",
        "fdff8fdbc7836407ae370992f1c90f2037b52adcf8386a47b887eb0c388f45a2"),
    ("dt", "(omega(3) & (pibar((dd|t)*) | omega(3)))"): (
        "7ef311f42baa00a4dba517009058e17e3c825004c2458b0ee2d429aecd12c4ef",
        "c312ffcea0ee3f018454bf3e33d72a528f707208fef70af688d39eb0304697a3"),
    ("dt", "(!(omega(2)) | (pi(t(d|t)*) & pibar(d*t*)))"): (
        "79bf0c431dd49e0943f5f1db2b642be45209bf636ad3fd7605dba9f5ff7a91fe",
        "8310811ddb7df2be7bbdb2c138af1116c15bbde477d5f0e9cffd5e6ecf416112"),
    ("dt", "(omega(1) & (pibar(d*t*) | omega(1)))"): (
        "4133688171cc1740b8f41d8dae0c15fc5bd2d9d3aef5987f392ba7e1fc2d27af",
        "92879f3dee7b4226e9fa0014a8bea1492f63e6fa307c864d6810146e661002ca"),
    ("ab", "omega(4) & !pi((ab)*) | pibar(a*b*) & omega(3)"): (
        "987f852563c3e831157eb0e7cd5fc14f1e142475bb25f4c1731f0b52bbb5b86f",
        "b1476cc7005dc29226cff3b4b83416203f0bf4cc7ca781c93839021a65b1e55e"),
    ("ab", "omega(5) & omega(4) & omega(3)"): (
        "99dc6e8bab8c38aa662a4a2fd817f3dd7faf3ba357b8a07432de25998f07553e",
        "4f863b16a247446860ecf7546d34cde99416080a4e49486994d43f0bc039f472"),
    ("ab", "!omega(5)"): (
        "cdf973f441fb2c9bc1dfaaedc2880653ca8c1f50b455ad39b474ebdbf1bc1a50",
        "8b36b207872effdf1a333616097b9ce1cdb35cc7063b826647085f8e43b28552"),
    ("abc", "omega(3) & pi((a|b)*c) | omega(2) & pibar(a*b*c*)"): (
        "af28ea5fc75b211c4463976b08e28f40f250e2e13d4ef9ae847c04382db2ebe2",
        "d3f113e5730e3587f30060c8025cf20cd3db1483680b0d2842a0f5eb6837818e"),
    ("ab", "(omega(2) | pi(a*)) & !(omega(2) & pibar(b*))"): (
        "11fea0514180e0bf997c39bb897fb5c6c13117b5979c590cf3fd8f3c30cbf4d2",
        "45fc2cc5936c6efee0eb719ea992135904e742efd28146bf202a05eb7638df11"),
}


@pytest.mark.parametrize("letters,expr", sorted(MIXED_COMPILE_SHA256))
@pytest.mark.parametrize("dot", [False, True])
def test_mixed_compile_matches_golden_hash(capsys, letters, expr, dot):
    argv = ["simple", "--alphabet", letters, expr, "--compile"] + (["--dot"] if dot else [])
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == MIXED_COMPILE_SHA256[(letters, expr)][dot]


def _seeded_word(n, letters):
    rng = random.Random(n)
    symbols = letters + letters.upper()
    return "".join(rng.choice(symbols) for _ in range(n))


CLASSDFA_WORDS = {
    **{f"{letters}-{n}": (letters, _seeded_word(n, letters))
       for letters in ("ab", "abc") for n in (20, 60, 120)},
    # periodic write projections: borders make reads fall back along KMP links
    "a-periodic": ("ab", "a" * 6 + "A" * 3 + "a" * 6 + "A" * 6),
    "ab-periodic": ("ab", "ab" * 4 + "AB" * 2 + "ab" * 3 + "AB" * 3 + "ab" * 2),
    "aab-periodic": ("abc", "aab" * 3 + "AAB" + "aab" * 2 + "AABAAB" + "a" + "AABA"),
}

# sha256 of the stdout of `classdfa` (text, then --dot), taken from the
# construction that compared prefix strings on every read; the DOT labels
# are the (i,j,k,l) states, so these also pin the state encoding
CLASSDFA_SHA256 = {
    "ab-20": ("49e074131bc654518eb97ee2ae609b54f8ecdcbb07f9b42e34dd31624b806942",
              "d9b3c4912eb0fc040d5650c7744159a60aa02a4366389367891580d0e721a910"),
    "ab-60": ("5dd718e4f5f6646c2ac1ca671ba98ad13d11a0637e3b4d356422f9ca3cc08d4a",
              "1d1fd3139af9483303f54b7a135f2250cc0c88d6e74c5734a63e0ad980f11776"),
    "ab-120": ("6e6775d488c418afd28d510ed786b0f6eb93062a344e15d998060b70c3f3444a",
               "5ee6bd746fb085d7aad537fb65b1a903650f3f0d43ac1b489b197d9d7b61c29f"),
    "abc-20": ("64b4544ec6dbdd7a93b7c17253005fb0a36e8dcfc2e76ee9b3d70d3d1c79e285",
               "be86db8b5ae72d7c37789ebbe40c2faf234f0e9c0d3a61efef9981bd95b62772"),
    "abc-60": ("033ab9b0fca0dc7adbdfd575e7616633337ee414b55a96de95fb83c79e88c921",
               "01ac746f2b4a0d2be7a353ccca3220f39d5829dce16942eda6d214fecccd37ab"),
    "abc-120": ("be0e54b3ae4f4eb9ad16ef09d9a1a4da7b8ce5e3727d053898203e5889c1468c",
                "2887f70414cfa4d0cc7978c4b4da1684f12c9fb90fa21e9de446d37c35c1a093"),
    "a-periodic": ("c44dab735661e928bc6db184da33453ef0838e1d8792daf4a8e076aa37db3874",
                   "17b184549f1ef4f555a2a6a1e2851d7c7806e17aa1a77bbf7ef12b4e13041bdc"),
    "ab-periodic": ("c18f95ef90175e0498ef91995f4ff8a5efd3de7c153766b17b8e04ed9274892c",
                    "33688964deda1698dd5d6056543cab1111a769d772647ba47e579e1369958ffb"),
    "aab-periodic": ("b9234832ff31196229df5b2797ddb408900c6af0969307430510f2205400b861",
                     "7e844dba76a601931a87c445f6a64d5e8d7b892ac6639597b1ee8c32d9b79e6a"),
}


@pytest.mark.parametrize("name", sorted(CLASSDFA_SHA256))
@pytest.mark.parametrize("dot", [False, True])
def test_classdfa_matches_golden_hash(capsys, name, dot):
    letters, word = CLASSDFA_WORDS[name]
    assert main(["classdfa", "--alphabet", letters, word] + (["--dot"] if dot else [])) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLASSDFA_SHA256[name][dot]


def test_eq_oracle_agrees_with_equiv_oracle(capsys):
    # every pair of words up to length 3, at the default bound and capped
    words = words_upto(3)
    for cap in (None, 0, 1, 2, 3):
        flags = [] if cap is None else ["--max-queue", str(cap)]
        for u in words:
            for v in words:
                same = equiv_oracle(u, v, AB, cap)
                code, out, _ = run(capsys, "eq", "--oracle", *flags, u or "e", v or "e")
                assert (code, out) == ((0, "equivalent") if same else (1, "inequivalent")), (
                    cap, u, v)


def test_conj(capsys):
    code, out, _ = run(capsys, "conj", "Aa", "aA")
    assert (code, out) == (0, "conjugate")
    code, out, _ = run(capsys, "conj", "a", "b")
    assert (code, out) == (1, "not-conjugate")


def test_conjwitness(capsys):
    code, out, _ = run(capsys, "conjwitness", "Aa", "aA")
    assert code == 0
    z = rewrite_normalize("" if out == "e" else out)
    left = rewrite_normalize("Aa" + z.word())
    right = rewrite_normalize(z.word() + "aA")
    assert left == right
    code, out, _ = run(capsys, "conjwitness", "a", "b")
    assert (code, out) == (1, "NONE")


def test_conjset(capsys):
    code, out, _ = run(capsys, "conjset", "A", "A")
    assert code == 0 and out.startswith("alphabet: ab")
    code, out, _ = run(capsys, "conjset", "A", "A", "--dot")
    assert code == 0 and out.startswith("digraph")


def test_classdfa(capsys):
    code, out, _ = run(capsys, "classdfa", "aB")
    assert code == 0 and "alphabet: ab" in out
    code, out, _ = run(capsys, "classdfa", "aB", "--dot")
    assert code == 0 and "(0,0,0,0)" in out and "doublecircle" in out


def test_member(capsys, tmp_path):
    path = tmp_path / "m.nfa"
    path.write_text("alphabet: ab\nstate 0 initial\nstate 1 accepting\ntrans 0 B 1\ntrans 1 a 1\n")
    code, out, _ = run(capsys, "member", "aB", "--nfa", str(path))
    assert (code, out) == (0, "yes")
    code, out, _ = run(capsys, "member", "ab", "--nfa", str(path))
    assert (code, out) == (1, "no")
    code, _, err = run(capsys, "member", "ab", "--nfa", str(tmp_path / "missing.nfa"))
    assert code == 2 and err


def test_member_rejects_a_second_alphabet_line(capsys, tmp_path):
    # the last alphabet line used to win, and `c` was read as a letter
    path = tmp_path / "m.nfa"
    path.write_text("alphabet: ab\nstate 0 initial accepting\ntrans 0 a 0\n"
                    "alphabet: abc\ntrans 0 c 0\n")
    code, out, err = run(capsys, "member", "--alphabet", "abc", "c", "--nfa", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


# `member --nfa` files: drawn from the file grammar, then mutated
NFA_FILE_NAMES = st.text("pq01", min_size=1, max_size=3)
ODD_SYMBOLS = ["ab", "Ab", "aa", "c", "z", "-", "\u00e9", "\u00df", "\u0130", "\uff21"]
ODD_ALPHABETS = ["", "a", "aa", "AB", "ab c", "a\u00e9", "abc", "ba"]


@st.composite
def nfa_file_lines(draw, letters):
    symbols = letters + letters.upper()
    names = draw(st.lists(NFA_FILE_NAMES, min_size=1, max_size=6, unique=True))
    lines = [" ".join(["state", q, *draw(st.lists(st.sampled_from(["initial", "accepting"]),
                                                   max_size=2))]) for q in names]
    for _ in range(draw(st.integers(0, 12))):
        src, dst = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        lines.append(f"trans {src} {draw(st.sampled_from(symbols))} {dst}")
    if draw(st.booleans()):  # a state accepting every word over some symbols
        lines += ["state u initial accepting"]
        lines += [f"trans u {c} u" for c in symbols if draw(st.integers(0, 3))]
    lines = draw(st.permutations(lines))
    lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    return [f"alphabet: {letters}"] + lines


def _pick(draw, lines, prefix=""):
    """Index of a random line starting with `prefix`, or None."""
    found = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    return draw(st.sampled_from(found)) if found else None


def _drop_field(draw, lines):
    i = _pick(draw, lines)
    if i is not None:
        fields = lines[i].split()
        del fields[draw(st.integers(0, len(fields) - 1))]
        lines[i] = " ".join(fields)


def _unknown_flag(draw, lines):
    i = _pick(draw, lines, "state")
    if i is not None:
        lines[i] += " " + draw(st.sampled_from(["final", "start", "INITIAL", "initial,"]))


def _odd_symbol(draw, lines):
    i = _pick(draw, lines, "trans")
    if i is not None:
        fields = lines[i].split()
        fields[2] = draw(st.sampled_from(ODD_SYMBOLS))
        lines[i] = " ".join(fields)


def _no_alphabet(draw, lines):
    lines[:] = [line for line in lines if not line.startswith("alphabet:")]


def _another_alphabet(draw, lines):
    letters = draw(st.sampled_from(["ab", "abc"] + ODD_ALPHABETS))
    lines.insert(draw(st.integers(0, len(lines))), f"alphabet: {letters}")


def _odd_alphabet(draw, lines):
    i = _pick(draw, lines, "alphabet:")
    if i is not None:
        lines[i] = "alphabet: " + draw(st.sampled_from(ODD_ALPHABETS))


def _alphabet_last(draw, lines):
    i = _pick(draw, lines, "alphabet:")
    if i is not None:
        lines.append(lines.pop(i))


def _undeclared_states(draw, lines):
    sym = draw(st.sampled_from("aAbB"))
    lines.append(f"trans {draw(NFA_FILE_NAMES)}x {sym} {draw(NFA_FILE_NAMES)}y")


def _unknown_line(draw, lines):
    lines.insert(draw(st.integers(0, len(lines))),
                 draw(st.sampled_from(["tran 0 a 0", "states 0", "initial 0", "0 a 1", ":"])))


MUTATIONS = [_drop_field, _unknown_flag, _odd_symbol, _no_alphabet, _another_alphabet,
             _odd_alphabet, _alphabet_last, _undeclared_states, _unknown_line]


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected_member(data: bytes, word, alphabet):
    """The reference answer for `member`, or None where it must exit 2."""
    try:
        m = Nfa.from_text(data.decode("utf-8"))
    except ValueError:
        return None
    if not all(sym.lower() in alphabet for sym in m.alphabet):
        return None
    return member_reference(word, m, alphabet)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_member_nfa_file_fuzz(tmp_path_factory, data):
    letters = data.draw(st.sampled_from(["ab", "abc"]), label="cli alphabet")
    lines = data.draw(nfa_file_lines(data.draw(st.sampled_from(["ab", "ba", "abc"]))))
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=3), label="mutations"):
        mutate(data.draw, lines)
    raw = "\n".join(lines).encode() + data.draw(st.sampled_from([b"\n", b"", b"\n\xff\n"]))
    word = data.draw(st.text(letters + letters.upper(), max_size=12), label="word")
    path = tmp_path_factory.getbasetemp() / "fuzz.nfa"
    path.write_bytes(raw)
    code, out, err = _main_captured(["member", "--alphabet", letters, word or "e",
                                     "--nfa", str(path)])
    assert code in (0, 1, 2) and "Traceback" not in err
    expected = _expected_member(raw, word, Alphabet(letters))
    if expected is None:
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
    else:
        assert (code, out, err) == ((0, "yes\n", "") if expected else (1, "no\n", ""))


def test_omega(capsys):
    code, out, _ = run(capsys, "omega", "2", "ABaAba")
    assert (code, out) == (0, "in")
    code, out, _ = run(capsys, "omega", "3", "ABaAba")
    assert (code, out) == (1, "out")


def test_kshuffled(capsys):
    code, out, _ = run(capsys, "kshuffled", "1", "aA")
    assert (code, out) == (0, "yes")
    code, out, _ = run(capsys, "kshuffled", "1", "Aa")
    assert (code, out) == (1, "no")


def test_embed2(capsys):
    code, out, _ = run(capsys, "embed2", "a")
    assert (code, out) == (0, "aaabab")
    code, out, _ = run(capsys, "embed2", "--alphabet", "abc", "b")
    assert (code, out) == (0, "aaaaabab")


def test_simple(capsys):
    code, out, _ = run(capsys, "simple", "pi(a*) & pibar(a*) & !omega(1)", "Aa")
    assert (code, out) == (0, "in")
    code, out, _ = run(capsys, "simple", "pi(a*) & pibar(a*) & !omega(1)", "aA")
    assert (code, out) == (1, "out")
    code, out, _ = run(capsys, "simple", "omega(1)", "--compile")
    assert code == 0 and out.startswith("alphabet: ab")
    code, out, _ = run(capsys, "simple", "omega(1)", "--compile", "--dot")
    assert code == 0 and out.startswith("digraph")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "nf", "xyz")
    assert code == 2 and "xyz"[0] in err
    code, _, err = run(capsys, "simple", "pi(", "a")
    assert code == 2 and err
    code, _, err = run(capsys, "simple", "omega(1)", "a", "--compile")
    assert code == 2 and err
    code, _, err = run(capsys, "simple", "omega(1)")
    assert code == 2 and err
    code, _, err = run(capsys, "act", "xq", "a")
    assert code == 2 and err
    code, _, err = run(capsys, "nf", "--alphabet", "a", "a")
    assert code == 2 and err


def test_negative_k_is_a_usage_error(capsys):
    code, out, err = run(capsys, "kshuffled", "--", "-1", "aA")
    assert (code, out) == (2, "") and err.startswith("error:")
    code, out, err = run(capsys, "omega", "--", "-3", "aA")
    assert (code, out) == (2, "") and err.startswith("error:")


def test_negative_max_queue_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eq", "--oracle", "--max-queue", "-1", "a", "b")
    assert (code, out) == (2, "") and err.startswith("error:")


def test_queue_with_a_read_is_a_usage_error(capsys):
    code, out, err = run(capsys, "act", "aB", "a")
    assert (code, out) == (2, "") and err.startswith("error:")


def test_deep_nesting_is_a_usage_error(capsys):
    deep = 3000
    for argv in (
        ["simple", "!" * deep + "omega(1)", "aA"],
        ["simple", "|".join(["omega(1)"] * deep), "aA"],
        ["simple", "pi(" + "(" * deep + "a" + ")" * deep + ")", "aA"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[1][:20]
        assert err == "error: expression nested too deeply", argv[1][:20]


# Exact output of the automaton commands; states are numbered breadth first
# in a hash-independent order, so these bytes never vary between runs.
GOLDEN = {
    ("classdfa", "aB"): (
        "alphabet: ab\n"
        "state 0 initial\n"
        "state 1\n"
        "state 2\n"
        "state 3 accepting\n"
        "trans 0 B 2\n"
        "trans 0 a 1\n"
        "trans 1 B 3\n"
        "trans 2 a 3\n"
    ),
    ("classdfa", "aB", "--dot"): (
        "digraph automaton {\n"
        "  rankdir=LR;\n"
        '  __start0 [shape=point, label=""];\n'
        '  "(0,0,0,0)" [shape=circle];\n'
        '  "(0,0,0,1)" [shape=circle];\n'
        '  "(2,2,0,0)" [shape=circle];\n'
        '  "(2,2,0,1)" [shape=doublecircle];\n'
        '  __start0 -> "(0,0,0,0)";\n'
        '  "(0,0,0,0)" -> "(0,0,0,1)" [label="a"];\n'
        '  "(0,0,0,0)" -> "(2,2,0,0)" [label="B"];\n'
        '  "(0,0,0,1)" -> "(2,2,0,1)" [label="B"];\n'
        '  "(2,2,0,0)" -> "(2,2,0,1)" [label="a"];\n'
        "}\n"
    ),
    ("conjset", "Aa", "aA"): (
        "alphabet: ab\n"
        "state 0 initial\n"
        "state 1 accepting\n"
        "state 2 accepting\n"
        "state 3 accepting\n"
        "state 4 accepting\n"
        "trans 0 A 1\n"
        "trans 1 A 1\n"
        "trans 1 a 2\n"
        "trans 2 A 4\n"
        "trans 2 a 3\n"
        "trans 3 a 3\n"
        "trans 4 a 2\n"
    ),
    ("simple", "omega(1)", "--compile"): (
        "alphabet: ab\n"
        "state 0 initial accepting\n"
        "state 1 accepting\n"
        "state 2 accepting\n"
        "state 3 accepting\n"
        "state 4\n"
        "trans 0 A 2\n"
        "trans 0 B 3\n"
        "trans 0 a 1\n"
        "trans 0 b 1\n"
        "trans 1 A 1\n"
        "trans 1 B 1\n"
        "trans 1 a 1\n"
        "trans 1 b 1\n"
        "trans 2 A 2\n"
        "trans 2 B 3\n"
        "trans 2 a 4\n"
        "trans 2 b 1\n"
        "trans 3 A 2\n"
        "trans 3 B 3\n"
        "trans 3 a 1\n"
        "trans 3 b 4\n"
        "trans 4 A 1\n"
        "trans 4 B 1\n"
        "trans 4 a 4\n"
        "trans 4 b 4\n"
    ),
    ("conjset", "--alphabet", "abcd", "BcCdDabc", "BCDccdab"): (
        "alphabet: abcd\n"
        "state 0 initial\n"
        "state 1\n"
        "state 2\n"
        "state 3\n"
        "state 4\n"
        "state 5\n"
        "state 6\n"
        "state 7\n"
        "state 8 accepting\n"
        "state 9\n"
        "state 10\n"
        "trans 0 B 2\n"
        "trans 0 c 1\n"
        "trans 1 d 3\n"
        "trans 2 C 5\n"
        "trans 2 c 4\n"
        "trans 3 a 6\n"
        "trans 4 C 7\n"
        "trans 5 D 0\n"
        "trans 6 b 8\n"
        "trans 7 d 9\n"
        "trans 8 c 10\n"
        "trans 9 D 3\n"
        "trans 10 c 1\n"
    ),
    ("conjset", "aaaaaaa", "aaaaaaa"): (
        "alphabet: ab\n"
        "state 0 initial accepting\n"
        "state 1 accepting\n"
        "state 2\n"
        "state 3 accepting\n"
        "state 4 accepting\n"
        "trans 0 A 2\n"
        "trans 0 B 0\n"
        "trans 0 a 1\n"
        "trans 1 A 4\n"
        "trans 1 a 3\n"
        "trans 2 A 2\n"
        "trans 2 B 0\n"
        "trans 3 a 3\n"
        "trans 4 a 1\n"
    ),
    ("conjset", "BBA", "ABB"): (
        "alphabet: ab\n"
        "state 0 initial\n"
        "state 1\n"
        "state 2\n"
        "state 3\n"
        "state 4\n"
        "state 5 accepting\n"
        "state 6\n"
        "state 7 accepting\n"
        "state 8 accepting\n"
        "state 9 accepting\n"
        "state 10 accepting\n"
        "state 11 accepting\n"
        "state 12\n"
        "trans 0 B 2\n"
        "trans 0 b 1\n"
        "trans 1 B 3\n"
        "trans 2 B 5\n"
        "trans 2 b 4\n"
        "trans 3 b 6\n"
        "trans 4 B 7\n"
        "trans 5 A 0\n"
        "trans 5 a 8\n"
        "trans 6 B 9\n"
        "trans 7 a 8\n"
        "trans 8 A 12\n"
        "trans 8 a 10\n"
        "trans 8 b 11\n"
        "trans 9 a 8\n"
        "trans 9 b 10\n"
        "trans 10 a 10\n"
        "trans 10 b 10\n"
        "trans 11 a 10\n"
        "trans 12 b 1\n"
    ),
    ("conjwitness", "--alphabet", "abcd", "BcCdDabc", "BCDccdab"): (
        "cdab\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_automaton_output(capsys, argv):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == GOLDEN[argv]


def test_internal_error_exits_3(capsys, monkeypatch):
    # exit 1 means "no"; a failure inside the library must not read as one
    def boom(word):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "rewrite_normalize", boom)
    code, out, err = run(capsys, "nf", "ab")
    assert (code, out, err) == (3, "", "error: internal: RuntimeError: boom")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_dot_without_compile_is_a_usage_error(capsys):
    code, out, err = run(capsys, "simple", "omega(1)", "aA", "--dot")
    assert (code, out, err) == (2, "", "error: --dot needs --compile")


def test_max_queue_without_oracle_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eq", "aA", "aA", "--max-queue", "3")
    assert (code, out, err) == (2, "", "error: --max-queue needs --oracle")
