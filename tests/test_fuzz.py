"""Fuzzing the two boundaries: every complex file, however malformed,
ends ``ihkl validate`` and ``ihkl ih`` in exit code 0, 1 or 2 with at most
one line on stderr and no traceback, and so does every argument vector
for ``kl``, ``bruhat``, ``hecke-mul`` and ``flagcheck``.

The files are small JSON values and complex documents (no list longer
than 6 items, so no example builds a large complex), bundled and drawn
documents with one key dropped or replaced or an unknown vertex added,
and raw bytes. The argument vectors take ranks that are refused or at
most 4 (flagcheck: at most 3), so every one that runs is a cheap call,
save ``hecke-mul``, which also draws ranks 5 to ``MAX_RANK`` with terms on
random elements of that rank and on its longest element: the work bounds
in ``hecke`` refuse the long ones at once. The draws are pinned with
``@seed`` (see conftest.py).
"""

import contextlib
import io
import json
import os
import tempfile
from importlib import resources

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from ihkl import builders
from ihkl.cli import MAX_RANK, main

KEYS = ("dimension", "vertices", "simplices", "ends", "filtration")
VERTICES = (0, 1, 2, "a", "b", "c")
BUNDLED = [json.loads((resources.files("ihkl") / "data" / (name + ".json")).read_text())
           for name in sorted(builders.BUILDERS)]

VERTEX = st.sampled_from(VERTICES)
VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(-2, 4),
              st.text(max_size=3), VERTEX),
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(
        st.sampled_from(KEYS + ("2", "3", "x")) | st.text(max_size=2), kids, max_size=6),
    max_leaves=24)
SIMPLICES = st.lists(st.lists(VERTEX, min_size=1, max_size=4, unique=True), max_size=6)
DOCUMENTS = st.fixed_dictionaries({
    "dimension": st.integers(0, 3), "vertices": st.just(list(VERTICES)),
    "simplices": SIMPLICES,
}, optional={
    "ends": SIMPLICES,
    "filtration": st.dictionaries(st.sampled_from(("2", "3")), SIMPLICES, max_size=2),
})


@st.composite
def edited_documents(draw):
    """A bundled or a drawn complex with one key dropped or replaced, or
    with an unknown vertex added to one of its listed simplices."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BUNDLED) | DOCUMENTS)))
    key = draw(st.sampled_from(KEYS))
    edit = draw(st.sampled_from(("drop", "replace", "unknown vertex")))
    if edit == "drop":
        doc.pop(key, None)
    elif edit == "replace":
        doc[key] = draw(VALUES)
    else:
        lists = [doc["simplices"], doc.setdefault("ends", []),
                 *doc.get("filtration", {}).values()]
        simplices = draw(st.sampled_from(lists))
        simplices.append(draw(st.sampled_from(simplices or [[]])) + ["unknown"])
    return doc


INPUTS = st.one_of(
    st.one_of(VALUES, DOCUMENTS, edited_documents()).map(
        lambda value: json.dumps(value).encode()),
    st.binary(max_size=64))


def check_one_line_at_most(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [line for line in err.getvalue().splitlines() if line.strip()]
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert len(lines) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@seed(12)
@settings(max_examples=200)
@example(b"[" * 100000)  # nesting too deep for the decoder
@example(b'{"dimension": ' + b"9" * 5000 + b"}")  # past the int digit limit
@example(b"\xff\xfe{\x00}\x00")  # a UTF-16 byte order mark
@given(INPUTS)
def test_every_complex_file_ends_in_one_line_at_most(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "complex.json")
        with open(path, "wb") as fh:
            fh.write(content)
        for command in ("validate", "ih"):
            check_one_line_at_most([command, "--input", path])


BIG = ("101", "100000000000000000000")
RANKS = st.sampled_from(("1", "2", "3", "4")) | st.sampled_from(
    ("-1", "0", "x", "", "4.0", "1e3") + BIG)
ELEMENTS = st.one_of(
    st.sampled_from(("e", "id", "s1", "s3", "s1*s2", "s2*s1*s2", "213", "321", "3412",
                     "4321", "[2,1,3]", "[4,3,2,1]")),
    st.sampled_from(("s1*s1", "s0", "s9", "s", "*", "[1,2]", "[]", "[1,,2]", "99", "x", "")),
    st.text(alphabet="se0123456789*[],", max_size=6))
PAIRS = st.builds("{},{}".format, ELEMENTS, ELEMENTS) | ELEMENTS
KINDS = st.sampled_from(("T", "Cp")) | st.sampled_from(("X", ""))
TERMS = st.builds("{}:{}".format, KINDS, ELEMENTS)
HECKE = TERMS | st.lists(TERMS, max_size=3).map("+".join)


def ranked_hecke(n):
    """Terms on random elements of S_n and on its longest element, and the
    fixed and malformed expressions."""
    words = st.permutations(range(1, n + 1)) | st.just(range(n, 0, -1))
    terms = st.builds("{}:[{}]".format, st.sampled_from(("T", "Cp")),
                      words.map(lambda w: ",".join(map(str, w))))
    return terms | st.lists(terms, min_size=2, max_size=3).map("+".join) | HECKE


KL_OPTIONS = st.sampled_from(([], ["--algorithm", "bs"], ["--algorithm", "recursion"])) | st.builds(
    lambda flag, text: [flag, text], st.sampled_from(("--element", "--interval")), PAIRS)
ARGVS = st.one_of(
    st.builds(lambda n, more: ["kl", "--rank", n] + more, RANKS, KL_OPTIONS),
    st.builds(lambda n, pair: ["bruhat", "--rank", n, "--leq", pair], RANKS, PAIRS),
    st.builds(lambda n, left, right: ["hecke-mul", "--rank", n, "--left", left, "--right", right],
              RANKS, HECKE, HECKE),
    st.integers(5, MAX_RANK).flatmap(lambda n: st.builds(
        lambda left, right: ["hecke-mul", "--rank", str(n), "--left", left, "--right", right],
        ranked_hecke(n), ranked_hecke(n))),
    st.builds(lambda n, q: ["flagcheck", "--n", n, "--q", q],
              st.sampled_from(("-1", "0", "1", "2", "3", "x") + BIG),
              st.sampled_from(("-1", "0", "1", "2", "3", "5", "8", "x", "100000000000031"))))
FORMATS = st.sampled_from(([], ["--format", "json"], ["--format", "csv"]))
W0_50 = "*".join("s%d" % i for k in range(1, 50) for i in range(k, 0, -1))


@seed(13)
@settings(max_examples=200)
@example(["kl", "--rank", "100000000000000000000", "--element", "e"], [])  # a C index overflow
@example(["bruhat", "--rank", "50", "--leq", "s1," + W0_50], [])  # 1,225 lifting steps
@example(["hecke-mul", "--rank", "6", "--left", "Cp:654321", "--right", "Cp:654321"],
         [])  # 720 by 720 terms: refused by the product's work bound
@given(ARGVS, FORMATS)
def test_every_argument_vector_ends_in_one_line_at_most(argv, fmt):
    check_one_line_at_most(argv + fmt)
