"""Fuzzing the JSON boundary: every complex file, however malformed, ends
``ihkl validate`` and ``ihkl ih`` in exit code 0, 1 or 2 with at most one
line on stderr and no traceback.

The inputs are small JSON values and complex documents (no list longer
than 6 items, so no example builds a large complex), bundled and drawn
documents with one key dropped or replaced or an unknown vertex added,
and raw bytes. The draws are
pinned with ``@seed`` (see conftest.py).
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
from ihkl.cli import main

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
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--input", path])
            lines = [line for line in err.getvalue().splitlines() if line.strip()]
            assert code in (0, 1, 2), (command, code, err.getvalue())
            assert len(lines) <= 1, (command, err.getvalue())
            assert "Traceback" not in err.getvalue()
