"""Command line interface: outputs, formats, exit codes, file IO."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ihkl
from ihkl import hecke
from ihkl.cli import MAX_RANK, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ih_text(capsys):
    code, out, _ = run(capsys, "ih", "--example", "pinched-cylinder",
                       "--perversity", "zero")
    assert code == 0
    assert out.strip() == "0:0 1:0 2:2"


def test_ih_compact_json(capsys):
    code, out, _ = run(capsys, "ih", "--example", "pinched-cylinder",
                       "--perversity", "zero", "--supports", "compact",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == {"0": 2, "1": 0, "2": 0}
    assert data["supports"] == "compact"


def test_ih_unknown_example_is_usage_error(capsys):
    code, _, err = run(capsys, "ih", "--example", "nope")
    assert code == 2
    assert "unknown example" in err


def test_ih_custom_perversity(capsys):
    code, out, _ = run(capsys, "ih", "--example", "cone-torus",
                       "--perversity", "custom:0,1")
    assert code == 0
    assert out.strip() == "0:0 1:0 2:2 3:1"


def test_stalks(capsys):
    code, out, _ = run(capsys, "stalks", "--example", "cone-torus",
                       "--vertex", "apex", "--perversity", "top")
    assert code == 0
    assert out.strip() == "-3:1 -2:2"


def _cone_circle_file(tmp_path, apex, rim):
    """The cone on a triangle with the given vertex ids, apex in F(2)."""
    a, b, c = rim
    target = tmp_path / "cone.json"
    target.write_text(json.dumps({
        "dimension": 2, "vertices": [apex, a, b, c],
        "simplices": [[apex, a, b], [apex, b, c], [apex, a, c]],
        "ends": [[a, b], [b, c], [a, c]], "filtration": {"2": [[apex]]}}))
    return str(target)


def test_stalks_at_an_integer_vertex(tmp_path, capsys):
    path = _cone_circle_file(tmp_path, 0, [1, 2, 3])
    code, out, _ = run(capsys, "stalks", "--input", path, "--vertex", "0",
                       "--perversity", "zero")
    assert code == 0
    assert out.strip() == "-2:1"
    code, _, err = run(capsys, "stalks", "--input", path, "--vertex", "9")
    assert code == 2
    assert err.strip() == "usage error: unknown vertex '9'"


def test_stalks_refuses_a_vertex_text_naming_two_vertices(tmp_path, capsys):
    path = _cone_circle_file(tmp_path, 0, ["0", 1, 2])
    code, _, err = run(capsys, "stalks", "--input", path, "--vertex", "0")
    assert code == 2
    assert err.strip() == "usage error: ambiguous vertex '0'"


@pytest.mark.parametrize("argv", [
    ["ih", "--example", "cone-torus", "--perversity", "custom:0,x"],
    ["stalks", "--example", "cone-torus", "--vertex", "apex", "--perversity", "custom:0,x"],
    ["duality", "--example", "cone-torus", "--p", "custom:0,1.5", "--q", "zero"],
    ["duality", "--example", "cone-torus", "--p", "zero", "--q", "custom:,0,1e3"],
    # an empty entry is refused, not dropped to leave custom:0,1
    ["ih", "--example", "cone-torus", "--perversity", "custom:0,,1"],
    ["ih", "--example", "cone-torus", "--perversity", "custom:,0,1"],
    ["ih", "--example", "cone-torus", "--perversity", "custom:0,1,"],
])
def test_non_integer_custom_perversity_is_one_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert re.fullmatch(r"usage error: cannot parse perversity 'custom:[^']*'\n", err), err


def test_duality(capsys):
    code, out, _ = run(capsys, "duality", "--example", "pinched-cylinder",
                       "--p", "zero", "--q", "zero")
    assert code == 0
    assert "PASS" in out.splitlines()[0]


def test_duality_non_complementary_fails(capsys):
    code, _, err = run(capsys, "duality", "--example", "cone-torus",
                       "--p", "zero", "--q", "zero")
    assert code == 1


def test_duality_json_has_every_row(capsys):
    code, out, _ = run(capsys, "duality", "--example", "cone-torus",
                       "--p", "zero", "--q", "top", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"title", "passed", "rows", "notes"} and data["passed"] is True
    assert data["rows"]
    for row in data["rows"]:
        assert set(row) == {"label", "left", "right", "equal"}
        assert row["equal"] == (row["left"] == row["right"]) is True


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--example", "cone-torus")
    assert code == 0
    assert "pseudomanifold   pass" in out


def _tetrahedron_file(tmp_path):
    """A solid tetrahedron declared 2-dimensional: a ball, not the sphere
    its triangles bound."""
    target = tmp_path / "tetrahedron.json"
    target.write_text(json.dumps({"dimension": 2, "vertices": ["a", "b", "c", "d"],
                                  "simplices": [["a", "b", "c", "d"]]}))
    return str(target)


def test_a_simplex_above_the_dimension_fails_purity(tmp_path, capsys):
    path = _tetrahedron_file(tmp_path)
    code, out, _ = run(capsys, "validate", "--input", path)
    assert code == 1
    assert out.splitlines()[0].split()[:2] == ["purity", "FAIL"]
    code, out, err = run(capsys, "ih", "--input", path)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "purity" in err


@pytest.mark.parametrize("passes", [True, False], ids=["cone-torus", "tetrahedron"])
def test_validate_json_gives_a_detail_only_for_failed_checks(tmp_path, capsys, passes):
    source = (("--example", "cone-torus") if passes
              else ("--input", _tetrahedron_file(tmp_path)))
    code, out, _ = run(capsys, "validate", *source, "--format", "json")
    checks = json.loads(out)
    assert code == (0 if passes else 1)
    assert all(c["passed"] for c in checks.values()) == passes
    assert all(bool(c["detail"]) != c["passed"] for c in checks.values()), checks


def test_normalize_round_trip(tmp_path, capsys):
    target = tmp_path / "norm.json"
    code, _, _ = run(capsys, "normalize", "--example", "pinched-cylinder",
                     "--output", str(target))
    assert code == 0
    code, out, _ = run(capsys, "ih", "--input", str(target),
                       "--perversity", "zero")
    assert code == 0
    assert out.strip() == "0:0 1:0 2:2"


@pytest.mark.parametrize("name", ["point", "circle", "two-circles"])
def test_normalize_below_dimension_two_writes_the_complex_unchanged(tmp_path, capsys, name):
    target = tmp_path / "norm.json"
    code, _, err = run(capsys, "normalize", "--example", name, "--output", str(target))
    assert (code, err) == (0, "")
    assert "2" not in json.loads(target.read_text()).get("filtration", {})
    for sup in ("bm", "compact"):
        tables = [run(capsys, "ih", source, arg, "--supports", sup, "--format", "json")
                  for source, arg in (("--example", name), ("--input", str(target)))]
        assert tables[0] == tables[1] and tables[0][0] == 0


def test_example_export_round_trip(tmp_path, capsys):
    target = tmp_path / "pc.json"
    code, _, _ = run(capsys, "example-export", "--name", "pinched-cylinder",
                     "--output", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["dimension"] == 2
    code, out, _ = run(capsys, "ih", "--input", str(target),
                       "--perversity", "top", "--supports", "compact")
    assert code == 0
    assert out.strip() == "0:2 1:0 2:0"


def test_examples_listing(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    names = out.split()
    assert "pinched-cylinder" in names and "cone-torus" in names
    assert len(names) == 13


def test_kl_element(capsys):
    code, out, _ = run(capsys, "kl", "--rank", "4", "--element", "3412")
    assert code == 0
    assert "P[1324,3412] = 1+q" in out
    assert "P[3412,3412] = 1" in out
    assert "C' = v^-4*T:3412" in out


def test_kl_interval_csv(capsys):
    code, out, _ = run(capsys, "kl", "--rank", "3", "--interval", "123,321",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,w,P"
    assert len(lines) == 20  # 19 comparable pairs plus header
    assert all(line.endswith(",1") for line in lines[1:])


def test_kl_algorithms_agree(capsys):
    outputs = []
    for alg in ("bs", "recursion"):
        code, out, _ = run(capsys, "kl", "--rank", "3", "--element", "321",
                           "--algorithm", alg)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_kl_bad_element_is_usage_error(capsys):
    code, _, err = run(capsys, "kl", "--rank", "3", "--element", "999")
    assert code == 2


@pytest.mark.parametrize("argv, plain", [
    (["bruhat", "--rank", "3", "--leq", "[2,1,3],[3,2,1]"], "213,321"),
    (["kl", "--rank", "3", "--interval", "[1,2,3],[3,2,1]"], "123,321"),
], ids=["bruhat", "kl"])
def test_u_w_flags_take_the_bracket_one_line_form(capsys, argv, plain):
    want = run(capsys, *argv[:-1], plain)
    assert want[0] == 0 and want[1]
    assert run(capsys, *argv) == want


def test_bruhat(capsys):
    code, out, _ = run(capsys, "bruhat", "--rank", "3", "--leq", "312,321")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "bruhat", "--rank", "3", "--leq", "321,312")
    assert code == 0 and out.strip() == "false"


def test_hecke_mul(capsys):
    code, out, _ = run(capsys, "hecke-mul", "--rank", "3",
                       "--left", "T:213", "--right", "T:213")
    assert code == 0
    assert out.strip() == "(-1+v^2)*T:213 + v^2*T:123"


def test_flagcheck(capsys):
    code, out, _ = run(capsys, "flagcheck", "--n", "3", "--q", "2")
    assert code == 0
    assert "36/36 pairs match" in out


def test_flagcheck_non_prime_is_usage_error(capsys):
    code, _, err = run(capsys, "flagcheck", "--n", "3", "--q", "4")
    assert code == 2
    assert "not prime" in err


def test_flagcheck_large_prime_stops_at_bounds(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "flagcheck", "--n", "3", "--q", "1000000007")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert "exceeds the brute-force bounds" in err


def test_flagcheck_prime_near_1e14_stops_at_bounds_before_primality(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "flagcheck", "--n", "3", "--q", "100000000000031")
    assert time.perf_counter() - start < 0.3
    assert code == 1
    assert "exceeds the brute-force bounds" in err


@pytest.mark.parametrize("n, q", [("4", "7"), ("1000000000", "2")])
def test_flagcheck_past_the_work_budget_is_refused_at_once(capsys, n, q):
    # (4, 7): 182,400 flags; n = 10^9 is refused a few factors into the count
    start = time.perf_counter()
    code, out, err = run(capsys, "flagcheck", "--n", n, "--q", q)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "relative positions" in err


def test_huge_dimension_is_rejected_before_any_work(tmp_path, capsys):
    target = tmp_path / "huge.json"
    target.write_text(json.dumps({
        "dimension": 2000000, "vertices": ["a", "b", "c"],
        "simplices": [["a", "b", "c"]]}))
    start = time.perf_counter()
    code, _, err = run(capsys, "ih", "--input", str(target))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert len([line for line in err.splitlines() if line.strip()]) == 1


def test_face_closure_is_bounded_before_building(tmp_path, capsys):
    # one listed 30-vertex simplex would close into 2^30 - 1 faces
    vs = ["v%d" % i for i in range(30)]
    target = tmp_path / "simplex30.json"
    target.write_text(json.dumps({"dimension": 2, "vertices": vs, "simplices": [vs]}))
    start = time.perf_counter()
    code, _, err = run(capsys, "ih", "--input", str(target))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert len([line for line in err.splitlines() if line.strip()]) == 1


def test_filtration_lists_count_once_per_step_they_enter(tmp_path, capsys):
    # key "16" puts the 17-vertex simplex into F(2), ..., F(16): 16 * (2^17 - 1)
    # faces with the ambient copy, past MAX_FACES
    vs = ["v%d" % i for i in range(17)]
    target = tmp_path / "deep.json"
    target.write_text(json.dumps({"dimension": 16, "vertices": vs, "simplices": [vs],
                                  "filtration": {"16": [vs]}}))
    start = time.perf_counter()
    code, _, err = run(capsys, "ih", "--input", str(target))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert len([line for line in err.splitlines() if line.strip()]) == 1
    assert "2097136 faces" in err


@pytest.mark.parametrize("listed, message", [
    ({"ends": [["a", "d"]]}, "ends is not a subcomplex of the ambient complex"),
    ({"ends": [["b", "c"], ["a", "b", "d"]]}, "ends is not a subcomplex of the ambient complex"),
    ({"filtration": {"2": [["a", "d"]]}}, "filtration F(2) is not a subcomplex"),
    ({"filtration": {"3": [["a", "d"]]}}, "filtration F(2) is not a subcomplex"),
    ({"filtration": {"3": [["b"]], "2": [["a", "d"]]}}, "filtration F(2) is not a subcomplex"),
], ids=["ends-edge", "ends-triangle", "f2", "f3-enters-f2", "f2-below-f3"])
def test_a_listed_simplex_missing_from_simplices_is_refused(tmp_path, capsys, listed, message):
    # the ends and each F(k) are cut from the closed ambient: a simplex on
    # known vertices that the ambient lacks must still fail the subcomplex check
    target = tmp_path / "stray.json"
    target.write_text(json.dumps(dict({
        "dimension": 3, "vertices": ["a", "b", "c", "d", "e"],
        "simplices": [["a", "b", "c", "e"], ["b", "c", "d", "e"]]}, **listed)))
    for command in ("ih", "validate"):
        code, out, err = run(capsys, command, "--input", str(target))
        assert (code, out, err) == (1, "", "error: %s\n" % message), command


@pytest.mark.parametrize("where", ["simplices", "ends", "filtration"])
def test_a_simplex_with_a_repeated_vertex_is_one_usage_error(tmp_path, capsys, where):
    data = {"dimension": 2, "vertices": ["a", "b", "c"], "simplices": [["a", "b", "c"]]}
    bad = [["a", "a", "b"]]
    if where == "filtration":
        data["filtration"] = {"2": bad}
    else:
        data[where] = data.get(where, []) + bad
    target = tmp_path / "repeated.json"
    target.write_text(json.dumps(data))
    for command in ("ih", "validate"):
        code, out, err = run(capsys, command, "--input", str(target))
        assert (code, out) == (2, ""), command
        assert re.fullmatch(r'usage error: %s.*: simplex \["a", "a", "b"\] repeats a vertex\n'
                            % where, err), err


@pytest.mark.parametrize("where", ["simplices", "ends", "filtration"])
def test_an_empty_simplex_is_one_usage_error(tmp_path, capsys, where):
    # an empty list was once dropped without a word
    data = {"dimension": 2, "vertices": ["a", "b", "c"], "simplices": [["a", "b", "c"]]}
    if where == "filtration":
        data["filtration"] = {"2": [["a"], []]}
    else:
        data[where] = data.get(where, []) + [[]]
    target = tmp_path / "empty.json"
    target.write_text(json.dumps(data))
    for command in ("ih", "validate"):
        code, out, err = run(capsys, command, "--input", str(target))
        assert (code, out) == (2, ""), command
        assert re.fullmatch(r"usage error: %s.*: simplex \[\] has no vertices\n" % where, err), err


@pytest.mark.parametrize("filtration, key", [
    ({"02": [["a"]]}, "02"),
    ({" 2": [["a"]]}, " 2"),
    ({"+2": [["a"]]}, "+2"),
    ({"2": [["a"]], " 2": [["b"]]}, " 2"),
    ({"x": [["a"]]}, "x"),
], ids=["leading-zero", "space", "plus", "two-spellings", "not-a-number"])
def test_a_filtration_key_is_the_plain_decimal_codimension(tmp_path, capsys, filtration, key):
    # "02", " 2" and "+2" all once read as 2, and two spellings merged into one F(2)
    target = tmp_path / "key.json"
    target.write_text(json.dumps({"dimension": 2, "vertices": ["a", "b", "c"],
                                  "simplices": [["a", "b", "c"]], "filtration": filtration}))
    message = ("is not a codimension" if key == "x" else "is not a codimension in 2..2")
    for command in ("ih", "validate"):
        code, out, err = run(capsys, command, "--input", str(target))
        assert (code, out, err) == (
            2, "", "usage error: filtration key %r %s\n" % (key, message)), command


@pytest.mark.parametrize("argv", [
    ["kl", "--rank", "x"],
    ["frobnicate"],
    ["kl"],
    ["kl", "--rank", "-1"],
    ["kl", "--rank", "0"],
    ["bruhat", "--rank", "0", "--leq", "e,e"],
    ["hecke-mul", "--rank", "-2", "--left", "T:e", "--right", "T:e"],
    ["kl", "--rank", "3", "--element", "3x1"],
    ["kl", "--rank", "3", "--element", "[3,x,1]"],
    # one bracket at each end, no more and no fewer
    ["kl", "--rank", "3", "--element", "[[1,2,3]]"],
    ["kl", "--rank", "3", "--element", "[1,2,3"],
    ["bruhat", "--rank", "3", "--leq", "[[1,2,3]],321"],
    ["ih", "--example", "cone-torus", "--subdivide", "3"],
    ["ih", "--example", "circle", "--perversity", "bogus"],
    ["ih", "--example", "cone-torus", "--supports", "borel_moore"],  # the library's name only
    ["flagcheck", "--n", "3", "--q", "11", "--force"],
    ["validate", "--example", "circle", "--format", "csv"],
    ["duality", "--example", "cone-torus", "--p", "zero", "--q", "top", "--format", "csv"],
    ["bruhat", "--rank", "3", "--leq", "e,321", "--format", "csv"],
    ["hecke-mul", "--rank", "3", "--left", "T:e", "--right", "T:e", "--format", "csv"],
    ["kl", "--rank", str(MAX_RANK + 1), "--element", "e"],
    ["kl", "--rank", "100000000000000000000", "--element", "e"],  # past a C index
    ["bruhat", "--rank", str(MAX_RANK + 1), "--leq", "e,e"],
    ["hecke-mul", "--rank", str(MAX_RANK + 1), "--left", "T:e", "--right", "T:e"],
])
def test_bad_arguments_are_one_line_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1, err
    assert "Traceback" not in err


def test_supports_is_checked_before_the_input_is_opened(tmp_path, capsys):
    """A missing file with a bad --supports names --supports: the file is never opened."""
    code, out, err = run(capsys, "ih", "--input", str(tmp_path / "missing.json"),
                         "--supports", "bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: argument --supports: invalid choice: 'bogus'"), err
    assert err.count("\n") == 1 and "missing.json" not in err


def test_bruhat_at_max_rank(capsys):
    w0 = "[%s]" % ",".join(map(str, range(MAX_RANK, 0, -1)))
    start = time.perf_counter()
    assert run(capsys, "bruhat", "--rank", str(MAX_RANK), "--leq", "e," + w0)[:2] == (0, "true\n")
    assert run(capsys, "bruhat", "--rank", str(MAX_RANK), "--leq", w0 + ",e")[:2] == (0, "false\n")
    assert time.perf_counter() - start < 2


def test_format_choice_is_checked_before_any_work(capsys):
    # the whole (4, 2) flag sweep takes seconds; csv is not one of its formats
    start = time.perf_counter()
    code, out, err = run(capsys, "flagcheck", "--n", "4", "--q", "2", "--format", "csv")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "invalid choice: 'csv'" in err


def test_normalize_has_no_format_flag(tmp_path, capsys):
    target = tmp_path / "norm.json"
    code, _, err = run(capsys, "normalize", "--example", "pinched-cylinder",
                       "--output", str(target), "--format", "json")
    assert code == 2
    assert "--format" in err
    assert not target.exists()


def test_kl_table_past_the_enumeration_bound_is_refused(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "kl", "--rank", "12")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1, err
    assert "limited to n <= 6" in lines[0]


@pytest.mark.parametrize("rank", ["7", "8"])
def test_kl_table_past_the_table_bound_is_refused_before_any_work(capsys, rank):
    start = time.perf_counter()
    code, out, err = run(capsys, "kl", "--rank", rank, "--algorithm", "recursion")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.strip() == "error: KL tables are limited to n <= %d, got n = %s" % (
        hecke.MAX_KL_TABLE, rank)


def test_kl_interval_computes_its_own_elements_only(capsys):
    """A refused interval builds nothing, and [e, 213546], 4 elements, leaves
    each route's memo holding at most those 4."""
    memos = (hecke._kl_polys, hecke._recursion, hecke._bott_samelson)
    for memo in memos:
        memo.cache_clear()
    for rank, interval, message in [
            ("3", "321,123", "321 is not below 123 in Bruhat order"),
            ("7", "1234567,7654321", "KL tables are limited to n <= 6, got n = 7")]:
        got = run(capsys, "kl", "--rank", rank, "--interval", interval)
        assert got == (1, "", "error: %s\n" % message)
    assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]
    code, out, _ = run(capsys, "kl", "--rank", "6", "--interval", "123456,213546")
    assert code == 0 and out.splitlines()[-1] == "AGREE (9 pairs)"
    assert all(memo.cache_info().currsize <= 4 for memo in memos)


HECKE_MUL_RANK10 = " + ".join([
    "v^-1*T:[4,2,3,1,5,6,7,8,9,10]", "v^-1*T:[2,4,3,1,5,6,7,8,9,10]",
    "v^-1*T:[3,2,4,1,5,6,7,8,9,10]", "v^-1*T:[2,3,4,1,5,6,7,8,9,10]",
    "v*T:[3,2,1,4,5,6,7,8,9,10]", "v*T:[2,3,1,4,5,6,7,8,9,10]",
    "v^3*T:[2,1,3,4,5,6,7,8,9,10]", "v^3*T:[1,2,3,4,5,6,7,8,9,10]"]) + "\n"
BELOW_321546789 = ["123456789", "123546789", "132456789", "213456789", "132546789",
                   "213546789", "231456789", "312456789", "231546789", "312546789",
                   "321456789", "321546789"]
KL_RANK9 = "".join("P[%s,321546789] = 1\n" % u for u in BELOW_321546789) + \
    "C' = %s\n" % " + ".join("v^-4*T:%s" % u for u in [
        "321546789", "231546789", "312546789", "321456789", "132546789",
        "213546789", "231456789", "312456789", "123546789", "132456789",
        "213456789", "123456789"])


@pytest.mark.parametrize("argv, want", [
    (["hecke-mul", "--rank", "10", "--left", "T:s1*s2*s3", "--right", "Cp:s3*s2*s1"],
     HECKE_MUL_RANK10),
    (["kl", "--rank", "9", "--element", "s1*s2*s1*s4"], KL_RANK9),
])
def test_single_element_requests_stay_cheap_at_high_rank(capsys, argv, want):
    # guards against any design that enumerates all of S_n for one element
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == want


W0_RANK100 = "[%s]" % ",".join(str(v) for v in range(100, 0, -1))


@pytest.mark.parametrize("argv, w", [
    (["kl", "--rank", "7", "--element", "7654321"], "7654321"),
    (["kl", "--rank", "100", "--element", W0_RANK100], W0_RANK100),
    (["hecke-mul", "--rank", "8", "--left", "T:12345678", "--right", "Cp:87654321"],
     "87654321"),
], ids=["kl-rank7", "kl-rank100", "hecke-mul-rank8"])
def test_single_elements_past_the_interval_bound_are_refused_at_once(capsys, argv, w):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == "error: the Bruhat interval [e, %s] has more than 720 elements, " \
        "the limit for one KL element\n" % w


@pytest.mark.parametrize("n", [10, 100])
def test_a_product_of_two_long_t_terms_is_refused_at_once(capsys, n):
    w0 = "T:[%s]" % ",".join(str(v) for v in range(n, 0, -1))
    start = time.perf_counter()
    code, out, err = run(capsys, "hecke-mul", "--rank", str(n), "--left", w0, "--right", w0)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == "error: the product walks more than 10800 elements, " \
        "the limit for one Hecke product\n"


def test_a_product_of_two_long_canonical_elements_is_refused(capsys):
    # 720 terms times 720 terms in S_6: the work count stops the product
    code, out, err = run(capsys, "hecke-mul", "--rank", "6", "--left", "Cp:654321",
                         "--right", "Cp:654321")
    assert code == 1 and out == ""
    assert err == "error: the product walks more than 10800 elements, " \
        "the limit for one Hecke product\n"


def test_a_closed_stdout_pipe_ends_in_exit_1_and_no_message(tmp_path):
    # the JSON table of S_5 is about 130 KB, well past a 64 KB pipe buffer
    env = dict(os.environ, PYTHONPATH=str(Path(ihkl.__file__).parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "ihkl.cli", "kl", "--rank", "5",
                             "--format", "json"], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()
    # a path that cannot be read is still a usage error
    missing = subprocess.run([sys.executable, "-m", "ihkl.cli", "validate", "--input",
                              "missing.json"], cwd=tmp_path, env=env, capture_output=True,
                             text=True)
    assert missing.returncode == 2 and missing.stderr.startswith("usage error: ")
    assert missing.stderr.count("\n") == 1


def test_help_still_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage" in out


def test_ih_rejects_non_pseudomanifold_in_one_line(tmp_path, capsys):
    # three triangles on one edge: the edge ab has three cofaces
    target = tmp_path / "book.json"
    target.write_text(json.dumps({
        "dimension": 2, "vertices": ["a", "b", "c", "d", "e"],
        "simplices": [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]]}))
    code, _, err = run(capsys, "ih", "--input", str(target))
    assert code == 1
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1
    assert "pseudomanifold" in lines[0]
    # the perversity is parsed before the structural gate runs
    code, _, err = run(capsys, "ih", "--input", str(target), "--perversity", "bogus")
    assert code == 2
    assert len([line for line in err.splitlines() if line.strip()]) == 1


@pytest.mark.parametrize("content", [
    b"[" * 100000,
    b'{"dimension": ' + b"9" * 5000 + b', "vertices": [], "simplices": []}',
    b"\xff\xfe{\x00}\x00",
], ids=["nested-too-deep", "long-integer", "utf-16-bom"])
def test_undecodable_json_is_one_usage_error(tmp_path, capsys, content):
    target = tmp_path / "bad.json"
    target.write_bytes(content)
    code, out, err = run(capsys, "validate", "--input", str(target))
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', text, re.M).group(1) == ihkl.__version__


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "ih", "--input", "/no/such/file.json")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["ih", "--input", "{dir}"],
    ["normalize", "--example", "pinched-cylinder", "--output", "{dir}"],
    ["example-export", "--name", "cone-torus", "--output", "{dir}"],
], ids=["ih-input", "normalize-output", "example-export-output"])
def test_a_directory_as_a_file_path_is_one_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert re.fullmatch(r"usage error: .*Is a directory.*\n", err), err


@pytest.mark.parametrize("argv, message", [
    (["ih", "--input", "{dir}/x.json", "--example", "circle"],
     "argument --example: not allowed with argument --input"),
    (["ih", "--perversity", "zero"], "one of the arguments --input --example is required"),
    (["kl", "--rank", "3", "--element", ""], "one-line notation '' has wrong rank"),
    (["kl", "--rank", "3", "--interval", ""], "--interval wants U,W"),
    (["flagcheck", "--n", "0", "--q", "2"], "argument --n: rank must be at least 1"),
    (["kl", "--rank", "3", "--element", "213", "--interval", "123,321"],
     "argument --interval: not allowed with argument --element"),
], ids=["input-and-example", "no-source", "empty-element", "empty-interval", "flagcheck-n-0",
        "element-and-interval"])
def test_inputs_once_ignored_or_misread_are_usage_errors(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("usage error: " + message) and err.count("\n") == 1, err


def test_one_process_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; each call must parse afresh
    middle = ("ih", "--example", "cone-torus")
    assert run(capsys, *middle) == (0, "0:0 1:0 2:0 3:1\n", "")
    assert run(capsys, *middle, "--perversity", "top") == (0, "0:0 1:0 2:2 3:1\n", "")
    assert run(capsys, *middle) == (0, "0:0 1:0 2:0 3:1\n", "")
    code, _, err = run(capsys, *middle, "--supports", "compact", "--format", "xml")
    assert code == 2 and "invalid choice" in err
    assert run(capsys, *middle, "--supports", "compact") == (0, "0:1 1:2 2:0 3:0\n", "")
    code, out, _ = run(capsys, "ih", "--help")
    assert code == 0 and "--perversity" in out
    assert run(capsys, *middle, "--format", "csv") == (
        0, "degree,dim\r\n0,0\r\n1,0\r\n2,0\r\n3,1\r\n", "")
    assert run(capsys, "kl", "--rank", "3", "--element", "213") == (
        0, "P[123,213] = 1\nP[213,213] = 1\nC' = v^-1*T:213 + v^-1*T:123\n", "")


def test_shipped_data_matches_expected_tables(capsys):
    from importlib import resources

    from ihkl import builders
    from ihkl.complexes import complex_from_dict, homology_dims
    from ihkl.ih import ih_dims
    from ihkl.perversity import make_standard

    root = resources.files("ihkl") / "data"
    checked = 0
    for name in builders.BUILDERS:
        s = complex_from_dict(json.loads((root / (name + ".json")).read_text()))
        expected = json.loads((root / (name + ".expected.json")).read_text())
        for sup in ("borel_moore", "compact"):
            got = {str(k): v for k, v in homology_dims(s, sup).items()}
            assert got == expected["homology"][sup], (name, sup)
        for kind, by_sup in expected["ih"].items():
            p = make_standard(kind, s.dimension) if s.dimension >= 2 else None
            for sup, want in by_sup.items():
                got = {str(k): v for k, v in ih_dims(s, p, sup).items()}
                assert got == want, (name, kind, sup)
                checked += 1
    assert checked == 104
