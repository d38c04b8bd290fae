"""Corpus file format, constructor expressions, manifests, validation."""

import shutil
from pathlib import Path

import pytest

from holoscreen import corpus
from holoscreen.cli import main
from holoscreen.corpus import (CorpusError, construct, corpus_hash, load_group,
                               load_manifest, parse_group_text,
                               regular_generators, save_group,
                               serialize_group, validate_corpus, write_index)
from holoscreen.isomorphism import are_isomorphic
from holoscreen.perms import PermutationGroup

CORPORA = Path(__file__).resolve().parent.parent / "corpora"

C4_TEXT = """\
group c4
order 4
degree 4
gen: 1 2 3 0
"""


def test_parse_generator_form():
    record = parse_group_text(C4_TEXT)
    assert record.name == "c4"
    assert record.order == 4
    assert record.degree == 4
    assert record.generators == ((1, 2, 3, 0),)
    assert record.table.order_spectrum == ((1, 1), (2, 1), (4, 2))
    assert record.is_solvable()


def test_parse_table_form():
    text = "group t3\norder 3\ntable:\n0 1 2\n1 2 0\n2 0 1\n"
    record = parse_group_text(text)
    assert record.order == 3
    assert record.degree is None
    assert record.table.element_orders == (1, 3, 3)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\ngroup g\n# another\norder 2\ndegree 2\ngen: 1 0\n"
    record = parse_group_text(text)
    assert record.order == 2


def test_parse_provenance_lines():
    text = C4_TEXT + "provenance: constructed: cyclic(4)\nprovenance: note\n"
    record = parse_group_text(text)
    assert record.provenance == ("constructed: cyclic(4)", "note")


@pytest.mark.parametrize("text,fragment", [
    ("order 4\ndegree 4\ngen: 1 2 3 0\n", "missing 'group'"),
    ("group g\ndegree 4\ngen: 1 2 3 0\n", "missing 'order'"),
    ("group g\norder 4\ngen: 1 2 3 0\n", "'gen:' before 'degree'"),
    ("group g\norder 4\n", "missing 'degree'"),
    ("group g\norder 4\ndegree 4\ngen: 1 2 3\n", "generator has 3 images"),
    ("group g\norder 4\ndegree 4\ngen: 1 1 2 2\n", "not a permutation"),
    ("group g\norder 5\ndegree 4\ngen: 1 2 3 0\n", "order mismatch"),
    ("group g\norder 4\ndegree 4\ngen: 1 0 2 3\ngen: 1 2 3 0\n",
     "declared 4, generators give more"),
    ("group g!\norder 2\ndegree 2\ngen: 1 0\n", "bad group name"),
    ("group g\norder 2\nfoo bar\ndegree 2\ngen: 1 0\n", "unrecognized line"),
    ("group g\ngroup h\norder 2\ndegree 2\ngen: 1 0\n", "second 'group'"),
    ("group g\norder x\n", "bad order"),
    ("group g\norder 3\ntable:\n0 1 2\n1 2 0\n", "3 rows"),
    ("group g\norder 2\ndegree 2\ngen: 1 0\ntable:\n0 1\n1 0\n",
     "not both"),
    ("group g\norder 3\ntable:\n0 1 2\n1 0 2\n2 2 0\n", "not a group table"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(CorpusError, match=fragment.replace("(", "\\(")):
        parse_group_text(text)


@pytest.mark.parametrize("text", [
    "group g\norder 2001\ndegree 3\ngen: 1 2 0\n",
    "group g\norder 2001\ntable:\n0 1\n1 0\n",
    "group g\ntable:\n0 1\n1 0\norder 2001\n",
], ids=["generators", "table", "table-first"])
def test_files_check_the_table_cap_before_building(monkeypatch, text):
    # A declared order past TABLE_CAP = 2000 fails however few rows follow,
    # before a table or a listing is built.
    def reached(*args, **kwargs):
        raise AssertionError("a builder was reached")

    for name in ("GroupTable", "PermutationGroup"):
        monkeypatch.setattr(corpus, name, reached)
    with pytest.raises(CorpusError,
                       match="order 2001 exceeds the table cap 2000"):
        parse_group_text(text)


def test_identity_generator_line_is_kept():
    text = "group c2\norder 2\ndegree 2\ngen: 0 1\ngen: 1 0\n"
    record = parse_group_text(text)
    assert record.generators == ((0, 1), (1, 0))
    assert serialize_group(record) == text


def test_serialize_is_canonical():
    record = parse_group_text(C4_TEXT)
    assert serialize_group(record) == C4_TEXT
    # Generators come out sorted regardless of input order.
    shuffled = ("group g\norder 4\ndegree 4\n"
                "gen: 3 0 1 2\ngen: 1 2 3 0\n")
    record = parse_group_text(shuffled)
    out = serialize_group(record)
    assert out.index("gen: 1 2 3 0") < out.index("gen: 3 0 1 2")


def test_save_and_load_roundtrip(tmp_path):
    record = construct("dihedral(12)", name="d12")
    path = tmp_path / "d12.grp"
    save_group(record, path)
    loaded = load_group(path)
    assert loaded.name == "d12"
    assert loaded.order == 12
    assert are_isomorphic(loaded.table, record.table)[0]
    assert serialize_group(loaded) == path.read_text()


def test_construct_orders():
    cases = [
        ("cyclic(1)", 1), ("cyclic(12)", 12),
        ("abelian(2,3,4)", 24), ("dihedral(12)", 12),
        ("symmetric(4)", 24), ("alternating(4)", 12),
        ("alternating(6)", 360),
        ("direct(symmetric(3),cyclic(2))", 12),
        ("semidirect(cyclic(3),cyclic(4),[[0,2,1]])", 12),
        ("gl(1,5)", 4), ("gl(2,2)", 6), ("gl(2,3)", 48), ("gl(2,5)", 480),
        ("sl(2,3)", 24), ("sl(2,5)", 120), ("gl(3,2)", 168),
        ("sl(3,2)", 168),
    ]
    for expr, order in cases:
        record = construct(expr)
        assert record.order == order, expr
        assert record.table.n == order


def test_construct_name_override():
    record = construct("cyclic(6)", name="c6")
    assert record.name == "c6"
    assert record.table.name == "c6"
    assert record.provenance[0].startswith("constructed:")


def test_dicyclic_semidirect_structure():
    dic3 = construct("semidirect(cyclic(3),cyclic(4),[[0,2,1]])")
    assert dic3.table.order_spectrum == ((1, 1), (2, 1), (3, 2), (4, 6),
                                         (6, 2))
    assert dic3.table.is_solvable()
    assert not dic3.table.is_abelian


def test_semidirect_with_trivial_action_is_direct():
    # A trivial acting group has no generators, so its spec is empty.
    for expr, direct in [("semidirect(cyclic(3),cyclic(2),[[0,1,2]])",
                          "cyclic(6)"),
                         ("semidirect(cyclic(3),cyclic(1),[])", "cyclic(3)")]:
        assert are_isomorphic(construct(expr).table,
                              construct(direct).table)[0]


def test_dihedral_four_is_the_klein_group():
    # On m = 2 points the flip is the identity; the action must be faithful.
    record = construct("dihedral(4)")
    assert record.order == 4
    assert are_isomorphic(record.table, construct("abelian(2,2)").table)[0]


def test_semidirect_errors():
    with pytest.raises(CorpusError, match="not an automorphism"):
        construct("semidirect(cyclic(3),cyclic(2),[[1,0,2]])")
    with pytest.raises(CorpusError, match="does not extend"):
        construct("semidirect(cyclic(4),cyclic(3),[[0,3,2,1]])")
    with pytest.raises(CorpusError, match="action spec has"):
        construct("semidirect(cyclic(3),cyclic(2),[[0,2,1],[0,2,1]])")
    with pytest.raises(CorpusError, match="must have 3 entries"):
        construct("semidirect(cyclic(3),cyclic(2),[[0,1]])")


def test_construct_parse_errors():
    for expr in ("nonsense(3)", "cyclic", "cyclic(", "cyclic(3))",
                 "dihedral(7)", "gl(2,4)", "gl(0,2)", "cyclic(x)",
                 # Sizes below 1.
                 "cyclic(0)", "abelian(2,0)", "direct(cyclic(2),cyclic(0))",
                 # Valid Python that is not a constructor expression.
                 "cyclic(n=3)", "cyclic(3.0)", "cyclic(-3)", "cyclic(True)",
                 "cyclic('3')", "cyclic(0x10)", "cyclic(1_0)", "cyclic(*[3])",
                 "os.system(1)", "__import__('os')",
                 "semidirect(cyclic(3),cyclic(2),[0,2,1])"):
        with pytest.raises(CorpusError):
            construct(expr)
    for expr, message in [("cyclic(0)", "cyclic takes integers >= 1"),
                          ("abelian(2,0)", "abelian takes integers >= 1"),
                          ("direct(cyclic(2),cyclic(0))",
                           "cyclic takes integers >= 1")]:
        with pytest.raises(CorpusError, match=message):
            construct(expr)


@pytest.fixture
def builders_raise(monkeypatch):
    """The builders raise if reached, so a check made too late fails fast."""
    def reached(*args):
        raise AssertionError("a builder was reached")

    for name in ("PermutationGroup", "_abelian_gens", "_perm_record",
                 "_nonzero_vectors", "_pair_table"):
        monkeypatch.setattr(corpus, name, reached)


@pytest.mark.parametrize("expr", [
    "cyclic(2001)", "cyclic(10001)", "cyclic(1000000)",
    "abelian(2,1001)", "abelian(2,5001)",
    pytest.param("abelian(" + ",".join(["2"] * 5000) + ")",
                 id="abelian(2,...,2)-5000-parts"),
    "dihedral(2002)", "dihedral(10002)", "dihedral(1000000)",
    "symmetric(7)", "symmetric(8)", "symmetric(300000)",
    "alternating(7)", "alternating(8)", "alternating(300000)",
    "direct(cyclic(2),cyclic(1001))", "direct(cyclic(2),cyclic(5001))",
    "direct(cyclic(10000),cyclic(10000))",
    # A table-backed factor takes the table of pairs in place of generators.
    "direct(semidirect(cyclic(3),cyclic(4),[[0,2,1]]),cyclic(167))",
    "direct(semidirect(cyclic(3),cyclic(4),[[0,2,1]]),cyclic(834))",
    "semidirect(cyclic(1001),cyclic(2),[[0]])",
    "semidirect(cyclic(5001),cyclic(2),[[0]])",
    "semidirect(cyclic(10000),cyclic(10000),[[0]])",
    "gl(1,2003)", "gl(1,10007)", "gl(300,7)",
    "sl(2,13)", "sl(2,23)", "sl(300,7)",
])
def test_constructors_check_the_cap_before_building(builders_raise, expr):
    # Each input lies just past TABLE_CAP = 2000 (the first of each
    # constructor's cases), five times past it, or far past it.
    with pytest.raises(CorpusError, match="order exceeds the table cap"):
        construct(expr)


@pytest.mark.parametrize("expr,degree", [("sl(1,2003)", 2002),
                                         ("sl(1,10007)", 10006),
                                         ("sl(1,1000003)", 1000002)])
def test_linear_degree_is_capped_before_building(builders_raise, expr,
                                                 degree):
    # SL(1, p) is trivial, but it would act on the p - 1 nonzero vectors.
    with pytest.raises(CorpusError,
                       match=f"degree {degree} exceeds the table cap 2000"):
        construct(expr)


def test_linear_groups_are_correct():
    gl23 = construct("gl(2,3)")
    assert gl23.degree == 8  # nonzero vectors of F_3^2
    assert not gl23.table.is_abelian
    assert gl23.table.is_solvable()
    sl25 = construct("sl(2,5)")
    assert not sl25.table.is_solvable()
    assert sl25.table.order_spectrum[0] == (1, 1)
    # SL(2,5) has a unique involution.
    assert dict(sl25.table.order_spectrum)[2] == 1
    # SL(1,p) is trivial, acting on the p - 1 nonzero vectors.
    sl15 = construct("sl(1,5)")
    assert (sl15.order, sl15.degree) == (1, 4)


def test_regular_generators():
    dic3 = construct("semidirect(cyclic(3),cyclic(4),[[0,2,1]])")
    degree, gens = regular_generators(dic3.table)
    assert degree == 12
    group = PermutationGroup(degree, gens)
    assert len(group.listing()[0]) == 12


def test_manifest_roundtrip(tmp_path):
    for name, expr in [("c6", "cyclic(6)"), ("s3", "symmetric(3)")]:
        save_group(construct(expr, name=name), tmp_path / f"{name}.grp")
    write_index(tmp_path, 6, True, ["c6.grp", "s3.grp"])
    manifest = load_manifest(tmp_path)
    assert manifest.order == 6
    assert manifest.complete
    assert [r.name for r in manifest.records] == ["c6", "s3"]
    assert len(corpus_hash(manifest)) == 64


def test_manifest_errors(tmp_path):
    with pytest.raises(CorpusError, match="no index.txt"):
        load_manifest(tmp_path)
    (tmp_path / "index.txt").write_text("order 6\ncomplete maybe\n")
    with pytest.raises(CorpusError, match="true or false"):
        load_manifest(tmp_path)
    (tmp_path / "index.txt").write_text("complete true\n")
    with pytest.raises(CorpusError, match="needs 'order'"):
        load_manifest(tmp_path)
    save_group(construct("cyclic(4)", name="c4"), tmp_path / "c4.grp")
    (tmp_path / "index.txt").write_text("order 6\ncomplete true\nfile c4.grp\n")
    with pytest.raises(CorpusError, match="corpus claims 6"):
        load_manifest(tmp_path)


REPEATED_DEGREE = "group g\norder 2\ndegree 2\ngen: 1 0\ndegree 3\n"


@pytest.mark.parametrize("text,lineno", [
    (REPEATED_DEGREE, 5),
    ("group g\norder 2\ndegree 2\norder 4\ngen: 1 0\n", 4),
], ids=["degree", "order"])
def test_repeated_group_header_is_refused(text, lineno):
    word = text.splitlines()[lineno - 1].split()[0]
    with pytest.raises(CorpusError, match=f"g.grp:{lineno}: second '{word}'"):
        parse_group_text(text, source="g.grp")


@pytest.mark.parametrize("index,lineno", [
    ("order 6\ncomplete true\norder 6\n", 3),
    ("order 6\ncomplete true\ncomplete false\n", 3),
], ids=["order", "complete"])
def test_repeated_index_header_is_refused(tmp_path, index, lineno):
    (tmp_path / "index.txt").write_text(index)
    word = index.splitlines()[lineno - 1].split()[0]
    with pytest.raises(CorpusError,
                       match=f"index.txt:{lineno}: second '{word}'"):
        load_manifest(tmp_path)


def test_validate_reports_a_repeated_degree_line(tmp_path, capsys):
    # The second degree line once reached PermutationGroup, whose bare
    # ValueError escaped the report.
    (tmp_path / "g.grp").write_text(REPEATED_DEGREE)
    write_index(tmp_path, 2, False, ["g.grp"])
    assert main(["corpus", "validate", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "g.grp:5: second 'degree' line" in out
    assert "result: failed" in out


@pytest.mark.parametrize("line,fragment", [
    ("order sixty", "bad order line"),
    ("order -5", "order must be positive, got -5"),
])
def test_validate_reports_a_bad_manifest_order(tmp_path, line, fragment):
    (tmp_path / "index.txt").write_text(f"{line}\ncomplete true\n")
    with pytest.raises(CorpusError, match=fragment):
        load_manifest(tmp_path)
    report = validate_corpus(tmp_path)
    assert not report.ok
    assert len(report.errors) == 1 and fragment in report.errors[0]


def test_corpus_hash_tracks_content(tmp_path):
    save_group(construct("cyclic(6)", name="c6"), tmp_path / "c6.grp")
    write_index(tmp_path, 6, False, ["c6.grp"])
    first = corpus_hash(load_manifest(tmp_path))
    save_group(construct("symmetric(3)", name="s3"), tmp_path / "s3.grp")
    write_index(tmp_path, 6, False, ["c6.grp", "s3.grp"])
    second = corpus_hash(load_manifest(tmp_path))
    assert first != second


def test_validate_flags_duplicates(tmp_path):
    save_group(construct("cyclic(6)", name="c6"), tmp_path / "c6.grp")
    save_group(construct("abelian(2,3)", name="c6b"), tmp_path / "c6b.grp")
    write_index(tmp_path, 6, False, ["c6.grp", "c6b.grp"])
    report = validate_corpus(tmp_path)
    assert not report.ok
    assert any("isomorphic" in e for e in report.errors)


@pytest.mark.parametrize("name", ["index.txt", "c2c2.grp"])
def test_validate_names_a_file_that_is_not_text(tmp_path, capsys, name):
    # Byte 0xff is no UTF-8: the report's one error names the file, and
    # every command that reads the corpus fails with that name.
    shutil.copytree(CORPORA / "o4", tmp_path / "o4")
    path = tmp_path / "o4" / name
    path.write_bytes(b"\xff" + path.read_bytes())
    report = validate_corpus(tmp_path / "o4")
    assert not report.ok
    assert len(report.errors) == 1
    assert report.errors[0].startswith(f"{path}: cannot read ")
    assert "can't decode byte 0xff" in report.errors[0]
    assert main(["corpus", "validate", str(tmp_path / "o4")]) == 1
    out = capsys.readouterr().out
    assert f"error: {path}: cannot read " in out
    assert out.endswith("result: failed\n")
    for command in ("screen", "direct"):
        assert main([command, "--corpus", str(tmp_path / "o4")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_validate_warns_on_suspicious_completeness(tmp_path):
    save_group(construct("cyclic(60)", name="c60"), tmp_path / "c60.grp")
    write_index(tmp_path, 60, True, ["c60.grp"])
    report = validate_corpus(tmp_path)
    assert report.ok
    assert any("every member is solvable" in w for w in report.warnings)


def test_shipped_corpora_shapes():
    expected = {
        "o4": (4, True, 2), "o5": (5, True, 1), "o8": (8, True, 5),
        "o12": (12, True, 5), "o60": (60, True, 13),
        "o120": (120, False, 3), "o168": (168, False, 1),
    }
    for dirname, (order, complete, count) in expected.items():
        manifest = load_manifest(CORPORA / dirname)
        assert manifest.order == order
        assert manifest.complete == complete
        assert len(manifest.records) == count


def test_shipped_corpora_validate():
    for dirname in ("o4", "o5", "o8", "o12", "o60"):
        report = validate_corpus(CORPORA / dirname)
        assert report.ok, (dirname, report.errors)
        assert not report.warnings
    for dirname in ("o120", "o168"):
        report = validate_corpus(CORPORA / dirname)
        assert report.ok


def test_shipped_o60_membership():
    manifest = load_manifest(CORPORA / "o60")
    names = [r.name for r in manifest.records]
    assert names[0] == "c60"
    assert "a5" in names
    insolvable = [r.name for r in manifest.records if not r.is_solvable()]
    assert insolvable == ["a5"]


def test_shipped_o120_all_insolvable():
    manifest = load_manifest(CORPORA / "o120")
    assert all(not r.is_solvable() for r in manifest.records)
    spectra = {r.name: dict(r.table.order_spectrum) for r in manifest.records}
    assert spectra["sl25"][2] == 1      # unique involution
    assert spectra["s5"][6] == 20       # 3-cycle times disjoint transposition
