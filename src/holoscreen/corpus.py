"""Group ingestion: a small file format, constructors, and manifests.

A ``.grp`` file is line-oriented text describing one group, either by
permutation generators or by an explicit multiplication table::

    group d8
    order 8
    degree 4
    gen: 1 0 3 2
    gen: 1 2 3 0
    provenance: constructed: dihedral(8)

    group q8
    order 8
    table:
    0 1 2 3 4 5 6 7
    ... (one row per element, identity first)

Each header line (``group``, ``order``, ``degree``) appears at most once.
Canonical serialization sorts the generator lines, uses LF endings, and
carries no trailing whitespace, so files are diffable and hashing is
stable.  A corpus is a directory of such files plus an ``index.txt``
naming the order (one ``order`` line), the member files, and whether the
collection claims to contain every group of that order up to isomorphism
(one ``complete`` line).  Completeness is a documented claim about the
corpus, never something this module computes.

Constructor expressions build the standard families directly::

    cyclic(6)   abelian(2, 4)   dihedral(12)   symmetric(4)
    alternating(5)   direct(e1, e2)   semidirect(e1, e2, spec)
    gl(3, 2)   sl(2, 5)

``semidirect(n_expr, h_expr, spec)`` takes the normal component first.
The action spec is a bracketed list with one entry per generator of the
acting group, each entry an image list describing an automorphism of the
normal component by where it sends each element index of that component's
table.  The assignment is validated both as automorphisms and as a
homomorphism of the whole acting group.

Expressions are read with Python's parser (``ast.parse``) and never
evaluated.  Every argument is a decimal integer literal of at least 1
(no sign, base prefix or underscore), a nested constructor call, or the
action spec; anything else raises CorpusError.
"""

from __future__ import annotations

import ast
import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import CapExceeded, CorpusError
from .isomorphism import GeneratorTower, are_isomorphic
from .perms import (Perm, PermutationGroup, check_perm, compose, identity_perm,
                    is_identity)
from .tables import TABLE_CAP, GroupTable, Homomorphism, from_permutation_group

__all__ = [
    "GroupRecord",
    "CorpusManifest",
    "CorpusReport",
    "parse_group_text",
    "load_group",
    "serialize_group",
    "save_group",
    "construct",
    "regular_generators",
    "load_manifest",
    "write_index",
    "corpus_hash",
    "validate_corpus",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9_.()\[\],x*-]+$")


@dataclass(eq=False)
class GroupRecord:
    """One validated group: its table plus how it was described."""

    name: str
    order: int
    source: str
    table: GroupTable
    degree: int | None = None
    generators: tuple[Perm, ...] | None = None
    elements: tuple[Perm, ...] | None = None
    provenance: tuple[str, ...] = ()

    def is_solvable(self) -> bool:
        return self.table.is_solvable()


def _fail(message: str, path=None, line: int | None = None):
    raise CorpusError(message, path=path, line=line)


def parse_group_text(text: str, source: str = "<string>") -> GroupRecord:
    """Parse one group description; see the module docstring for the format."""
    name = None
    order = None
    degree = None
    gens: list[Perm] = []
    table_rows: list[list[int]] = []
    provenance: list[str] = []
    mode = "header"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if mode == "table" and line[0].isdigit():
            try:
                table_rows.append([int(tok) for tok in line.split()])
            except ValueError:
                _fail("bad table row", source, lineno)
            continue
        mode = "header"
        if line.startswith("group "):
            if name is not None:
                _fail("second 'group' line; one group per file", source, lineno)
            name = line.split(None, 1)[1]
            if not _NAME_RE.match(name):
                _fail(f"bad group name {name!r}", source, lineno)
        elif line.startswith("order "):
            if order is not None:
                _fail("second 'order' line", source, lineno)
            try:
                order = int(line.split(None, 1)[1])
            except ValueError:
                _fail("bad order line", source, lineno)
            # Checked here, so a file that declares its order first fails
            # before it reads a table row or a generator.
            if order > TABLE_CAP:
                _fail(f"order {order} exceeds the table cap {TABLE_CAP}",
                      source, lineno)
        elif line.startswith("degree "):
            if degree is not None:
                _fail("second 'degree' line", source, lineno)
            try:
                degree = int(line.split(None, 1)[1])
            except ValueError:
                _fail("bad degree line", source, lineno)
        elif line.startswith("gen:"):
            if degree is None:
                _fail("'gen:' before 'degree'", source, lineno)
            try:
                images = [int(tok) for tok in line[4:].split()]
            except ValueError:
                _fail("bad generator line", source, lineno)
            if len(images) != degree:
                _fail(f"generator has {len(images)} images, degree is {degree}",
                      source, lineno)
            try:
                gens.append(check_perm(images))
            except ValueError as exc:
                _fail(f"not a permutation: {exc}", source, lineno)
        elif line.startswith("provenance:"):
            provenance.append(line[len("provenance:"):].strip())
        elif line == "table:":
            mode = "table"
        else:
            _fail(f"unrecognized line {line!r}", source, lineno)

    if name is None:
        _fail("missing 'group' line", source)
    if order is None:
        _fail("missing 'order' line", source)
    if order < 1:
        _fail(f"order must be positive, got {order}", source)
    if table_rows and (degree is not None or gens):
        _fail("give either generators or a table, not both", source)

    if table_rows:
        if len(table_rows) != order or any(len(r) != order for r in table_rows):
            _fail(f"table must be {order} rows of {order} entries", source)
        try:
            table = GroupTable(table_rows, name=name)
        except ValueError as exc:
            _fail(f"not a group table: {exc}", source)
        return GroupRecord(name=name, order=order, source=source, table=table,
                           provenance=tuple(provenance))

    if degree is None:
        _fail("missing 'degree' line (or a table block)", source)
    if degree < 1:
        _fail(f"degree must be positive, got {degree}", source)
    return _generated_record(name, order, degree, sorted(set(gens)), source,
                             tuple(provenance))


def _generated_record(name: str, order: int, degree: int, gens: list[Perm],
                      source: str, provenance: tuple[str, ...]) -> GroupRecord:
    """The record of the group generated by ``gens``, listed by closure.

    The listing stops one element past the declared order, so a declared
    order is checked without listing a larger group.  Callers have checked
    the order against the table cap."""
    group = PermutationGroup(degree, gens)
    try:
        table, elements = from_permutation_group(group, cap=order, name=name)
    except CapExceeded:
        _fail(f"order mismatch: declared {order}, generators give more", source)
    if len(elements) != order:
        _fail(f"order mismatch: declared {order}, generators give "
              f"{len(elements)}", source)
    return GroupRecord(name=name, order=order, source=source, table=table,
                       degree=degree, generators=tuple(gens),
                       elements=tuple(elements), provenance=provenance)


def load_group(path) -> GroupRecord:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        _fail(f"cannot read group file: {exc}", str(path))
    return parse_group_text(text, source=str(path))


def serialize_group(record: GroupRecord) -> str:
    """Canonical text form: sorted generators, LF, no trailing whitespace."""
    lines = [f"group {record.name}", f"order {record.order}"]
    if record.generators is not None:
        lines.append(f"degree {record.degree}")
        for g in sorted(record.generators):
            lines.append("gen: " + " ".join(str(x) for x in g))
    else:
        lines.append("table:")
        for row in record.table.mul:
            lines.append(" ".join(str(x) for x in row))
    for note in record.provenance:
        lines.append(f"provenance: {note}")
    return "\n".join(lines) + "\n"


def save_group(record: GroupRecord, path) -> None:
    Path(path).write_text(serialize_group(record))


def regular_generators(table: GroupTable) -> tuple[int, list[Perm]]:
    """A compact permutation presentation of a table group.

    Returns (degree, generators) where the generators are the left
    translations of a generating sequence, acting on the element indices.
    Handy for serializing constructed groups without storing the table.
    """
    mul = table.mul
    gens = [tuple(mul[g]) for g in table.generating_sequence()]
    return table.n, [check_perm(g) for g in gens]


# --- constructor expressions -------------------------------------------------

def construct(expr: str, name: str | None = None) -> GroupRecord:
    """Build a validated GroupRecord from a constructor expression.

    Python's parser reads the expression, which is never evaluated.  Only
    constructor calls by bare name, decimal integer literals and an action
    spec made of a list of integer lists are accepted."""
    source = expr.strip()  # the parser takes leading blanks as an indent
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        _fail(f"bad expression: {exc.msg}", source)
    except (ValueError, MemoryError, RecursionError):
        # Null bytes before Python 3.12, or past the parser's own limits.
        _fail("bad expression: the parser rejects it", source)
    # Every literal must be spelled in decimal digits alone, which rejects
    # a base prefix, an underscore, a bool, a float and a string.  Offsets
    # count UTF-8 bytes; the lines are split once, where
    # ``ast.get_source_segment`` would split them again for each literal.
    lines = source.encode().splitlines()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and not (
                lines[node.lineno - 1][node.col_offset:node.end_col_offset]
                .isdigit()):
            _expected("a number", node, source)
    _, build = _build(tree.body, source)
    record = build()
    if name is not None:
        record.name = name
        record.table.name = name
    return record


def _build(node: ast.expr,
           source: str) -> tuple[int, Callable[[], GroupRecord]]:
    """The order of the group that ``node`` names, and a function that
    builds the group.  Orders are checked against the cap by arithmetic,
    and a permutation family lists its generators only once its own order
    has passed, so ``construct`` builds no group, no table of pairs and no
    vector list until the whole expression has passed."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and not node.keywords):
        _expected("a constructor call", node, source)
    head, args = node.func.id, node.args
    if head == "direct":
        (n_left, left), (n_right, right) = (
            _build(arg, source) for arg in _args(head, args, 2, source))
        return _capped_order([n_left, n_right], source), lambda: _direct(
            left(), right(), source)
    if head == "semidirect":
        normal, acting, spec = _args(head, args, 3, source)
        (n_normal, normal), (n_acting, acting) = (_build(normal, source),
                                                  _build(acting, source))
        action = _action_spec(spec, source)
        return _capped_order([n_normal, n_acting], source), lambda: (
            _semidirect(normal(), acting(), action, source))
    if head in ("gl", "sl"):
        m, p = _sizes(head, _args(head, args, 2, source), source)
        order = _linear_order(head, m, p, source)
        return order, lambda: _linear(head, m, p, order, source)
    if head == "cyclic":
        n, = _sizes(head, _args(head, args, 1, source), source)
        order = _capped_order([n], source)
        label, degree = f"cyclic({n})", n
        gens = [tuple((i + 1) % n for i in range(n))]
    elif head == "abelian":
        parts = _sizes(head, args, source)
        order = _capped_order(parts, source)
        degree, gens = _abelian_gens(parts)
        label = "abelian(" + ",".join(str(k) for k in parts) + ")"
    elif head == "dihedral":
        n, = _sizes(head, _args(head, args, 1, source), source)
        if n < 4 or n % 2:
            _fail(f"dihedral takes an even order >= 4, got {n}", source)
        order = _capped_order([n], source)
        # The symmetries of a regular m-gon on its m vertices; for m = 2
        # that flip is the identity, so the 2-gon is drawn on a square.
        m = n // 2
        d = 4 if m == 2 else m
        rot = tuple((i + d // m) % d for i in range(d))
        flip = tuple((d - i) % d for i in range(d))
        label, degree, gens = f"dihedral({n})", d, [rot, flip]
    elif head in ("symmetric", "alternating"):
        m, = _sizes(head, _args(head, args, 1, source), source)
        # m! and m!/2 are the products of 2..m and 3..m.
        if head == "symmetric":
            order = _capped_order(range(2, m + 1), source)
            gens = _symmetric_gens(m)
        else:
            order = _capped_order(range(3, m + 1), source)
            gens = _alternating_gens(m)
        label, degree = f"{head}({m})", m
    else:
        _fail(f"unknown constructor {head!r}", source)
    return order, lambda: _perm_record(label, order, degree, gens, source)


def _capped_order(factors, source: str) -> int:
    """The product of ``factors``.  It fails as soon as a partial product
    passes the table cap, before any generator is built and before a huge
    order is computed or formatted."""
    order = 1
    for k in factors:
        order *= k
        if order > TABLE_CAP:
            _fail(f"order exceeds the table cap {TABLE_CAP}", source)
    return order


def _args(head: str, args: list[ast.expr], count: int,
          source: str) -> list[ast.expr]:
    if len(args) != count:
        _fail(f"wrong number of arguments to {head}: expected {count}, "
              f"got {len(args)}", source)
    return args


def _sizes(head: str, args: list[ast.expr], source: str) -> list[int]:
    """The values of a constructor's integer arguments, each at least 1."""
    values = [_int(arg, source) for arg in args]
    if not values or min(values) < 1:
        _fail(f"{head} takes integers >= 1, got {values}", source)
    return values


def _int(node: ast.expr, source: str) -> int:
    # ``construct`` has checked that every literal is a decimal integer.
    if not isinstance(node, ast.Constant):
        _expected("a number", node, source)
    return node.value


def _expected(what: str, node: ast.expr, source: str):
    _fail(f"expected {what}, got {ast.get_source_segment(source, node)!r}",
          source)


def _action_spec(node: ast.expr, source: str) -> list[list[int]]:
    if not (isinstance(node, ast.List)
            and all(isinstance(entry, ast.List) for entry in node.elts)):
        _fail("the action spec must be a list of integer lists", source)
    return [[_int(x, source) for x in entry.elts] for entry in node.elts]


def _perm_record(label: str, order: int, degree: int, gens, source: str) -> GroupRecord:
    gens = sorted({check_perm(g) for g in gens if not is_identity(g)})
    return _generated_record(label, order, degree, gens, source,
                             (f"constructed: {label}",))


def _abelian_gens(parts: list[int]) -> tuple[int, list[Perm]]:
    degree = sum(parts)
    gens = []
    offset = 0
    for k in parts:
        if k > 1:
            images = list(range(degree))
            for i in range(k):
                images[offset + i] = offset + (i + 1) % k
            gens.append(tuple(images))
        offset += k
    return degree, gens


def _symmetric_gens(m: int) -> list[Perm]:
    if m < 2:
        return []
    swap = tuple([1, 0] + list(range(2, m)))
    cycle = tuple((i + 1) % m for i in range(m))
    return [swap, cycle]


def _alternating_gens(m: int) -> list[Perm]:
    if m < 3:
        return []
    three = tuple([1, 2, 0] + list(range(3, m)))
    if m % 2:
        return [three, tuple((i + 1) % m for i in range(m))]
    rest = tuple([0] + [1 + (i % (m - 1)) for i in range(1, m)])
    return [three, rest]


def _direct(left: GroupRecord, right: GroupRecord, source: str) -> GroupRecord:
    label = f"direct({left.name},{right.name})"
    order = left.order * right.order
    if left.generators is not None and right.generators is not None:
        d1, d2 = left.degree, right.degree
        gens = [tuple(g) + tuple(range(d1, d1 + d2)) for g in left.generators]
        gens += [tuple(range(d1)) + tuple(x + d1 for x in g)
                 for g in right.generators]
        return _perm_record(label, order, d1 + d2, gens, source)
    # Table-backed component: fall back to the table of pairs.
    mul = _pair_table(left.table, right.table,
                      [tuple(range(left.order))] * right.order)
    table = GroupTable(mul, name=label)
    return GroupRecord(name=label, order=order, source=source, table=table,
                       provenance=(f"constructed: {label}",))


def _pair_table(n_tab: GroupTable, h_tab: GroupTable, act):
    """Table of pairs (a, h), index a * |H| + h, with H acting on N."""
    nh = h_tab.n
    mul = []
    for a1 in range(n_tab.n):
        for h1 in range(nh):
            twisted = act[h1]
            row = [0] * (n_tab.n * nh)
            out_row = n_tab.mul[a1]
            h_row = h_tab.mul[h1]
            for a2 in range(n_tab.n):
                for h2 in range(nh):
                    row[a2 * nh + h2] = out_row[twisted[a2]] * nh + h_row[h2]
            mul.append(row)
    return mul


def _semidirect(normal: GroupRecord, acting: GroupRecord,
                spec: list[list[int]], source: str) -> GroupRecord:
    n_tab, h_tab = normal.table, acting.table
    if acting.generators is not None:
        gen_idx = [acting.elements.index(g) for g in acting.generators]
    else:
        gen_idx = list(h_tab.generating_sequence())
    if len(spec) != len(gen_idx):
        _fail(f"action spec has {len(spec)} entries, acting group has "
              f"{len(gen_idx)} generators", source)

    gen_aut: dict[int, Perm] = {}
    for g, images in zip(gen_idx, spec):
        if len(images) != n_tab.n:
            _fail(f"automorphism image list must have {n_tab.n} entries", source)
        try:
            perm = check_perm(images)
        except ValueError as exc:
            _fail(f"action entry is not a permutation: {exc}", source)
        hom = Homomorphism(n_tab, n_tab, perm)
        if not hom.verify() or not hom.is_bijective():
            _fail("action entry is not an automorphism of the normal "
                  "component", source)
        gen_aut[g] = perm

    # Extend generator images through a closure tower, then verify that the
    # extension really is a homomorphism of the acting group.
    tower = GeneratorTower(h_tab, gens=gen_idx)
    act: list[Perm | None] = [None] * h_tab.n
    act[0] = identity_perm(n_tab.n)
    for e in tower.order:
        if act[e] is not None:
            continue
        pair = tower.expr[e]
        if pair is None:
            act[e] = gen_aut[e]
        else:
            u, v = pair
            act[e] = compose(act[u], act[v])
    for x in range(h_tab.n):
        row = h_tab.mul[x]
        for y in range(h_tab.n):
            if act[row[y]] != compose(act[x], act[y]):
                _fail("action spec does not extend to a homomorphism of the "
                      "acting group", source)

    label = f"semidirect({normal.name},{acting.name},...)"
    mul = _pair_table(n_tab, h_tab, act)
    try:
        table = GroupTable(mul, name=label)
    except ValueError as exc:
        raise RuntimeError(f"constructor bug: semidirect table invalid: {exc}")
    return GroupRecord(name=label, order=n_tab.n * h_tab.n, source=source,
                       table=table, provenance=(f"constructed: {label}",))


def _linear_order(kind: str, m: int, p: int, source: str) -> int:
    """|GL(m, p)| or |SL(m, p)|, checked against the cap, and so is the
    degree p^m - 1, the number of nonzero vectors the group acts on."""
    from sympy import isprime  # kept out of start-up, as in numbers.py

    if not isprime(p):
        _fail(f"{kind} needs a prime field size, got {p}", source)
    # |GL(m, p)| = (p - 1)(p^2 - 1)...(p^m - 1) * p^(m(m-1)/2), and SL drops
    # the factor p - 1.  Every other factor is at least 2, so the product
    # passes the cap within a few terms however large m is.
    order = _capped_order(itertools.chain(
        (p**k - 1 for k in range(1 if kind == "gl" else 2, m + 1)),
        (p for _ in range(m * (m - 1) // 2))), source)
    # The order has p^m - 1 as a factor except for sl(1, p), the trivial
    # group, so only there can the degree pass the cap.
    degree = p**m - 1
    if degree > TABLE_CAP:
        _fail(f"degree {degree} exceeds the table cap {TABLE_CAP}", source)
    return order


def _linear(kind: str, m: int, p: int, order: int,
            source: str) -> GroupRecord:
    from sympy import primitive_root

    label = f"{kind}({m},{p})"
    mats = []
    if m == 1:
        if kind == "gl" and p > 2:
            mats.append([[primitive_root(p)]])
    else:
        transvection = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        transvection[0][1] = 1
        mats.append(transvection)
        if m == 2:
            lower = [[1, 0], [1, 1]]
            mats.append(lower)
        else:
            cycle = [[0] * m for _ in range(m)]
            for i in range(m):
                cycle[i][(i + 1) % m] = 1
            if m % 2 == 0:
                cycle[m - 1][0] = p - 1
            mats.append(cycle)
        if kind == "gl" and p > 2:
            diag = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
            diag[0][0] = primitive_root(p)
            mats.append(diag)

    vectors = _nonzero_vectors(m, p)
    index = {v: i for i, v in enumerate(vectors)}
    gens = []
    for mat in mats:
        images = [index[_mat_apply(mat, v, p)] for v in vectors]
        gens.append(tuple(images))
    return _perm_record(label, order, len(vectors), gens, source)


def _nonzero_vectors(m: int, p: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(p), repeat=m))[1:]


def _mat_apply(mat, v, p: int) -> tuple[int, ...]:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) % p for row in mat)


# --- manifests ---------------------------------------------------------------

@dataclass
class CorpusManifest:
    """A directory of group files with an order and a completeness claim."""

    order: int
    complete: bool
    directory: Path
    files: tuple[str, ...]
    records: tuple[GroupRecord, ...]


def load_manifest(directory) -> CorpusManifest:
    directory = Path(directory)
    index = directory / "index.txt"
    if not index.is_file():
        _fail("no index.txt in corpus directory", str(directory))
    order = None
    complete = None
    files: list[str] = []
    for lineno, raw in enumerate(index.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("order "):
            if order is not None:
                _fail("second 'order' line", str(index), lineno)
            try:
                order = int(line.split(None, 1)[1])
            except ValueError:
                _fail("bad order line", str(index), lineno)
            if order < 1:
                _fail(f"order must be positive, got {order}", str(index),
                      lineno)
        elif line.startswith("complete "):
            if complete is not None:
                _fail("second 'complete' line", str(index), lineno)
            value = line.split(None, 1)[1]
            if value not in ("true", "false"):
                _fail(f"complete must be true or false, got {value!r}",
                      str(index), lineno)
            complete = value == "true"
        elif line.startswith("file "):
            files.append(line.split(None, 1)[1])
        else:
            _fail(f"unrecognized line {line!r}", str(index), lineno)
    if order is None or complete is None:
        _fail("index.txt needs 'order' and 'complete' lines", str(index))

    records = []
    for fname in files:
        record = load_group(directory / fname)
        if record.order != order:
            _fail(f"{fname} has order {record.order}, corpus claims {order}",
                  str(index))
        records.append(record)
    return CorpusManifest(order=order, complete=complete, directory=directory,
                          files=tuple(files), records=tuple(records))


def write_index(directory, order: int, complete: bool,
                files: list[str]) -> None:
    lines = [f"order {order}", f"complete {'true' if complete else 'false'}"]
    lines += [f"file {name}" for name in files]
    (Path(directory) / "index.txt").write_text("\n".join(lines) + "\n")


def corpus_hash(manifest: CorpusManifest) -> str:
    """SHA-256 over the index claims and each member's canonical form."""
    import hashlib

    digest = hashlib.sha256()
    digest.update(f"order {manifest.order}\n".encode())
    digest.update(f"complete {str(manifest.complete).lower()}\n".encode())
    for fname, record in zip(manifest.files, manifest.records):
        digest.update(f"file {fname}\n".encode())
        digest.update(serialize_group(record).encode())
    return digest.hexdigest()


@dataclass
class CorpusReport:
    directory: str
    order: int | None = None
    complete: bool | None = None
    count: int = 0
    hash: str | None = None
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_corpus(directory, *, strict: bool = True) -> CorpusReport:
    """Load and validate a corpus directory; collect problems.

    Errors are collected into the report rather than raised, a load error
    included.  At the strict level every pair of records is tested for
    isomorphism and duplicates are reported as errors.
    """
    report = CorpusReport(directory=str(directory))
    try:
        manifest = load_manifest(directory)
    except CorpusError as exc:
        report.errors.append(str(exc))
        return report
    report.order = manifest.order
    report.complete = manifest.complete
    report.count = len(manifest.records)
    report.hash = corpus_hash(manifest)

    if strict:
        for i in range(len(manifest.records)):
            for j in range(i + 1, len(manifest.records)):
                same, _ = are_isomorphic(manifest.records[i].table,
                                         manifest.records[j].table)
                if same:
                    report.errors.append(
                        f"{manifest.files[i]} and {manifest.files[j]} are "
                        f"isomorphic")

    if manifest.complete:
        if not manifest.records:
            report.warnings.append(
                "claims completeness but lists no groups; every positive "
                "order has at least the cyclic group")
        else:
            # A loaded member has order at most TABLE_CAP, well inside the
            # simple-order table's bound.
            from .numbers import is_solvable_number
            if (not is_solvable_number(manifest.order)
                    and all(r.is_solvable() for r in manifest.records)):
                report.warnings.append(
                    "claims completeness but every member is solvable, and "
                    f"order {manifest.order} is not a solvable number")
    return report
