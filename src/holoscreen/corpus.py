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

Canonical serialization sorts the generator lines, uses LF endings, and
carries no trailing whitespace, so files are diffable and hashing is
stable.  A corpus is a directory of such files plus an ``index.txt``
naming the order, the member files, and whether the collection claims to
contain every group of that order up to isomorphism.  Completeness is a
documented claim about the corpus, never something this module computes.

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
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

from sympy import isprime, primitive_root

from .errors import CorpusError
from .isomorphism import GeneratorTower, are_isomorphic
from .perms import Perm, check_perm, compose, identity_perm, is_identity
from .perms import PermutationGroup
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
            try:
                order = int(line.split(None, 1)[1])
            except ValueError:
                _fail("bad order line", source, lineno)
        elif line.startswith("degree "):
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
    gens = sorted(set(gens))
    group = PermutationGroup(degree, gens)
    actual = group.order()
    if actual != order:
        _fail(f"order mismatch: declared {order}, generators give {actual}",
              source)
    if order > TABLE_CAP:
        _fail(f"order {order} exceeds the table cap {TABLE_CAP}", source)
    table, elements = from_permutation_group(group, name=name)
    return GroupRecord(name=name, order=order, source=source, table=table,
                       degree=degree, generators=tuple(gens),
                       elements=tuple(elements), provenance=tuple(provenance))


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

_TOKEN_RE = re.compile(r"\s*([A-Za-z_]\w*|\d+|[(),\[\]])")


def _tokenize(expr: str, source: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN_RE.match(expr, pos)
        if m is None:
            if expr[pos:].strip():
                _fail(f"bad character {expr[pos]!r} in expression", source)
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            _fail("unexpected end of expression", self.source)
        if expected is not None and tok != expected:
            _fail(f"expected {expected!r}, got {tok!r}", self.source)
        self.pos += 1
        return tok

    def int_value(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            _fail(f"expected a number, got {tok!r}", self.source)
        return int(tok)

    def int_list(self) -> list[int]:
        self.take("[")
        out = [self.int_value()]
        while self.peek() == ",":
            self.take(",")
            out.append(self.int_value())
        self.take("]")
        return out

    def action_spec(self) -> list[list[int]]:
        self.take("[")
        out = [self.int_list()]
        while self.peek() == ",":
            self.take(",")
            out.append(self.int_list())
        self.take("]")
        return out


def construct(expr: str, name: str | None = None) -> GroupRecord:
    """Build a validated GroupRecord from a constructor expression."""
    parser = _Parser(_tokenize(expr, expr), expr)
    record = _build(parser, expr)
    if parser.peek() is not None:
        _fail(f"trailing tokens after expression: {parser.peek()!r}", expr)
    if name is not None:
        record.name = name
        record.table.name = name
    return record


def _build(parser: _Parser, source: str) -> GroupRecord:
    head = parser.take()
    parser.take("(")
    if head == "cyclic":
        n = parser.int_value()
        parser.take(")")
        return _perm_record(f"cyclic({n})", n, *_cyclic_gens(n), source)
    if head == "abelian":
        parts = [parser.int_value()]
        while parser.peek() == ",":
            parser.take(",")
            parts.append(parser.int_value())
        parser.take(")")
        degree, gens = _abelian_gens(parts)
        order = 1
        for k in parts:
            order *= k
        label = "abelian(" + ",".join(str(k) for k in parts) + ")"
        return _perm_record(label, order, degree, gens, source)
    if head == "dihedral":
        n = parser.int_value()
        parser.take(")")
        if n < 4 or n % 2:
            _fail(f"dihedral takes an even order >= 4, got {n}", source)
        m = n // 2
        rot = tuple((i + 1) % m for i in range(m))
        flip = tuple((m - i) % m for i in range(m))
        return _perm_record(f"dihedral({n})", n, m, [rot, flip], source)
    if head in ("symmetric", "alternating"):
        m = parser.int_value()
        parser.take(")")
        if m < 1:
            _fail(f"{head} needs a degree >= 1, got {m}", source)
        if head == "symmetric":
            order = _factorial(m)
            gens = _symmetric_gens(m)
        else:
            order = _factorial(m) // 2 if m >= 3 else 1
            gens = _alternating_gens(m)
        return _perm_record(f"{head}({m})", order, max(m, 1), gens, source)
    if head == "direct":
        left = _build(parser, source)
        parser.take(",")
        right = _build(parser, source)
        parser.take(")")
        return _direct(left, right, source)
    if head == "semidirect":
        normal = _build(parser, source)
        parser.take(",")
        acting = _build(parser, source)
        parser.take(",")
        spec = parser.action_spec()
        parser.take(")")
        return _semidirect(normal, acting, spec, source)
    if head in ("gl", "sl"):
        m = parser.int_value()
        parser.take(",")
        p = parser.int_value()
        parser.take(")")
        return _linear(head, m, p, source)
    _fail(f"unknown constructor {head!r}", source)


def _factorial(m: int) -> int:
    out = 1
    for k in range(2, m + 1):
        out *= k
    return out


def _perm_record(label: str, order: int, degree: int, gens, source: str) -> GroupRecord:
    gens = sorted({check_perm(g) for g in gens if not is_identity(g)})
    group = PermutationGroup(degree, gens)
    actual = group.order()
    if actual != order:
        raise RuntimeError(
            f"constructor bug: {label} built order {actual}, wanted {order}")
    if order > TABLE_CAP:
        _fail(f"order {order} exceeds the table cap {TABLE_CAP}", source)
    table, elements = from_permutation_group(group, name=label)
    return GroupRecord(name=label, order=order, source=source, table=table,
                       degree=degree, generators=tuple(gens),
                       elements=tuple(elements),
                       provenance=(f"constructed: {label}",))


def _cyclic_gens(n: int) -> tuple[int, list[Perm]]:
    if n == 1:
        return 1, []
    return n, [tuple((i + 1) % n for i in range(n))]


def _abelian_gens(parts: list[int]) -> tuple[int, list[Perm]]:
    degree = sum(max(k, 1) for k in parts)
    gens = []
    offset = 0
    for k in parts:
        if k > 1:
            images = list(range(degree))
            for i in range(k):
                images[offset + i] = offset + (i + 1) % k
            gens.append(tuple(images))
        offset += max(k, 1)
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


def _linear(kind: str, m: int, p: int, source: str) -> GroupRecord:
    if m < 1:
        _fail(f"{kind} needs dimension >= 1, got {m}", source)
    if not isprime(p):
        _fail(f"{kind} needs a prime field size, got {p}", source)
    label = f"{kind}({m},{p})"
    gl_order = 1
    for i in range(m):
        gl_order *= p**m - p**i
    order = gl_order if kind == "gl" else gl_order // (p - 1)

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
    out = []
    for code in range(1, p**m):
        v = []
        rest = code
        for _ in range(m):
            v.append(rest % p)
            rest //= p
        out.append(tuple(reversed(v)))
    return out


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
            order = int(line.split(None, 1)[1])
        elif line.startswith("complete "):
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


def validate_corpus(target, *, strict: bool = True) -> CorpusReport:
    """Validate a corpus directory (or loaded manifest); collect problems.

    Errors are collected into the report rather than raised.  At the
    strict level every pair of records is tested for isomorphism and
    duplicates are reported as errors.
    """
    if isinstance(target, CorpusManifest):
        manifest = target
        report = CorpusReport(directory=str(manifest.directory))
    else:
        report = CorpusReport(directory=str(target))
        try:
            manifest = load_manifest(target)
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
            from .numbers import default_table, is_solvable_number
            table = default_table()
            if (manifest.order <= table.bound
                    and not is_solvable_number(manifest.order, table)
                    and all(r.is_solvable() for r in manifest.records)):
                report.warnings.append(
                    "claims completeness but every member is solvable, and "
                    f"order {manifest.order} is not a solvable number")
    return report
