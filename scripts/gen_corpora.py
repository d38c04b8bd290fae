#!/usr/bin/env python3
"""Generate the shipped group corpora under corpora/.

Each corpus is one directory per group order holding .grp files plus an
index.txt with the order and a completeness claim.  Completeness of the
complete corpora is certified here by counting: the members are pairwise
non-isomorphic and their number equals the known number of isomorphism
types at that order (2, 1, 5, 5 and 13 for orders 4, 5, 8, 12 and 60).
The order-120 and order-168 corpora only carry some insolvable groups and
are marked incomplete.

Groups are built from constructor expressions where possible.  Groups the
constructors produce as bare multiplication tables (semidirect products
and anything assembled from them) are converted to regular permutation
generators before saving, so every shipped file uses the generator form.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from holoscreen.corpus import (GroupRecord, construct, parse_group_text,
                               regular_generators, save_group, serialize_group,
                               validate_corpus, write_index)
from holoscreen.perms import check_perm

# Known isomorphism-type counts for the complete corpora.
TYPE_COUNTS = {4: 2, 5: 1, 8: 5, 12: 5, 60: 13}


def cyclic_power_action(record: GroupRecord, k: int) -> list[int]:
    """The automorphism g -> g^k of a cyclic group, as a table-index map."""
    table = record.table
    n = table.n
    gen = next(i for i in range(n) if table.element_orders[i] == n)
    power_index = [0] * n
    current = 0
    for i in range(1, n):
        current = table.mul[current][gen]
        power_index[i] = current
    images = [0] * n
    for i in range(n):
        images[power_index[i]] = power_index[(k * i) % n]
    return images


def semidirect_cyclic(n: int, h: int, k: int) -> str:
    """Expression for cyclic(n) extended by cyclic(h) acting via g -> g^k."""
    base = construct(f"cyclic({n})")
    action = cyclic_power_action(base, k)
    spec = "[[" + ",".join(str(x) for x in action) + "]]"
    return f"semidirect(cyclic({n}),cyclic({h}),{spec})"


# Explicit regular representation of the quaternion group on
# {1, i, -1, -i, j, k, -j, -k}: left multiplication by i and by j.
Q8_GENS = [
    [1, 2, 3, 0, 5, 6, 7, 4],
    [4, 7, 6, 5, 2, 1, 0, 3],
]


def corpora() -> dict[str, tuple[int, bool, list[tuple[str, object, list[str]]]]]:
    """name -> (order, complete, [(group name, source, extra provenance)])."""
    dic3 = semidirect_cyclic(3, 4, 2)  # only nontrivial action of C4 on C3
    dic5 = semidirect_cyclic(5, 4, 4)  # inversion
    f20 = semidirect_cyclic(5, 4, 2)  # faithful, 2 has order 4 mod 5
    return {
        "o4": (4, True, [
            ("c4", "cyclic(4)", []),
            ("c2c2", "abelian(2,2)", []),
        ]),
        "o5": (5, True, [
            ("c5", "cyclic(5)", []),
        ]),
        "o8": (8, True, [
            ("c8", "cyclic(8)", []),
            ("c4xc2", "abelian(4,2)", []),
            ("c2c2c2", "abelian(2,2,2)", []),
            ("d8", "dihedral(8)", []),
            ("q8", ("perm", 8, Q8_GENS),
             ["regular representation on the eight unit quaternions"]),
        ]),
        "o12": (12, True, [
            ("c12", "cyclic(12)", []),
            ("c6xc2", "abelian(6,2)", []),
            ("d12", "dihedral(12)", []),
            ("a4", "alternating(4)", []),
            ("dic3", dic3, ["dicyclic; cyclic(4) inverts cyclic(3)"]),
        ]),
        "o60": (60, True, [
            ("c60", "cyclic(60)", []),
            ("c30xc2", "abelian(30,2)", []),
            ("a5", "alternating(5)",
             ["isomorphism type: SmallGroup(60,5), the alternating group A5"]),
            ("d60", "dihedral(60)", []),
            ("s3xd10", "direct(dihedral(6),dihedral(10))", []),
            ("s3xc10", "direct(dihedral(6),cyclic(10))", []),
            ("d10xc6", "direct(dihedral(10),cyclic(6))", []),
            ("a4xc5", "direct(alternating(4),cyclic(5))", []),
            ("f20xc3", f"direct({f20},cyclic(3))",
             ["cyclic(4) acting faithfully on cyclic(5), times cyclic(3)"]),
            ("c15sc4", semidirect_cyclic(15, 4, 2),
             ["cyclic(4) acting by g -> g^2 on cyclic(15): order 4 on the "
              "5-part, inversion on the 3-part"]),
            ("dic15", semidirect_cyclic(15, 4, 14),
             ["dicyclic; cyclic(4) inverts cyclic(15)"]),
            ("dic5xc3", f"direct({dic5},cyclic(3))",
             ["dicyclic; cyclic(4) inverts cyclic(5), times cyclic(3)"]),
            ("dic3xc5", f"direct({dic3},cyclic(5))",
             ["dicyclic; cyclic(4) inverts cyclic(3), times cyclic(5)"]),
        ]),
        "o120": (120, False, [
            ("s5", "symmetric(5)",
             ["isomorphism type: SmallGroup(120,34), the symmetric group S5"]),
            ("sl25", "sl(2,5)",
             ["isomorphism type: SmallGroup(120,5), SL(2,5)"]),
            ("c2xa5", "direct(cyclic(2),alternating(5))",
             ["isomorphism type: SmallGroup(120,35), C2 x A5"]),
        ]),
        "o168": (168, False, [
            ("psl27", "gl(3,2)",
             ["isomorphism type: SmallGroup(168,42), PSL(2,7) = GL(3,2)"]),
        ]),
    }


def build_record(name: str, source, extra: list[str]) -> GroupRecord:
    if isinstance(source, tuple):
        kind, degree, gens = source
        assert kind == "perm"
        lines = [f"group {name}", "order 8", f"degree {degree}"]
        for g in gens:
            check_perm(g)
            lines.append("gen: " + " ".join(str(x) for x in g))
        record = parse_group_text("\n".join(lines) + "\n", source=name)
    else:
        record = construct(source, name=name)
        if record.generators is None:
            degree, gens = regular_generators(record.table)
            lines = [f"group {name}", f"order {record.order}",
                     f"degree {degree}"]
            for g in gens:
                lines.append("gen: " + " ".join(str(x) for x in g))
            lines.append(f"provenance: constructed: {source}")
            record = parse_group_text("\n".join(lines) + "\n", source=name)
        else:
            record.provenance = (f"constructed: {source}",)
    record.provenance = record.provenance + tuple(extra)
    # Round-trip once so the shipped text is exactly the canonical form.
    record = parse_group_text(serialize_group(record), source=name)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "corpora"))
    args = parser.parse_args()
    root = Path(args.out)
    root.mkdir(parents=True, exist_ok=True)

    for dirname, (order, complete, members) in corpora().items():
        directory = root / dirname
        directory.mkdir(exist_ok=True)
        files = []
        for name, source, extra in members:
            record = build_record(name, source, extra)
            if record.order != order:
                raise SystemExit(f"{dirname}/{name}: order {record.order}, "
                                 f"expected {order}")
            save_group(record, directory / f"{name}.grp")
            files.append(f"{name}.grp")
        write_index(directory, order, complete, files)

        report = validate_corpus(directory)
        for line in report.errors:
            print(f"  error: {line}")
        if not report.ok:
            raise SystemExit(f"{dirname}: validation failed")
        if complete and report.count != TYPE_COUNTS[order]:
            raise SystemExit(
                f"{dirname}: {report.count} groups but order {order} has "
                f"{TYPE_COUNTS[order]} isomorphism types")
        print(f"{dirname}: {report.count} groups, complete={complete}, "
              f"sha256={report.hash}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
