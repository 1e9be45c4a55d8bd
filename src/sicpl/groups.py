"""Exact point-group character tables and representation algebra.

Three groups are built in: C3v (axial defect configurations), C1h (basal
configurations) and the double group of C3v (half-integer spin).  Tables
are stored in a plain text format (see ``load_table``) and every table,
built-in or user supplied, is validated against the orthogonality
relations before use.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import NamedTuple

from .exact import GaussianRational, ONE, parse_scalar
from .records import Checked, FrozenSlots, RecordReader

_DATA_FILES = {
    "C3v": "c3v.grp",
    "C1h": "c1h.grp",
    "C3v_double": "c3v_double.grp",
}
BUILTIN_GROUPS = tuple(_DATA_FILES)


class GroupError(Exception):
    """Base class for group-algebra errors."""


class UnknownGroupError(GroupError):
    pass


class GroupMismatchError(GroupError):
    pass


class InvalidRepresentationError(GroupError):
    """Character vector that is not a non-negative integer combination of irreps."""


class TableFormatError(GroupError):
    pass


class Irrep(NamedTuple):
    label: str
    dim: int
    kind: str  # "single" or "extra" (double-group representation)
    characters: tuple[GaussianRational, ...]

    @property
    def is_trivial(self) -> bool:
        return all(c == ONE for c in self.characters)


class PointGroupTable(NamedTuple):
    name: str
    order: int
    class_labels: tuple[str, ...]
    class_sizes: tuple[int, ...]
    irreps: tuple[Irrep, ...]

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def irrep(self, label: str) -> Irrep:
        for ir in self.irreps:
            if ir.label == label:
                return ir
        valid = ", ".join(ir.label for ir in self.irreps)
        raise UnknownGroupError(
            f"group {self.name} has no irrep {label!r} (valid: {valid})"
        )

    def irrep_labels(self) -> tuple[str, ...]:
        return tuple(ir.label for ir in self.irreps)

    @property
    def trivial_irrep(self) -> Irrep:
        for ir in self.irreps:
            if ir.is_trivial:
                return ir
        raise GroupError(f"group {self.name} has no trivial irrep")

    def rep(self, label: str) -> "RepVector":
        return RepVector(self, self.irrep(label).characters)


class _RepVectorFields(NamedTuple):
    group: PointGroupTable
    characters: tuple[GaussianRational, ...]


class RepVector(Checked, _RepVectorFields):
    """A (possibly reducible) representation as an exact class function."""

    __slots__ = ()

    def _check(self) -> None:
        if len(self.characters) != self.group.n_classes:
            raise GroupError(
                f"character vector has {len(self.characters)} entries, "
                f"group {self.group.name} has {self.group.n_classes} classes"
            )

    def conjugate(self) -> "RepVector":
        return RepVector(self.group, tuple(c.conjugate() for c in self.characters))


class Multiplicities(FrozenSlots):
    """Decomposition of a representation into irrep multiplicities.

    A slots class, not a tuple, so that ``m[label]`` reads a multiplicity.
    """

    __slots__ = ("group", "counts")

    def __init__(self, group: PointGroupTable, counts: dict[str, int]) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.group, self.counts) == (other.group, other.counts)
        return NotImplemented

    def __hash__(self) -> int:
        # the counts are a dict, so only the group is hashed
        return hash((self.group,))

    def __getitem__(self, label: str) -> int:
        return self.counts.get(label, 0)

    def direct_sum_str(self) -> str:
        parts = []
        for ir in self.group.irreps:
            m = self[ir.label]
            if m == 1:
                parts.append(ir.label)
            elif m > 1:
                parts.append(f"{m}{ir.label}")
        return " + ".join(parts) if parts else "0"


def _parse_table_text(text: str) -> PointGroupTable:
    name = None
    order = None
    class_labels: list[str] = []
    class_sizes: list[int] = []
    irreps: list[tuple[int, Irrep]] = []  # (line number, irrep)
    reader = RecordReader(text, "table")
    for lineno, tokens in reader:
        key = tokens[0]
        try:
            if key == "group":
                name = tokens[1]
            elif key == "order":
                order = _positive_int(tokens[1], "order")
            elif key == "class":
                class_labels.append(tokens[1])
                class_sizes.append(_positive_int(tokens[2], "class size"))
            elif key == "irrep":
                label, dim, kind = tokens[1], _positive_int(tokens[2], "dimension"), tokens[3]
                if kind not in ("single", "extra"):
                    raise ValueError(f"irrep kind {kind!r} is neither 'single' nor 'extra'")
                if any(ir.label == label for _, ir in irreps):
                    raise ValueError(f"irrep label {label!r} is repeated")
                chars = tuple(parse_scalar(t) for t in tokens[4:])
                irreps.append((lineno, Irrep(label, dim, kind, chars)))
            else:
                raise ValueError(f"unknown keyword {key!r}")
        except IndexError as exc:
            raise TableFormatError(reader.locate(lineno, f"too few fields for {key!r}")) from exc
        except ValueError as exc:
            raise TableFormatError(reader.locate(lineno, exc)) from exc
    if name is None or order is None or not class_labels or not irreps:
        raise TableFormatError("table: incomplete table: need group, order, classes, irreps")
    for lineno, ir in irreps:
        if len(ir.characters) != len(class_labels):
            raise TableFormatError(reader.locate(
                lineno,
                f"irrep {ir.label}: {len(ir.characters)} characters for "
                f"{len(class_labels)} classes",
            ))
    return PointGroupTable(
        name, order, tuple(class_labels), tuple(class_sizes), tuple(ir for _, ir in irreps)
    )


def _positive_int(token: str, what: str) -> int:
    value = int(token)
    if value < 1:
        raise ValueError(f"{what} must be at least 1, got {value}")
    return value


def load_table(text: str) -> PointGroupTable:
    """Parse a character-table document and validate it.

    The document uses the record syntax of :mod:`sicpl.records`.  Raises
    TableFormatError, located as ``table: line N:``, on syntax problems
    and GroupError if any verification check fails; downstream code
    never sees an unvalidated table.
    """
    table = _parse_table_text(text)
    failures = [c for c in verify_table(table) if not c.passed]
    if failures:
        detail = "; ".join(f"{c.name}: {c.detail}" for c in failures)
        raise GroupError(f"table {table.name} failed verification: {detail}")
    return table


@functools.cache
def builtin_group(name: str) -> PointGroupTable:
    """Return one of the built-in validated tables: C3v, C1h, C3v_double."""
    if name not in _DATA_FILES:
        raise UnknownGroupError(
            f"unknown group {name!r}; supported: {', '.join(BUILTIN_GROUPS)}"
        )
    text = resources.files("sicpl.data").joinpath(_DATA_FILES[name]).read_text()
    return load_table(text)


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _inner(sizes, xs, ys) -> tuple[int, int]:
    """Sum of n * x * conj(y) over zipped weights and characters, as int (re, im)."""
    re = im = 0
    for n, x, y in zip(sizes, xs, ys):
        re += n * (x.re * y.re + x.im * y.im)
        im += n * (x.im * y.re - x.re * y.im)
    return re, im


def verify_table(table: PointGroupTable) -> list[Check]:
    """Run every structural invariant; failures are reported, not raised."""
    checks: list[Check] = []

    size_sum = sum(table.class_sizes)
    checks.append(
        Check(
            "class-size-sum",
            size_sum == table.order,
            f"sum of class sizes {size_sum} vs order {table.order}",
        )
    )

    dim_sum = sum(ir.dim ** 2 for ir in table.irreps)
    checks.append(
        Check(
            "dimension-sum",
            dim_sum == table.order,
            f"sum of squared dims {dim_sum} vs order {table.order}",
        )
    )

    checks.append(
        Check(
            "class-count",
            len(table.irreps) == table.n_classes,
            f"{len(table.irreps)} irreps vs {table.n_classes} classes",
        )
    )

    for ir in table.irreps:
        ok = ir.characters and ir.characters[0] == GaussianRational(ir.dim)
        checks.append(
            Check(
                f"identity-character[{ir.label}]",
                bool(ok),
                f"chi(E)={ir.characters[0]} vs dim {ir.dim}",
            )
        )

    row_ok = True
    row_detail = ""
    for i, a in enumerate(table.irreps):
        for j, b in enumerate(table.irreps):
            re, im = _inner(table.class_sizes, a.characters, b.characters)
            expected = table.order if i == j else 0
            if (re, im) != (expected, 0):
                row_ok = False
                row_detail = (
                    f"<{a.label},{b.label}> = {GaussianRational(re, im)}, expected {expected}"
                )
    checks.append(Check("row-orthogonality", row_ok, row_detail))

    col_ok = True
    col_detail = ""
    columns = [[ir.characters[c] for ir in table.irreps] for c in range(table.n_classes)]
    ones = [1] * len(table.irreps)
    for c1 in range(table.n_classes):
        for c2 in range(table.n_classes):
            re, im = _inner(ones, columns[c1], columns[c2])
            # n_c * sum = |G| on the diagonal: no division, so a class of size 0 fails
            n_c = table.class_sizes[c1]
            expected = table.order if c1 == c2 else 0
            if (n_c * re, n_c * im) != (expected, 0):
                col_ok = False
                col_detail = (
                    f"columns {table.class_labels[c1]},{table.class_labels[c2]}: "
                    f"{n_c} x {GaussianRational(re, im)}, expected {expected}"
                )
    checks.append(Check("column-orthogonality", col_ok, col_detail))

    trivials = [ir.label for ir in table.irreps if ir.is_trivial]
    checks.append(
        Check("unique-trivial", len(trivials) == 1, f"trivial irreps: {trivials}")
    )
    return checks


def tensor_product(a: RepVector, b: RepVector, *more: RepVector) -> RepVector:
    """Class-wise exact product of representation characters."""
    reps = (a, b) + more
    group = reps[0].group
    for r in reps[1:]:
        if r.group is not group and r.group != group:
            raise GroupMismatchError(
                f"cannot combine representations of {group.name} and {r.group.name}"
            )
    chars = reps[0].characters
    for r in reps[1:]:
        chars = tuple(x * y for x, y in zip(chars, r.characters))
    return RepVector(group, chars)


def decompose(rep: RepVector) -> Multiplicities:
    """Reduce a class function to irrep multiplicities.

    Uses m_k = (1/|G|) sum_c n_c chi(c) conj(chi_k(c)); a non-integral or
    negative multiplicity means the vector is not a genuine representation.
    """
    table = rep.group
    counts: dict[str, int] = {}
    for ir in table.irreps:
        re, im = _inner(table.class_sizes, rep.characters, ir.characters)
        m, rem = divmod(re, table.order)
        if rem or im or m < 0:
            raise InvalidRepresentationError(
                f"multiplicity of {ir.label} is ({GaussianRational(re, im)})/{table.order}, "
                "not a non-negative integer; character vector is not a representation"
            )
        counts[ir.label] = m
    return Multiplicities(table, counts)


def contains_trivial(rep: RepVector) -> bool:
    """True iff the class function contains the trivial irrep at least once."""
    return decompose(rep)[rep.group.trivial_irrep.label] >= 1
