"""Transition verdicts from representation algebra.

The matrix-element criterion is: a dipole transition can be nonzero only
if final occurs in dipole x initial (x phonon, when one assists).  That
multiplicity, (1/|G|) sum_c n_c chi_D chi_i conj(chi_f), is also the
multiplicity of the trivial irrep in conj(final) x dipole x initial, so
both forms give the same verdict.  The dipole comes from the table's
field irreps, never from a group's name.  On top of that sits a
physical-coupling rule: light cannot excite a phonon whose atomic
displacements are orthogonal to its electric field, which demotes one
formally-allowed entry of the axial-triplet table to "physically forbidden".
"""

from __future__ import annotations

import enum
import json
import math
from typing import NamedTuple

from .exact import GaussianRational
from .groups import (
    GroupError,
    PointGroupTable,
    RepVector,
    _rep,
    builtin_group,
    decompose,
    tensor_product,
)


class PolarizationKind(enum.Enum):
    PARALLEL_C = "parallel_c"
    PERPENDICULAR_C = "perpendicular_c"
    IN_PLANE_ANGLE = "in_plane_angle"


class Polarization(NamedTuple):
    """Electric-field direction of the light relative to the crystal c-axis.

    ``in_plane(azimuth)`` measures the basal-plane angle from the defect
    mirror plane (x); it matters where the x and y field irreps differ.
    """

    kind: PolarizationKind
    azimuth_deg: float | None = None

    @classmethod
    def parallel_c(cls) -> "Polarization":
        return cls(PolarizationKind.PARALLEL_C)

    @classmethod
    def perpendicular_c(cls) -> "Polarization":
        return cls(PolarizationKind.PERPENDICULAR_C)

    @classmethod
    def in_plane(cls, azimuth_deg: float) -> "Polarization":
        return cls(PolarizationKind.IN_PLANE_ANGLE, azimuth_deg)


class DisplacementAxis(enum.Enum):
    ALONG_C = "along_c"
    IN_BASAL_PLANE = "in_basal_plane"


# one-dimensional C3v phonons displace along c; the E phonon displaces in
# the basal plane
_C3V_PHONON_AXES = {
    "A1": DisplacementAxis.ALONG_C,
    "A2": DisplacementAxis.ALONG_C,
    "E": DisplacementAxis.IN_BASAL_PLANE,
}


class PhononMode(NamedTuple):
    irrep_label: str
    displacement_axis: DisplacementAxis

    @classmethod
    def c3v(cls, irrep_label: str) -> "PhononMode":
        try:
            return cls(irrep_label, _C3V_PHONON_AXES[irrep_label])
        except KeyError:
            raise GroupError(f"C3v has no phonon irrep {irrep_label!r}") from None


class TransitionQuery(NamedTuple):
    group: PointGroupTable
    initial: str
    final: str
    polarization: Polarization
    phonon: PhononMode | None = None


class Verdict(NamedTuple):
    """A transition verdict; its symbol follows from the two flags."""

    group_theory_allowed: bool
    physical_coupling: bool

    @property
    def symbol(self) -> str:
        if not self.group_theory_allowed:
            return "F"
        return "A" if self.physical_coupling else "A*"


class Policy(enum.Enum):
    PHYSICAL_OVERRIDE = "physical"  # the default, so listed first
    GROUP_THEORY_ONLY = "group-theory-only"


def dipole_rep(group: PointGroupTable, pol: Polarization) -> RepVector:
    """Representation of the dipole operator for the given polarization.

    Read from the table's field irreps along c, x (azimuth 0) and y
    (azimuth 90); any other in-plane field, and E perp c, holds both x
    and y.  No field line, an in-plane field without an azimuth and a
    non-finite azimuth are GroupErrors.
    """
    azimuth = pol.azimuth_deg
    if azimuth is not None and not math.isfinite(azimuth):
        raise GroupError(f"in-plane azimuth must be finite, got {azimuth}")
    if group.field is None:
        raise GroupError(f"table {group.name} has no field line, so no dipole")
    along_c, along_x, along_y = group.field
    if pol.kind is PolarizationKind.PARALLEL_C:
        return group.rep(along_c)
    if pol.kind is PolarizationKind.IN_PLANE_ANGLE:
        if azimuth is None:
            raise GroupError("an in-plane polarization needs an azimuth")
        axis = {0.0: along_x, 90.0: along_y}.get(azimuth % 180.0)
        if axis is not None:
            return group.rep(axis)
    if along_x == along_y:
        return group.rep(along_x)
    return _sum_rep(group.rep(along_x), group.rep(along_y))


def _sum_rep(a: RepVector, b: RepVector) -> RepVector:
    return _rep(a.group, tuple([
        GaussianRational(x.re + y.re, x.im + y.im) for x, y in zip(a.characters, b.characters)
    ]))


def _reaches(product: RepVector, *finals: str) -> bool:
    """True iff any of ``finals`` occurs in ``product`` (dipole x initial, x phonon if any)."""
    return any(map(decompose(product).__getitem__, finals))


def _pol_couples_to_axis(pol: Polarization, axis: DisplacementAxis) -> bool:
    if pol.kind is PolarizationKind.PARALLEL_C:
        return axis is DisplacementAxis.ALONG_C
    return axis is DisplacementAxis.IN_BASAL_PLANE


def direct_verdict(q: TransitionQuery) -> Verdict:
    """Verdict for a zero-phonon (resonant or emission) transition."""
    if q.phonon is not None:
        raise GroupError("direct_verdict requires a phonon-free query")
    dip = dipole_rep(q.group, q.polarization)
    allowed = _reaches(tensor_product(dip, q.group.rep(q.initial)), q.final)
    return Verdict(allowed, physical_coupling=True)


def phonon_assisted_verdict(
    q: TransitionQuery, policy: Policy = Policy.PHYSICAL_OVERRIDE
) -> Verdict:
    """Verdict for a phonon-assisted (non-resonant) transition.

    Physical coupling is demanded only when the same-polarization direct
    transition is itself forbidden: then the light must deliver its
    energy through the phonon, which requires the field to have a
    component along the phonon displacement.
    """
    if q.phonon is None:
        raise GroupError("phonon_assisted_verdict requires a phonon")
    reached = tensor_product(dipole_rep(q.group, q.polarization), q.group.rep(q.initial))
    return _phonon_rule(reached, q.final, q.polarization, q.phonon, policy)


def _phonon_rule(reached: RepVector, final: str, pol: Polarization, phonon: PhononMode,
                 policy: Policy, direct_allowed: bool | None = None) -> Verdict:
    """The phonon verdict from ``reached`` = dipole x initial.

    ``reached`` serves both the phonon product and the direct check; the
    latter is decomposed only when the physical policy needs it and the
    caller did not pass the same-polarization ``direct_allowed``.
    """
    allowed = _reaches(tensor_product(reached, reached.group.rep(phonon.irrep_label)), final)
    if policy is Policy.GROUP_THEORY_ONLY:
        return Verdict(allowed, physical_coupling=True)
    if direct_allowed is None:
        direct_allowed = _reaches(reached, final)
    coupling = direct_allowed or _pol_couples_to_axis(pol, phonon.displacement_axis)
    return Verdict(allowed, coupling)


class KramersLevel(enum.Enum):
    """Spin-projection class of a half-integer-spin sublevel."""

    HALF = "E1/2"          # |Sz| = 1/2
    THREE_HALF = "E3/2"    # |Sz| = 3/2, Kramers pair of 1-dim extras

    @property
    def sublevel_irreps(self) -> tuple[str, ...]:
        if self is KramersLevel.HALF:
            return ("E1/2",)
        return ("1E3/2", "2E3/2")


def kramers_verdict(
    initial: KramersLevel, final: KramersLevel, pol: Polarization
) -> Verdict:
    """Direct-transition verdict between Kramers levels in the double group.

    Each level expands into its sublevel irreps; the transition is
    allowed if any sublevel pair gives a nonzero matrix element.  The
    dipole is real for E par c and E perp c, so conjugating a sublevel
    pair conjugates its matrix element, and each level is closed under
    conjugation (E1/2 is real; 1E3/2 and 2E3/2 are a conjugate pair).
    So the initial level's first sublevel decides for its partner too.
    """
    if pol.kind is PolarizationKind.IN_PLANE_ANGLE:
        raise GroupError("kramers_verdict accepts only parallel/perpendicular polarization")
    group = builtin_group("C3v_double")
    reached = tensor_product(dipole_rep(group, pol), group.rep(initial.sublevel_irreps[0]))
    return Verdict(_reaches(reached, *final.sublevel_irreps), physical_coupling=True)


class DefectClass(enum.Enum):
    TRIPLET_AXIAL = "triplet-axial"          # VV / NV axial: 3A2 <-> 3E in C3v
    VSI_SINGLE_GROUP = "vsi-single-group"    # V_Si: 4A2 <-> 4A2 in C3v


_DEFECT_STATES = {
    DefectClass.TRIPLET_AXIAL: ("A2", "E"),
    DefectClass.VSI_SINGLE_GROUP: ("A2", "A2"),
}

PHONON_COLUMNS = ("A1", "A2", "E")


class SelectionTable(NamedTuple):
    """Two polarization rows by (ZPL, A1, A2, E) columns of verdicts."""

    defect_class: DefectClass
    policy: Policy
    rows: tuple[tuple[str, tuple[Verdict, ...]], ...]  # (row label, verdicts)

    def symbols(self) -> dict[str, tuple[str, ...]]:
        return {label: tuple(v.symbol for v in vs) for label, vs in self.rows}

    def to_text(self) -> str:
        header = ["polarization", "ZPL"] + list(PHONON_COLUMNS)
        out = ["\t".join(header)]
        for label, verdicts in self.rows:
            out.append("\t".join([label] + [v.symbol for v in verdicts]))
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "defect_class": self.defect_class.value,
            "policy": self.policy.value,
            "columns": ["ZPL"] + list(PHONON_COLUMNS),
            "rows": [
                {
                    "polarization": label,
                    "verdicts": [
                        {
                            "symbol": v.symbol,
                            "group_theory_allowed": v.group_theory_allowed,
                            "physical_coupling": v.physical_coupling,
                        }
                        for v in verdicts
                    ],
                }
                for label, verdicts in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def selection_table(
    defect_class: DefectClass, policy: Policy = Policy.PHYSICAL_OVERRIDE
) -> SelectionTable:
    """Regenerate the full verdict grid for one defect class.

    Row order is fixed (perpendicular first, then parallel) and columns
    run ZPL, A1-, A2-, E-phonon, so serialization is byte-stable.  Each
    entry is the verdict ``direct_verdict`` or ``phonon_assisted_verdict``
    gives for its query, but a row builds its dipole x initial once for
    its three phonon columns, and their direct check is the ZPL verdict.
    """
    group = builtin_group("C3v")
    initial, final = _DEFECT_STATES[defect_class]
    rows = []
    for row_label, pol in (
        ("E_perp_c", Polarization.perpendicular_c()),
        ("E_par_c", Polarization.parallel_c()),
    ):
        zpl = direct_verdict(TransitionQuery(group, initial, final, pol))
        reached = tensor_product(dipole_rep(group, pol), group.rep(initial))
        phonons = tuple(
            _phonon_rule(reached, final, pol, PhononMode.c3v(ph), policy,
                         zpl.group_theory_allowed)
            for ph in PHONON_COLUMNS
        )
        rows.append((row_label, (zpl,) + phonons))
    return SelectionTable(defect_class, policy, tuple(rows))
