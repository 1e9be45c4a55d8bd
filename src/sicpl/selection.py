"""Transition verdicts from representation algebra.

The matrix-element criterion is: a dipole transition can be nonzero only
if conj(final) x dipole x initial (x phonon, when one assists) contains
the trivial representation.  On top of that sits a physical-coupling
rule: light cannot excite a phonon whose atomic displacements are
orthogonal to its electric field, which demotes one formally-allowed
entry of the axial-triplet table to "physically forbidden".
"""

from __future__ import annotations

import enum
import json
import math
from typing import NamedTuple

from .groups import (
    GroupError,
    PointGroupTable,
    RepVector,
    builtin_group,
    contains_trivial,
    tensor_product,
)


class PolarizationKind(enum.Enum):
    PARALLEL_C = "parallel_c"
    PERPENDICULAR_C = "perpendicular_c"
    IN_PLANE_ANGLE = "in_plane_angle"


class Polarization(NamedTuple):
    """Electric-field direction of the light relative to the crystal c-axis.

    ``in_plane(azimuth)`` measures the basal-plane angle from the defect
    mirror plane; it is meaningful only for C1h queries.
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


class VerdictValue(enum.Enum):
    ALLOWED = "A"
    FORBIDDEN = "F"
    FORMALLY_ALLOWED_PHYSICALLY_FORBIDDEN = "A*"


class Verdict(NamedTuple):
    """A transition verdict; its symbol follows from the two flags."""

    group_theory_allowed: bool
    physical_coupling: bool

    @property
    def value(self) -> VerdictValue:
        if not self.group_theory_allowed:
            return VerdictValue.FORBIDDEN
        if self.physical_coupling:
            return VerdictValue.ALLOWED
        return VerdictValue.FORMALLY_ALLOWED_PHYSICALLY_FORBIDDEN

    @property
    def symbol(self) -> str:
        return self.value.value


class Policy(enum.Enum):
    PHYSICAL_OVERRIDE = "physical"  # the default, so listed first
    GROUP_THEORY_ONLY = "group-theory-only"


def dipole_rep(group: PointGroupTable, pol: Polarization) -> RepVector:
    """Representation of the dipole operator for the given polarization.

    For the C1h basal geometry the mirror plane contains the c-axis and
    the defect axis, so the parallel-to-c field transforms as A'; a
    generic in-plane field spans A' + A''.  A non-finite azimuth is a
    GroupError in every group.
    """
    azimuth = pol.azimuth_deg or 0.0
    if not math.isfinite(azimuth):
        raise GroupError(f"in-plane azimuth must be finite, got {azimuth}")
    name = group.name
    if name in ("C3v", "C3v_double"):
        if pol.kind is PolarizationKind.PARALLEL_C:
            return group.rep("A1")
        # every in-plane direction is equivalent under C3v
        return group.rep("E")
    if name == "C1h":
        if pol.kind is PolarizationKind.PARALLEL_C:
            return group.rep("A'")
        if pol.kind is PolarizationKind.PERPENDICULAR_C:
            # unspecified azimuth: the full 2-dim in-plane vector rep
            return _sum_rep(group.rep("A'"), group.rep("A''"))
        azimuth %= 180.0
        if azimuth == 0.0:
            return group.rep("A'")
        if azimuth == 90.0:
            return group.rep("A''")
        # oblique in-plane field has components of both mirror parities
        return _sum_rep(group.rep("A'"), group.rep("A''"))
    raise GroupError(f"unsupported polarization/group combination: {name}, {pol.kind}")


def _sum_rep(a: RepVector, b: RepVector) -> RepVector:
    return RepVector(a.group, tuple(x + y for x, y in zip(a.characters, b.characters)))


def _matrix_element_allowed(
    group: PointGroupTable,
    initial: str,
    final: str,
    dipole: RepVector,
    phonon: PhononMode | None = None,
) -> bool:
    factors = [group.rep(final).conjugate(), dipole, group.rep(initial)]
    if phonon is not None:
        factors.insert(1, group.rep(phonon.irrep_label))
    return contains_trivial(tensor_product(*factors))


def _pol_couples_to_axis(pol: Polarization, axis: DisplacementAxis) -> bool:
    if pol.kind is PolarizationKind.PARALLEL_C:
        return axis is DisplacementAxis.ALONG_C
    return axis is DisplacementAxis.IN_BASAL_PLANE


def direct_verdict(q: TransitionQuery) -> Verdict:
    """Verdict for a zero-phonon (resonant or emission) transition."""
    if q.phonon is not None:
        raise GroupError("direct_verdict requires a phonon-free query")
    allowed = _matrix_element_allowed(
        q.group, q.initial, q.final, dipole_rep(q.group, q.polarization)
    )
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
    dip = dipole_rep(q.group, q.polarization)
    allowed = _matrix_element_allowed(q.group, q.initial, q.final, dip, q.phonon)
    if policy is Policy.GROUP_THEORY_ONLY:
        return Verdict(allowed, physical_coupling=True)
    direct_allowed = _matrix_element_allowed(q.group, q.initial, q.final, dip)
    coupling = direct_allowed or _pol_couples_to_axis(
        q.polarization, q.phonon.displacement_axis
    )
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
    allowed if any sublevel pair gives a nonzero matrix element.
    """
    if pol.kind is PolarizationKind.IN_PLANE_ANGLE:
        raise GroupError("kramers_verdict accepts only parallel/perpendicular polarization")
    group = builtin_group("C3v_double")
    dip = dipole_rep(group, pol)
    allowed = any(
        _matrix_element_allowed(group, i, f, dip)
        for i in initial.sublevel_irreps
        for f in final.sublevel_irreps
    )
    return Verdict(allowed, physical_coupling=True)


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
    run ZPL, A1-, A2-, E-phonon, so serialization is byte-stable.
    """
    group = builtin_group("C3v")
    initial, final = _DEFECT_STATES[defect_class]
    rows = []
    for row_label, pol in (
        ("E_perp_c", Polarization.perpendicular_c()),
        ("E_par_c", Polarization.parallel_c()),
    ):
        verdicts = [direct_verdict(TransitionQuery(group, initial, final, pol))]
        for ph in PHONON_COLUMNS:
            q = TransitionQuery(group, initial, final, pol, PhononMode.c3v(ph))
            verdicts.append(phonon_assisted_verdict(q, policy))
        rows.append((row_label, tuple(verdicts)))
    return SelectionTable(defect_class, policy, tuple(rows))
