import itertools

import pytest

from sicpl.groups import GroupError, UnknownGroupError, builtin_group, decompose
from sicpl.selection import (
    DefectClass,
    DisplacementAxis,
    KramersLevel,
    PhononMode,
    Polarization,
    Policy,
    TransitionQuery,
    Verdict,
    VerdictValue,
    dipole_rep,
    direct_verdict,
    kramers_verdict,
    phonon_assisted_verdict,
    selection_table,
)

from oracles import kramers_allowed

PAR = Polarization.parallel_c()
PERP = Polarization.perpendicular_c()


class TestDipoleRep:
    def test_c3v(self):
        g = builtin_group("C3v")
        assert dipole_rep(g, PAR) == g.rep("A1")
        assert dipole_rep(g, PERP) == g.rep("E")
        # in-plane azimuth is meaningless under C3v; any angle maps to E
        assert dipole_rep(g, Polarization.in_plane(37.0)) == g.rep("E")

    def test_double_group_dipole_is_single_valued(self):
        g = builtin_group("C3v_double")
        assert dipole_rep(g, PAR) == g.rep("A1")
        assert dipole_rep(g, PERP) == g.rep("E")

    def test_c1h(self):
        g = builtin_group("C1h")
        assert dipole_rep(g, PAR) == g.rep("A'")
        generic = dipole_rep(g, PERP)
        assert decompose(generic).counts == {"A'": 1, "A''": 1}
        assert dipole_rep(g, Polarization.in_plane(0.0)) == g.rep("A'")
        assert dipole_rep(g, Polarization.in_plane(90.0)) == g.rep("A''")
        oblique = dipole_rep(g, Polarization.in_plane(45.0))
        assert decompose(oblique).counts == {"A'": 1, "A''": 1}

    @pytest.mark.parametrize("group", ["C3v", "C1h", "C3v_double"])
    @pytest.mark.parametrize("azimuth", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_azimuth_is_group_error(self, group, azimuth):
        # nan % 180 equals neither 0 nor 90, so C1h once read it as oblique
        g = builtin_group(group)
        pol = Polarization.in_plane(azimuth)
        with pytest.raises(GroupError, match="azimuth must be finite"):
            dipole_rep(g, pol)
        initial, final = g.irreps[0].label, g.irreps[-1].label
        with pytest.raises(GroupError, match="azimuth must be finite"):
            direct_verdict(TransitionQuery(g, initial, final, pol))


class TestPhononMode:
    def test_c3v_axes(self):
        assert PhononMode.c3v("A1").displacement_axis is DisplacementAxis.ALONG_C
        assert PhononMode.c3v("A2").displacement_axis is DisplacementAxis.ALONG_C
        assert PhononMode.c3v("E").displacement_axis is DisplacementAxis.IN_BASAL_PLANE

    def test_unknown(self):
        with pytest.raises(GroupError):
            PhononMode.c3v("T1")


class TestDirectVerdict:
    def test_triplet_axial(self):
        g = builtin_group("C3v")
        assert direct_verdict(TransitionQuery(g, "A2", "E", PERP)).symbol == "A"
        assert direct_verdict(TransitionQuery(g, "A2", "E", PAR)).symbol == "F"

    def test_vsi_single_group(self):
        g = builtin_group("C3v")
        assert direct_verdict(TransitionQuery(g, "A2", "A2", PAR)).symbol == "A"
        assert direct_verdict(TransitionQuery(g, "A2", "A2", PERP)).symbol == "F"

    def test_c1h_ground_state_transitions(self):
        g = builtin_group("C1h")
        # A'' ground state reaches the A''-split excited state with E par c
        assert direct_verdict(TransitionQuery(g, "A''", "A''", PAR)).symbol == "A"
        # and the A'-split one through the mirror-odd in-plane component
        assert direct_verdict(TransitionQuery(g, "A''", "A'", PERP)).symbol == "A"
        assert (
            direct_verdict(
                TransitionQuery(g, "A''", "A'", Polarization.in_plane(90.0))
            ).symbol
            == "A"
        )

    def test_c1h_every_pair_has_an_allowed_polarization(self):
        g = builtin_group("C1h")
        for i, f in itertools.product(g.irrep_labels(), repeat=2):
            verdicts = [
                direct_verdict(TransitionQuery(g, i, f, pol)) for pol in (PAR, PERP)
            ]
            assert any(v.symbol == "A" for v in verdicts)

    def test_rejects_phonon_query(self):
        g = builtin_group("C3v")
        q = TransitionQuery(g, "A2", "E", PAR, PhononMode.c3v("E"))
        with pytest.raises(GroupError):
            direct_verdict(q)


class TestPhononAssistedVerdict:
    def test_physically_forbidden_cell(self):
        g = builtin_group("C3v")
        q = TransitionQuery(g, "A2", "E", PAR, PhononMode.c3v("E"))
        v = phonon_assisted_verdict(q)
        assert v.value is VerdictValue.FORMALLY_ALLOWED_PHYSICALLY_FORBIDDEN
        assert v.group_theory_allowed and not v.physical_coupling

    def test_policy_switch_restores_formal_verdict(self):
        g = builtin_group("C3v")
        q = TransitionQuery(g, "A2", "E", PAR, PhononMode.c3v("E"))
        assert phonon_assisted_verdict(q, Policy.GROUP_THEORY_ONLY).symbol == "A"

    def test_perp_a1_phonon_allowed(self):
        g = builtin_group("C3v")
        q = TransitionQuery(g, "A2", "E", PERP, PhononMode.c3v("A1"))
        assert phonon_assisted_verdict(q).symbol == "A"

    def test_vsi_cells(self):
        g = builtin_group("C3v")
        q = TransitionQuery(g, "A2", "A2", PAR, PhononMode.c3v("A2"))
        assert phonon_assisted_verdict(q).symbol == "F"
        q = TransitionQuery(g, "A2", "A2", PERP, PhononMode.c3v("E"))
        assert phonon_assisted_verdict(q).symbol == "A"

    def test_requires_phonon(self):
        g = builtin_group("C3v")
        with pytest.raises(GroupError):
            phonon_assisted_verdict(TransitionQuery(g, "A2", "E", PAR))

    @pytest.mark.parametrize("policy", list(Policy))
    def test_unknown_phonon_label(self, policy):
        g = builtin_group("C1h")
        phonon = PhononMode("E", DisplacementAxis.IN_BASAL_PLANE)
        q = TransitionQuery(g, "A'", "A''", PAR, phonon)
        with pytest.raises(UnknownGroupError, match="group C1h has no irrep 'E'"):
            phonon_assisted_verdict(q, policy)


class TestVerdictConsistency:
    def test_flags_determine_value_exhaustively(self):
        # every C3v query: Verdict invariants hold and flags match value
        g = builtin_group("C3v")
        labels = g.irrep_labels()
        for i, f, pol in itertools.product(labels, labels, (PAR, PERP)):
            verdicts = [direct_verdict(TransitionQuery(g, i, f, pol))]
            for ph in labels:
                q = TransitionQuery(g, i, f, pol, PhononMode.c3v(ph))
                verdicts.append(phonon_assisted_verdict(q))
            for v in verdicts:
                assert (v.value is VerdictValue.FORBIDDEN) == (
                    not v.group_theory_allowed
                )
                assert (
                    v.value is VerdictValue.FORMALLY_ALLOWED_PHYSICALLY_FORBIDDEN
                ) == (v.group_theory_allowed and not v.physical_coupling)

    def test_initial_final_exchange_symmetry(self):
        # matrix-element hermiticity for real-character irreps
        for name in ("C3v", "C1h"):
            g = builtin_group(name)
            for i, f in itertools.product(g.irrep_labels(), repeat=2):
                for pol in (PAR, PERP):
                    fwd = direct_verdict(TransitionQuery(g, i, f, pol))
                    back = direct_verdict(TransitionQuery(g, f, i, pol))
                    assert fwd.group_theory_allowed == back.group_theory_allowed


class TestKramersVerdict:
    def test_half_half(self):
        assert kramers_verdict(KramersLevel.HALF, KramersLevel.HALF, PAR).symbol == "A"
        assert kramers_verdict(KramersLevel.HALF, KramersLevel.HALF, PERP).symbol == "A"

    def test_half_three_half(self):
        assert (
            kramers_verdict(KramersLevel.HALF, KramersLevel.THREE_HALF, PERP).symbol
            == "A"
        )
        assert (
            kramers_verdict(KramersLevel.HALF, KramersLevel.THREE_HALF, PAR).symbol
            == "F"
        )

    def test_three_half_three_half(self):
        assert (
            kramers_verdict(KramersLevel.THREE_HALF, KramersLevel.THREE_HALF, PAR).symbol
            == "A"
        )
        assert (
            kramers_verdict(
                KramersLevel.THREE_HALF, KramersLevel.THREE_HALF, PERP
            ).symbol
            == "F"
        )

    def test_every_pair_allowed_somewhere(self):
        levels = (KramersLevel.HALF, KramersLevel.THREE_HALF)
        for i, f in itertools.product(levels, repeat=2):
            assert any(
                kramers_verdict(i, f, pol).symbol == "A" for pol in (PAR, PERP)
            )

    def test_matches_su2_brute_force(self):
        name = {KramersLevel.HALF: "half", KramersLevel.THREE_HALF: "three_half"}
        levels = (KramersLevel.HALF, KramersLevel.THREE_HALF)
        for i, f in itertools.product(levels, repeat=2):
            for pol, parallel in ((PAR, True), (PERP, False)):
                engine = kramers_verdict(i, f, pol).group_theory_allowed
                oracle = kramers_allowed(name[i], name[f], parallel)
                assert engine == oracle

    def test_rejects_in_plane(self):
        with pytest.raises(GroupError):
            kramers_verdict(
                KramersLevel.HALF, KramersLevel.HALF, Polarization.in_plane(10.0)
            )


class TestSelectionTable:
    def test_triplet_axial_grid(self):
        table = selection_table(DefectClass.TRIPLET_AXIAL)
        assert table.symbols() == {
            "E_perp_c": ("A", "A", "A", "A"),
            "E_par_c": ("F", "F", "F", "A*"),
        }

    def test_vsi_grid(self):
        table = selection_table(DefectClass.VSI_SINGLE_GROUP)
        assert table.symbols() == {
            "E_perp_c": ("F", "F", "F", "A"),
            "E_par_c": ("A", "A", "F", "F"),
        }

    def test_text_serialization_is_stable(self):
        table = selection_table(DefectClass.TRIPLET_AXIAL)
        assert table.to_text() == (
            "polarization\tZPL\tA1\tA2\tE\n"
            "E_perp_c\tA\tA\tA\tA\n"
            "E_par_c\tF\tF\tF\tA*"
        )

    def test_json_serialization(self):
        import json

        payload = json.loads(selection_table(DefectClass.TRIPLET_AXIAL).to_json())
        assert payload["columns"] == ["ZPL", "A1", "A2", "E"]
        star = payload["rows"][1]["verdicts"][3]
        assert star["symbol"] == "A*"
        assert star["group_theory_allowed"] and not star["physical_coupling"]


class TestVerdictFlags:
    def test_from_flags(self):
        assert Verdict(False, True).value is VerdictValue.FORBIDDEN
        assert Verdict(True, True).value is VerdictValue.ALLOWED
        assert (
            Verdict(True, False).value
            is VerdictValue.FORMALLY_ALLOWED_PHYSICALLY_FORBIDDEN
        )
