import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl.groups import (
    BUILTIN_GROUPS,
    GroupError,
    RepVector,
    UnknownGroupError,
    builtin_group,
    decompose,
    load_table,
    tensor_product,
)
from sicpl.selection import (
    DefectClass,
    DisplacementAxis,
    KramersLevel,
    PhononMode,
    Polarization,
    PolarizationKind,
    Policy,
    TransitionQuery,
    Verdict,
    _reaches,
    dipole_rep,
    direct_verdict,
    kramers_verdict,
    phonon_assisted_verdict,
    selection_table,
)

from oracles import (
    c3v_matrices,
    class_character,
    conjugacy_classes,
    kramers_allowed,
    reduction_multiplicity,
    trivial_multiplicity,
)

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

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(BUILTIN_GROUPS),
           st.one_of(st.just(PAR), st.just(PERP),
                     st.floats(-1e6, 1e6, allow_nan=False).map(Polarization.in_plane)))
    def test_dipole_passes_the_public_check(self, group, pol):
        dipole = dipole_rep(builtin_group(group), pol)
        assert type(dipole) is RepVector
        assert RepVector(*dipole) == dipole

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


def _vector_matrices(name):
    """3x3 matrices on (x, y, c): the C3v plane matrices fix c; the C1h mirror is y -> -y."""
    if name == "C3v":
        return [np.block([[m, np.zeros((2, 1))], [np.zeros((1, 2)), np.ones((1, 1))]])
                for m in c3v_matrices()]
    return [np.eye(3), np.diag([1.0, -1.0, 1.0])]


def _float_counts(g, chars):
    return {ir.label: round(reduction_multiplicity(
        g.class_sizes, chars, [complex(c) for c in ir.characters], g.order).real)
        for ir in g.irreps}


# a C1h table under other names: the dipole follows its own field line
MIRROR_TEXT = """
group Mirror
order 2
class E 1
class s 1
irrep even 1 single 1 1
irrep odd 1 single 1 -1
field even even odd
"""


class TestFieldLine:
    @pytest.mark.parametrize("name", ["C3v", "C1h"])
    def test_field_is_the_vector_representation(self, name):
        g = builtin_group(name)
        mats = _vector_matrices(name)
        classes = sorted(conjugacy_classes(mats), key=len)
        assert tuple(len(c) for c in classes) == g.class_sizes
        vector = _float_counts(g, class_character(mats, classes, np.trace))
        # rep(C) plus the distinct in-plane irreps: A1 + E, 2A' + A''
        along_c, along_x, along_y = g.field
        expected = dict.fromkeys(g.irrep_labels(), 0)
        for label in (along_c, *{along_x, along_y}):
            expected[label] += 1
        assert vector == expected
        assert vector == {"C3v": {"A1": 1, "A2": 0, "E": 1},
                          "C1h": {"A'": 2, "A''": 1}}[name]
        along_c_chars = class_character(mats, classes, lambda m: m[2, 2])
        assert _float_counts(g, along_c_chars) == decompose(dipole_rep(g, PAR)).counts

    def test_c1h_in_plane_axes_are_the_x_and_y_components(self):
        g = builtin_group("C1h")
        mats = _vector_matrices("C1h")
        classes = [[0], [1]]
        for axis, azimuth in ((0, 0.0), (1, 90.0)):
            chars = class_character(mats, classes, lambda m: m[axis, axis])
            dipole = dipole_rep(g, Polarization.in_plane(azimuth))
            assert _float_counts(g, chars) == decompose(dipole).counts

    @pytest.mark.parametrize("azimuth", [0.0, 90.0, 37.0])
    def test_double_group_in_plane(self, azimuth):
        g = builtin_group("C3v_double")
        assert dipole_rep(g, Polarization.in_plane(azimuth)) == g.rep("E")

    def test_relabelled_table_reads_its_own_field(self):
        g = load_table(MIRROR_TEXT)
        assert dipole_rep(g, PAR) == g.rep("even")
        assert dipole_rep(g, Polarization.in_plane(0.0)) == g.rep("even")
        assert dipole_rep(g, Polarization.in_plane(90.0)) == g.rep("odd")
        assert decompose(dipole_rep(g, PERP)).counts == {"even": 1, "odd": 1}
        c1h = builtin_group("C1h")
        names = {"even": "A'", "odd": "A''"}
        for i, f, pol in itertools.product(names, names, POLARIZATIONS):
            assert direct_verdict(TransitionQuery(g, i, f, pol)) == direct_verdict(
                TransitionQuery(c1h, names[i], names[f], pol))

    def test_table_without_field_line_has_no_dipole(self):
        # named C3v, but really C1h: no dipole is read from the name
        g = load_table("group C3v\norder 2\nclass E 1\nclass s 1\n"
                       "irrep A1 1 single 1 1\nirrep E 1 single 1 -1\n")
        for pol in (PAR, PERP, Polarization.in_plane(37.0)):
            with pytest.raises(GroupError, match="table C3v has no field line"):
                dipole_rep(g, pol)
            with pytest.raises(GroupError, match="no field line"):
                direct_verdict(TransitionQuery(g, "A1", "E", pol))

    @pytest.mark.parametrize("name", BUILTIN_GROUPS)
    @pytest.mark.parametrize(
        "pol", [Polarization(PolarizationKind.IN_PLANE_ANGLE), Polarization.in_plane(None)])
    def test_in_plane_without_azimuth_is_group_error(self, name, pol):
        # it once read as azimuth 0, so C1h answered A'
        g = builtin_group(name)
        with pytest.raises(GroupError, match="in-plane polarization needs an azimuth"):
            dipole_rep(g, pol)
        initial, final = g.irreps[0].label, g.irreps[-1].label
        with pytest.raises(GroupError, match="needs an azimuth"):
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
        assert v.symbol == "A*"
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
        # every C3v query: Verdict invariants hold and flags match the symbol
        g = builtin_group("C3v")
        labels = g.irrep_labels()
        for i, f, pol in itertools.product(labels, labels, (PAR, PERP)):
            verdicts = [direct_verdict(TransitionQuery(g, i, f, pol))]
            for ph in labels:
                q = TransitionQuery(g, i, f, pol, PhononMode.c3v(ph))
                verdicts.append(phonon_assisted_verdict(q))
            for v in verdicts:
                assert (v.symbol == "F") == (not v.group_theory_allowed)
                assert (v.symbol == "A*") == (
                    v.group_theory_allowed and not v.physical_coupling
                )

    def test_initial_final_exchange_symmetry(self):
        # matrix-element hermiticity for real-character irreps
        for name in ("C3v", "C1h"):
            g = builtin_group(name)
            for i, f in itertools.product(g.irrep_labels(), repeat=2):
                for pol in (PAR, PERP):
                    fwd = direct_verdict(TransitionQuery(g, i, f, pol))
                    back = direct_verdict(TransitionQuery(g, f, i, pol))
                    assert fwd.group_theory_allowed == back.group_theory_allowed


# every dipole dipole_rep returns: in C1h E par c, E perp c, azimuth 0, 90 and oblique
POLARIZATIONS = (PAR, PERP, Polarization.in_plane(0.0), Polarization.in_plane(90.0),
                 Polarization.in_plane(37.0))


def _parent_allowed(g, initial, final, dipole, phonon=None):
    """The trivial-irrep form: conj(final) x [phonon] x dipole x initial contains it."""
    factors = [dipole.characters, g.rep(initial).characters]
    if phonon is not None:
        factors.append(g.rep(phonon).characters)
    return trivial_multiplicity(g.class_sizes, g.order, g.rep(final).characters, *factors) >= 1


def _float_allowed(g, initial, final, dipole, phonon=None):
    chars = [complex(a) * complex(b) for a, b in zip(dipole.characters, g.rep(initial).characters)]
    if phonon is not None:
        chars = [c * complex(p) for c, p in zip(chars, g.rep(phonon).characters)]
    finals = [complex(c) for c in g.rep(final).characters]
    return reduction_multiplicity(g.class_sizes, chars, finals, g.order).real > 0.5


class TestFinalInDipoleTimesInitial:
    """final in dipole x initial (x phonon) decides exactly what the trivial-irrep form did."""

    @pytest.mark.parametrize("name", BUILTIN_GROUPS)
    def test_every_query_matches_the_trivial_irrep_form(self, name):
        g = builtin_group(name)
        labels = g.irrep_labels()
        for initial, final, pol in itertools.product(labels, labels, POLARIZATIONS):
            dipole = dipole_rep(g, pol)
            direct = _parent_allowed(g, initial, final, dipole)
            assert direct == _float_allowed(g, initial, final, dipole)
            q = TransitionQuery(g, initial, final, pol)
            assert direct_verdict(q) == Verdict(direct, True)
            for label in labels:
                allowed = _parent_allowed(g, initial, final, dipole, label)
                assert allowed == _float_allowed(g, initial, final, dipole, label)
                phonons = ([PhononMode.c3v(label)] if name == "C3v"
                           else [PhononMode(label, axis) for axis in DisplacementAxis])
                for phonon in phonons:
                    q = TransitionQuery(g, initial, final, pol, phonon)
                    along_c = phonon.displacement_axis is DisplacementAxis.ALONG_C
                    couples = along_c == (pol.kind is PolarizationKind.PARALLEL_C)
                    assert phonon_assisted_verdict(q, Policy.GROUP_THEORY_ONLY) == Verdict(
                        allowed, True)
                    assert phonon_assisted_verdict(q) == Verdict(allowed, direct or couples)

    def test_kramers_matches_the_trivial_irrep_form(self):
        g = builtin_group("C3v_double")
        levels = list(KramersLevel)
        for i, f, pol in itertools.product(levels, levels, (PAR, PERP)):
            dipole = dipole_rep(g, pol)
            allowed = any(_parent_allowed(g, a, b, dipole)
                          for a in i.sublevel_irreps for b in f.sublevel_irreps)
            assert kramers_verdict(i, f, pol) == Verdict(allowed, True)


class TestUnknownStateLabel:
    MESSAGE = "group C3v has no irrep 'X' (valid: A1, A2, E)"

    @pytest.mark.parametrize("initial, final", [("X", "E"), ("A2", "X")],
                             ids=["initial", "final"])
    def test_direct_verdict(self, initial, final):
        q = TransitionQuery(builtin_group("C3v"), initial, final, PAR)
        with pytest.raises(UnknownGroupError) as excinfo:
            direct_verdict(q)
        assert str(excinfo.value) == self.MESSAGE

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("initial, final", [("X", "E"), ("A2", "X")],
                             ids=["initial", "final"])
    def test_phonon_assisted_verdict(self, initial, final, policy):
        q = TransitionQuery(builtin_group("C3v"), initial, final, PAR, PhononMode.c3v("E"))
        with pytest.raises(UnknownGroupError) as excinfo:
            phonon_assisted_verdict(q, policy)
        assert str(excinfo.value) == self.MESSAGE


@pytest.fixture
def selection_calls(monkeypatch):
    """Counts of the tensor_product and decompose calls made through selection."""
    import sicpl.selection as selection

    calls = {"tensor_product": 0, "decompose": 0}

    def counted(name):
        real = getattr(selection, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(selection, name, counted(name))
    return calls


@pytest.fixture
def check_calls(monkeypatch):
    """The number of RepVector._check calls made so far."""
    calls = [0]
    real = RepVector._check

    def counted(self):
        calls[0] += 1
        real(self)

    monkeypatch.setattr(RepVector, "_check", counted)
    return calls


class TestInternalVectorsSkipTheCheck:
    """Vectors built from a table's own characters are not checked again."""

    def test_panels(self, check_calls):
        for defect_class, policy in itertools.product(DefectClass, Policy):
            selection_table(defect_class, policy)
        assert check_calls == [0]

    def test_kramers_verdicts(self, check_calls):
        for initial, final, pol in itertools.product(KramersLevel, KramersLevel, (PAR, PERP)):
            kramers_verdict(initial, final, pol)
        assert check_calls == [0]

    @pytest.mark.parametrize("group", BUILTIN_GROUPS)
    def test_oblique_dipole_and_products(self, group, check_calls):
        g = builtin_group(group)
        dipole_rep(g, Polarization.in_plane(37.0))
        for a, b in itertools.product(g.irrep_labels(), repeat=2):
            decompose(tensor_product(g.rep(a), g.rep(b)))
        assert check_calls == [0]

    def test_public_constructor_checks_once(self, check_calls):
        g = builtin_group("C3v")
        RepVector(g, g.irreps[-1].characters)
        assert check_calls == [1]


class TestReaches:
    """_reaches(product, *finals): one decomposition, true iff any final occurs."""

    def test_any_of_several_finals(self, selection_calls):
        g = builtin_group("C3v")
        product = tensor_product(g.rep("E"), g.rep("A2"))  # = E
        assert _reaches(product, "A1", "E")
        assert _reaches(product, "E", "A1")
        assert not _reaches(product, "A1", "A2")
        assert selection_calls["decompose"] == 3

    def test_unknown_final_raises(self):
        g = builtin_group("C3v")
        with pytest.raises(UnknownGroupError, match=r"no irrep 'A3'"):
            _reaches(g.rep("A1"), "A3")


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

    def test_each_level_is_closed_under_conjugation(self):
        # why one initial sublevel decides: the dipole is real, and conjugation
        # maps each level's sublevels onto the same level's sublevels
        g = builtin_group("C3v_double")
        for pol in (PAR, PERP):
            assert all(c.im == 0 for c in dipole_rep(g, pol).characters)
        for level in KramersLevel:
            rows = {tuple((c.re, c.im) for c in g.rep(s).characters)
                    for s in level.sublevel_irreps}
            assert {tuple((re, -im) for re, im in row) for row in rows} == rows

    def test_one_product_and_decomposition_per_verdict(self, selection_calls):
        # the first initial sublevel decides for its conjugate partner
        for i, f, pol in itertools.product(KramersLevel, KramersLevel, (PAR, PERP)):
            selection_calls.update(tensor_product=0, decompose=0)
            kramers_verdict(i, f, pol)
            assert selection_calls == {"tensor_product": 1, "decompose": 1}, (i, f, pol)

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

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("defect_class", list(DefectClass))
    def test_every_entry_is_its_query_verdict(self, defect_class, policy):
        # the table shares each row's dipole x initial; its entries may not drift
        g = builtin_group("C3v")
        table = selection_table(defect_class, policy)
        initial, final = {DefectClass.TRIPLET_AXIAL: ("A2", "E"),
                          DefectClass.VSI_SINGLE_GROUP: ("A2", "A2")}[defect_class]
        pols = {"E_perp_c": PERP, "E_par_c": PAR}
        assert [label for label, _ in table.rows] == list(pols)
        for label, verdicts in table.rows:
            pol = pols[label]
            expected = [direct_verdict(TransitionQuery(g, initial, final, pol))] + [
                phonon_assisted_verdict(
                    TransitionQuery(g, initial, final, pol, PhononMode.c3v(ph)), policy)
                for ph in ("A1", "A2", "E")
            ]
            assert list(verdicts) == expected

    @pytest.mark.parametrize("policy", list(Policy))
    def test_panel_builds_each_row_product_once(self, policy, selection_calls):
        # per row: the ZPL verdict's product and decomposition, one shared
        # dipole x initial, and one product and decomposition per phonon
        calls = selection_calls
        for defect_class in DefectClass:
            calls.update(tensor_product=0, decompose=0)
            selection_table(defect_class, policy)
            assert calls == {"tensor_product": 10, "decompose": 8}

    def test_json_serialization(self):
        import json

        payload = json.loads(selection_table(DefectClass.TRIPLET_AXIAL).to_json())
        assert payload["columns"] == ["ZPL", "A1", "A2", "E"]
        star = payload["rows"][1]["verdicts"][3]
        assert star["symbol"] == "A*"
        assert star["group_theory_allowed"] and not star["physical_coupling"]


class TestVerdictFlags:
    def test_from_flags(self):
        assert Verdict(False, False).symbol == "F"
        assert Verdict(False, True).symbol == "F"
        assert Verdict(True, True).symbol == "A"
        assert Verdict(True, False).symbol == "A*"
