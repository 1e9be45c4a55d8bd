import itertools
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicpl.exact import GaussianRational, parse_scalar
from sicpl.groups import (
    BUILTIN_GROUPS,
    Check,
    GroupError,
    GroupMismatchError,
    Irrep,
    InvalidRepresentationError,
    Multiplicities,
    PointGroupTable,
    RepVector,
    TableFormatError,
    UnknownGroupError,
    builtin_group,
    decompose,
    load_table,
    tensor_product,
    verify_table,
)

from oracles import (
    c3v_matrices,
    class_character,
    conjugacy_classes,
    orthogonality,
    reduction_multiplicity,
    su2_double_group,
)


def char_row(group, label):
    return [complex(c) for c in group.irrep(label).characters]


class TestScalars:
    def test_parse_round_trip(self):
        for text in ["0", "1", "-1", "2", "i", "-i", "2i", "1+i", "1-2i"]:
            value = parse_scalar(text)
            assert parse_scalar(str(value)) == value

    def test_conjugation(self):
        z = parse_scalar("1+2i")
        assert z.conjugate() == parse_scalar("1-2i")
        assert z.conjugate().conjugate() == z

    def test_arithmetic_is_exact(self):
        assert parse_scalar("1+2i") * parse_scalar("1-2i") == GaussianRational(5)

    def test_malformed(self):
        for bad in ["", "x", "ii", "1..2", "1/2", "-3/2"]:
            with pytest.raises(ValueError):
                parse_scalar(bad)


class TestBuiltinTables:
    def test_c3v_shape(self):
        g = builtin_group("C3v")
        assert g.order == 6
        assert g.n_classes == 3
        assert [ir.dim for ir in g.irreps] == [1, 1, 2]
        assert g.irrep_labels() == ("A1", "A2", "E")
        assert g.class_sizes == (1, 2, 3)

    def test_c1h_shape(self):
        g = builtin_group("C1h")
        assert g.order == 2
        assert char_row(g, "A'") == [1, 1]
        assert char_row(g, "A''") == [1, -1]

    def test_double_group_shape(self):
        g = builtin_group("C3v_double")
        assert g.order == 12
        assert g.n_classes == 6
        assert sum(ir.dim ** 2 for ir in g.irreps) == 12
        extras = [ir for ir in g.irreps if ir.kind == "extra"]
        assert [ir.label for ir in extras] == ["E1/2", "1E3/2", "2E3/2"]
        assert [ir.dim for ir in extras] == [2, 1, 1]
        # the one-dimensional extras carry +/-i on the reflection classes
        assert char_row(g, "1E3/2")[4:] == [1j, -1j]
        assert char_row(g, "2E3/2")[4:] == [-1j, 1j]

    def test_all_builtins_verify(self):
        for name in BUILTIN_GROUPS:
            failures = [c for c in verify_table(builtin_group(name)) if not c.passed]
            assert failures == []

    def test_trivial_irrep_labels(self):
        assert builtin_group("C3v").trivial_irrep.label == "A1"
        assert builtin_group("C1h").trivial_irrep.label == "A'"

    def test_unknown_group(self):
        with pytest.raises(UnknownGroupError):
            builtin_group("D6h")

    def test_unknown_irrep_lists_valid_labels(self):
        with pytest.raises(UnknownGroupError, match="A1, A2, E"):
            builtin_group("C3v").irrep("T2")


class TestVerifyTable:
    def test_corrupted_character_fails_row_orthogonality(self):
        g = builtin_group("C3v")
        bad_e = Irrep("E", 2, "single", tuple(GaussianRational(v) for v in (2, 0, 0)))
        bad = PointGroupTable(
            g.name, g.order, g.class_labels, g.class_sizes, (g.irreps[0], g.irreps[1], bad_e)
        )
        report = {c.name: c.passed for c in verify_table(bad)}
        assert not report["row-orthogonality"]

    def test_dimension_sum_reported_for_double_group(self):
        checks = verify_table(builtin_group("C3v_double"))
        dim_check = next(c for c in checks if c.name == "dimension-sum")
        assert dim_check.passed
        assert "12" in dim_check.detail

    def test_norm_of_every_irrep_row(self):
        # sum_c n_c |chi(c)|^2 = |G| for each irrep of each builtin
        for name in BUILTIN_GROUPS:
            g = builtin_group(name)
            for ir in g.irreps:
                acc = sum(
                    n * abs(complex(c)) ** 2
                    for n, c in zip(g.class_sizes, ir.characters)
                )
                assert acc == pytest.approx(g.order)


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_orthogonality_verdicts_match_gram_oracle(self, data):
        # classes (identity kept first) and irreps reordered, one character replaced
        g = builtin_group(data.draw(st.sampled_from(BUILTIN_GROUPS)))
        rest = data.draw(st.permutations(range(1, g.n_classes)))
        cols = [0, *rest]
        irreps = data.draw(st.permutations(g.irreps))
        rows = [[ir.characters[c] for c in cols] for ir in irreps]
        k = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(0, len(cols) - 1))
        rows[k][c] = data.draw(st.sampled_from(
            [GaussianRational(re, im) for re, im in
             [(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1)]]
        ))
        sizes = tuple(g.class_sizes[c] for c in cols)
        table = PointGroupTable(
            g.name, g.order, tuple(g.class_labels[c] for c in cols), sizes,
            tuple(ir._replace(characters=tuple(row)) for ir, row in zip(irreps, rows)),
        )
        report = {check.name: check.passed for check in verify_table(table)}
        expected = orthogonality(sizes, [[complex(x) for x in row] for row in rows], g.order)
        assert (report["row-orthogonality"], report["column-orthogonality"]) == expected

    @pytest.mark.parametrize(
        "name, field, detail",
        [
            # passed every check once, and gave an oblique in-plane field the dipole A2 + E
            ("C3v", ("A1", "A2", "E"), "field irreps span 4 dimensions, not 3"),
            ("C3v", ("A1", "E"), "field names 3 irreps (along c, x, y), got 2"),
            ("C3v", ("A1", "T1", "E"), "field irrep 'T1' is not in the table"),
            ("C3v_double", ("A1", "E1/2", "E1/2"),
             "field irreps must be single-valued, not 'extra'"),
            ("C3v", None, ""),
            ("C1h", ("A'", "A'", "A''"), ""),
        ],
    )
    def test_field_is_verified(self, name, field, detail):
        table = builtin_group(name)._replace(field=field)
        report = {c.name: c for c in verify_table(table)}
        assert report["field"] == Check("field", not detail, detail)

    @pytest.mark.parametrize("characters", [(2, -1), ()], ids=["short", "empty"])
    def test_missing_characters_are_reported_not_raised(self, characters):
        g = builtin_group("C3v")
        a1, a2, e = g.irreps
        short_e = e._replace(characters=tuple(GaussianRational(c) for c in characters))
        report = {c.name: c.passed for c in verify_table(g._replace(irreps=(a1, a2, short_e)))}
        assert not report["character-count[E]"] and not report["column-orthogonality"]
        assert report["character-count[A1]"] and report["character-count[A2]"]
        assert report["identity-character[E]"] == bool(characters)


class TestTensorProduct:
    def test_exe_xa2(self):
        g = builtin_group("C3v")
        rep = tensor_product(g.rep("E"), g.rep("E"), g.rep("A2"))
        assert decompose(rep).counts == {"A1": 1, "A2": 1, "E": 1}

    def test_exa1xa2(self):
        g = builtin_group("C3v")
        rep = tensor_product(g.rep("E"), g.rep("A1"), g.rep("A2"))
        assert decompose(rep).counts == {"A1": 0, "A2": 0, "E": 1}

    def test_a2_exa1xa2(self):
        g = builtin_group("C3v")
        rep = tensor_product(g.rep("A2"), g.rep("E"), g.rep("A1"), g.rep("A2"))
        assert decompose(rep).counts == {"A1": 0, "A2": 0, "E": 1}

    def test_trivial_identity(self):
        for name in BUILTIN_GROUPS:
            g = builtin_group(name)
            trivial = g.rep(g.trivial_irrep.label)
            for label in g.irrep_labels():
                assert tensor_product(trivial, g.rep(label)) == g.rep(label)

    def test_commutative_and_associative(self):
        g = builtin_group("C3v_double")
        reps = [g.rep(label) for label in g.irrep_labels()]
        for a, b in itertools.product(reps, repeat=2):
            assert tensor_product(a, b) == tensor_product(b, a)
        for a, b, c in itertools.product(reps[:4], repeat=3):
            assert tensor_product(tensor_product(a, b), c) == tensor_product(
                a, tensor_product(b, c)
            )

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            tensor_product(builtin_group("C3v").rep("E"), builtin_group("C1h").rep("A'"))


class TestUncheckedVectors:
    """rep and tensor_product build RepVectors without re-checking them."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(BUILTIN_GROUPS).flatmap(lambda name: st.tuples(
        st.just(name), st.lists(st.sampled_from(builtin_group(name).irrep_labels()),
                                min_size=2, max_size=6))))
    def test_vectors_pass_the_public_check(self, group_and_labels):
        name, labels = group_and_labels
        g = builtin_group(name)
        reps = [g.rep(label) for label in labels]
        for v in reps + [tensor_product(*reps)]:
            assert type(v) is RepVector
            assert RepVector(*v) == v

    def test_short_irrep_of_an_unverified_table_raises(self):
        g = builtin_group("C3v")
        a1, a2, e = g.irreps
        table = g._replace(irreps=(a1, a2, e._replace(characters=e.characters[:2])))
        with pytest.raises(GroupError) as excinfo:
            table.rep("E")
        assert type(excinfo.value) is GroupError
        assert str(excinfo.value) == "character vector has 2 entries, group C3v has 3 classes"

    @pytest.mark.parametrize("other", [builtin_group("C1h"),
                                       builtin_group("C3v")._replace(field=None)],
                             ids=["C1h", "C3v-without-field"])
    def test_product_across_two_tables_raises(self, other):
        g = builtin_group("C3v")
        with pytest.raises(GroupMismatchError):
            tensor_product(g.rep(g.irreps[-1].label), other.rep(other.irreps[-1].label))


class TestDecompose:
    def test_irrep_decomposes_to_itself(self):
        for name in BUILTIN_GROUPS:
            g = builtin_group(name)
            for label in g.irrep_labels():
                counts = decompose(g.rep(label)).counts
                assert counts[label] == 1
                assert sum(counts.values()) == 1

    def test_displacement_rep_via_matrix_oracle(self):
        # 3-dim vector rep of C3v: 2x2 in-plane action plus invariant z
        mats = c3v_matrices()
        classes = conjugacy_classes(mats)
        chars = class_character(mats, classes, lambda m: np.trace(m) + 1.0)
        # identity-first ordering
        classes, chars = zip(*sorted(zip(classes, chars), key=lambda p: len(p[0])))
        assert [round(c.real if hasattr(c, "real") else c) for c in chars] == [3, 0, 1]
        g = builtin_group("C3v")
        rep = RepVector(g, tuple(GaussianRational(v) for v in (3, 0, 1)))
        assert decompose(rep).counts == {"A1": 1, "A2": 0, "E": 1}

    def test_invalid_rep_raises(self):
        g = builtin_group("C3v")
        rep = RepVector(g, tuple(GaussianRational(v) for v in (1, 1, 0)))
        with pytest.raises(InvalidRepresentationError):
            decompose(rep)

    def test_negative_multiplicity_raises(self):
        # (0, 0, 2) is A1 - A2: integral counts, one of them negative
        rep = RepVector(builtin_group("C3v"), tuple(GaussianRational(v) for v in (0, 0, 2)))
        with pytest.raises(InvalidRepresentationError, match="A2"):
            decompose(rep)

    def test_imaginary_multiplicity_raises(self):
        # (2, 2i) reduces to A' = 1+i and A'' = 1-i; a reduction that
        # dropped the imaginary part would return A' + A''
        rep = RepVector(builtin_group("C1h"), (GaussianRational(2), GaussianRational(0, 2)))
        with pytest.raises(InvalidRepresentationError):
            decompose(rep)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_class_function_reduces_like_float_oracle(self, data):
        # a Gaussian-integer combination of irreps, perhaps with one character
        # shifted; the first irrep whose float multiplicity is not a
        # non-negative integer names the error, with the exact sum
        g = builtin_group(data.draw(st.sampled_from(BUILTIN_GROUPS)))
        values = [0, 1, -1, 2, 1j, -1j, 1 + 1j]
        chars = [0j] * g.n_classes
        for ir in g.irreps:
            coeff = data.draw(st.sampled_from(values))
            chars = [x + coeff * y for x, y in zip(chars, char_row(g, ir.label))]
        if data.draw(st.booleans()):
            chars[data.draw(st.integers(0, g.n_classes - 1))] += data.draw(st.sampled_from(values))
        parts = [(round(x.real), round(x.imag)) for x in chars]
        rep = RepVector(g, tuple(GaussianRational(re, im) for re, im in parts))
        expected = {}
        for ir in g.irreps:
            m = reduction_multiplicity(g.class_sizes, chars, char_row(g, ir.label), g.order)
            acc = GaussianRational(round(m.real * g.order), round(m.imag * g.order))
            if abs(m - round(m.real)) > 1e-9 or round(m.real) < 0:
                message = f"multiplicity of {ir.label} is ({acc})/{g.order}, not"
                with pytest.raises(InvalidRepresentationError, match=re.escape(message)):
                    decompose(rep)
                return
            expected[ir.label] = round(m.real)
        assert decompose(rep).counts == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_products_match_float_oracle(self, data):
        g = builtin_group(data.draw(st.sampled_from(BUILTIN_GROUPS)))
        labels = data.draw(st.lists(st.sampled_from(g.irrep_labels()), min_size=2, max_size=6))
        rep = tensor_product(*(g.rep(label) for label in labels))
        chars = [complex(c) for c in rep.characters]
        expected = {}
        for ir in g.irreps:
            m = reduction_multiplicity(g.class_sizes, chars, char_row(g, ir.label), g.order)
            assert abs(m - round(m.real)) < 1e-9
            expected[ir.label] = round(m.real)
        assert decompose(rep).counts == expected

    def test_product_dimension_bookkeeping(self):
        for name in BUILTIN_GROUPS:
            g = builtin_group(name)
            for a, b in itertools.product(g.irreps, repeat=2):
                rep = tensor_product(g.rep(a.label), g.rep(b.label))
                chars = [complex(c) for c in rep.characters]
                expected = {
                    ir.label: round(reduction_multiplicity(
                        g.class_sizes, chars, char_row(g, ir.label), g.order
                    ).real)
                    for ir in g.irreps
                }
                assert decompose(rep).counts == expected


class TestMultiplicities:
    def test_label_outside_the_group_is_unknown(self):
        g = builtin_group("C3v")
        mult = decompose(tensor_product(g.rep("E"), g.rep("E")))
        with pytest.raises(UnknownGroupError, match=r"no irrep 'A3' \(valid: A1, A2, E\)"):
            mult["A3"]

    def test_label_of_the_group_missing_from_counts_reads_zero(self):
        g = builtin_group("C3v")
        mult = Multiplicities(g, {"E": 1})
        assert (mult["A1"], mult["A2"], mult["E"]) == (0, 0, 1)


class TestConjugate:
    def test_kramers_pair(self):
        g = builtin_group("C3v_double")
        for a, b in zip(g.rep("1E3/2").characters, g.rep("2E3/2").characters):
            assert (a.re, a.im) == (b.re, -b.im)

    def test_real_characters_fixed(self):
        # a real irrep is its own conjugate: no character has an imaginary part
        c3v, c1h = builtin_group("C3v"), builtin_group("C1h")
        for rep in (c3v.rep("E"), c1h.rep("A'"), builtin_group("C3v_double").rep("E1/2")):
            assert all(c.im == 0 for c in rep.characters)

    def test_kramers_pair_sum_is_real(self):
        g = builtin_group("C3v_double")
        summed = [
            a + b
            for a, b in zip(g.rep("1E3/2").characters, g.rep("2E3/2").characters)
        ]
        assert all(c.im == 0 for c in summed)


class TestMatrixGroupOracle:
    """The builtin C3v table against the explicit 6-matrix group."""

    def test_classes_and_sizes(self):
        classes = conjugacy_classes(c3v_matrices())
        assert sorted(len(c) for c in classes) == [1, 2, 3]

    def test_characters_match_and_are_irreducible(self):
        mats = c3v_matrices()
        classes = sorted(conjugacy_classes(mats), key=len)
        sizes = [len(c) for c in classes]
        trivial = class_character(mats, classes, lambda m: 1.0)
        sign = class_character(mats, classes, np.linalg.det)
        planar = class_character(mats, classes, np.trace)
        g = builtin_group("C3v")
        assert g.class_sizes == tuple(sizes)
        oracle_rows = {"A1": trivial, "A2": sign, "E": planar}
        for label, oracle in oracle_rows.items():
            assert [complex(v) for v in oracle] == pytest.approx(char_row(g, label))
        # numeric orthogonality and unit norms confirm irreducibility
        for la, ra in oracle_rows.items():
            for lb, rb in oracle_rows.items():
                inner = reduction_multiplicity(sizes, ra, rb, 6)
                assert inner == pytest.approx(1.0 if la == lb else 0.0, abs=1e-9)

    def test_su2_lift_reproduces_e_half_characters(self):
        elements = su2_double_group()
        traces = sorted(round(float(np.real(el["chi_half"])), 6) for el in elements)
        # class multiplicities: 3 sigma_v and 3 sigma_v*R give trace 0, etc.
        assert traces == sorted([2, -2, 1, 1, -1, -1, 0, 0, 0, 0, 0, 0])
        g = builtin_group("C3v_double")
        expected = char_row(g, "E1/2")
        # representative per class: E, R, C3, C3R, sv, svR
        reps = [2, -2, 1, -1, 0, 0]
        assert expected == reps


class TestTableFormat:
    def test_round_trip_of_builtin_text(self):
        text = """
        group C3v
        order 6
        class E 1
        class 2C3 2
        class 3sv 3
        irrep A1 1 single 1 1 1
        irrep A2 1 single 1 1 -1
        irrep E 2 single 2 -1 0
        field A1 E E
        """
        table = load_table(text)
        assert table == builtin_group("C3v")

    def test_invalid_table_rejected_at_load(self):
        text = """
        group Broken
        order 6
        class E 1
        class 2C3 2
        class 3sv 3
        irrep A1 1 single 1 1 1
        irrep A2 1 single 1 1 -1
        irrep E 2 single 2 0 0
        """
        with pytest.raises(GroupError, match="row-orthogonality"):
            load_table(text)

    def test_syntax_error_reports_line(self):
        with pytest.raises(GroupError):
            load_table("group X\norder 2\nclass E 1\nirrep A 1 single one\n")

    C3V_LINES = [
        "group C3v", "order 6", "class E 1", "class 2C3 2", "class 3sv 3",
        "irrep A1 1 single 1 1 1", "irrep A2 1 single 1 1 -1", "irrep E 2 single 2 -1 0",
    ]

    @pytest.mark.parametrize(
        "lineno, bad",
        [
            (2, "order 0"),
            (4, "class 2C3 0"),
            (8, "irrep E 0 single 2 -1 0"),
            (8, "irrep E 2 single 2 1/0 0"),
            (8, "irrep E 2 single 2 -1"),
            (8, "irrep E 2 single 2 -1/2 0"),
            (7, "irrep A2 1 single 1 1 -1e0"),
            (4, "class 2C3"),
            (6, "irrep A1 1 bogus 1 1 1"),
        ],
    )
    def test_bad_field_is_table_format_error_at_its_line(self, lineno, bad):
        lines = list(self.C3V_LINES)
        lines[lineno - 1] = bad
        with pytest.raises(TableFormatError, match=f"table: line {lineno}: "):
            load_table("\n".join(lines))

    def test_repeated_irrep_label_is_table_format_error_at_its_line(self):
        # two irreps labelled A: decompose of the regular rep (2, 0) would
        # count one A while direct_sum_str printed "A + A"
        lines = ["group C1h", "order 2", "class E 1", "class s 1",
                 "irrep A 1 single 1 1", "irrep A 1 single 1 -1"]
        with pytest.raises(TableFormatError, match="table: line 6: .*'A'"):
            load_table("\n".join(lines))

    def test_zero_class_size_fails_verification_without_raising(self):
        broken = builtin_group("C3v")._replace(class_sizes=(1, 0, 3))
        failed = {c.name for c in verify_table(broken) if not c.passed}
        assert {"class-size-sum", "column-orthogonality"} <= failed

    @pytest.mark.parametrize(
        "sizes, details",
        [
            ((1, 0, 3), {
                "class-size-sum": "sum of class sizes 4 vs order 6",
                "row-orthogonality": "<E,E> = 4, expected 6",
                "column-orthogonality": "columns 2C3,2C3: 0 x 3, expected 6",
            }),
            ((1, -2, 3), {
                "class-size-sum": "sum of class sizes 2 vs order 6",
                "row-orthogonality": "<E,E> = 2, expected 6",
                "column-orthogonality": "columns 2C3,2C3: -2 x 3, expected 6",
            }),
        ],
        ids=["zero", "negative"],
    )
    def test_bad_class_size_details_are_pinned(self, sizes, details):
        broken = builtin_group("C3v")._replace(class_sizes=sizes)
        assert {c.name: c.detail for c in verify_table(broken) if not c.passed} == details

    @pytest.mark.parametrize(
        "lines, message",
        [
            # an all-zero extra irrep: only the rows see it
            (C3V_LINES + ["irrep Z 1 single 0 0 0"],
             "table C3v failed verification: dimension-sum: sum of squared dims 7 vs order 6; "
             "class-count: 4 irreps vs 3 classes; identity-character[Z]: chi(E)=0 vs dim 1; "
             "row-orthogonality: <Z,Z> = 0, expected 6"),
            # A2 missing: the rows stay orthogonal, the columns do not
            (C3V_LINES[:6] + C3V_LINES[7:],
             "table C3v failed verification: dimension-sum: sum of squared dims 5 vs order 6; "
             "class-count: 2 irreps vs 3 classes; "
             "column-orthogonality: columns 3sv,3sv: 3 x 1, expected 6"),
        ],
        ids=["row-only", "column"],
    )
    def test_verification_message_is_pinned(self, lines, message):
        with pytest.raises(GroupError) as info:
            load_table("\n".join(lines))
        assert str(info.value) == message

    def test_last_of_several_failing_pairs_is_reported(self):
        # one character of 1E3/2 changed from i to 1 breaks many pairs; the last is named
        text = resources.files("sicpl.data").joinpath("c3v_double.grp").read_text()
        text = text.replace("irrep 1E3/2 1 extra 1 -1 -1 1 i -i",
                            "irrep 1E3/2 1 extra 1 -1 -1 1 1 -i")
        with pytest.raises(GroupError) as info:
            load_table(text)
        assert str(info.value) == (
            "table C3v_double failed verification: "
            "row-orthogonality: <2E3/2,1E3/2> = 3-3i, expected 0; "
            "column-orthogonality: columns 3svR,3sv: 3 x 1-i, expected 0"
        )

    def test_malformed_scalar_is_table_format_error_at_its_line(self):
        lines = list(self.C3V_LINES)
        lines[6] = "irrep A2 1 single 1 1 i2"
        with pytest.raises(TableFormatError, match="table: line 7: malformed scalar 'i2'"):
            load_table("\n".join(lines))

    @pytest.mark.parametrize("repeat", ["group C1h", "order 6", "field A1 E E"])
    def test_repeated_single_keyword_is_table_format_error_at_the_repeat(self, repeat):
        # the last line once won silently: a second group line renamed the table
        lines = self.C3V_LINES + ["field A1 E E", repeat]
        keyword = repeat.split()[0]
        with pytest.raises(TableFormatError, match=f"table: line 10: '{keyword}' line is repeated"):
            load_table("\n".join(lines))

    def test_field_line_is_read(self):
        lines = self.C3V_LINES[:2] + ["field A1 E E"] + self.C3V_LINES[2:]
        assert load_table("\n".join(lines)).field == ("A1", "E", "E")
        assert load_table("\n".join(self.C3V_LINES)).field is None

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("field A1 E", "field names 3 irreps"),
            ("field A1 E E E", "field names 3 irreps"),
            ("field A1 T1 E", "field irrep 'T1' is not in the table"),
            ("field A1 A2 E", "field irreps span 4 dimensions, not 3"),
            ("field A1 A2 A2", "field irreps span 2 dimensions, not 3"),
            ("field E E E", "field irreps span 4 dimensions, not 3"),
        ],
    )
    def test_bad_field_line_is_table_format_error_at_its_line(self, bad, message):
        # the labels are checked after the irreps are read, yet located at line 3
        lines = self.C3V_LINES[:2] + [bad] + self.C3V_LINES[2:]
        with pytest.raises(TableFormatError, match=f"table: line 3: {message}"):
            load_table("\n".join(lines))

    def test_extra_field_irrep_is_table_format_error_at_its_line(self):
        # a light field is single-valued: an E1/2 field once gave A2 -> E1/2 "allowed"
        text = resources.files("sicpl.data").joinpath("c3v_double.grp").read_text()
        lines = text.replace("field A1 E E", "field A1 E1/2 E1/2").splitlines()
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith("field"))
        with pytest.raises(TableFormatError,
                           match=f"table: line {lineno}: field irreps must be single-valued"):
            load_table("\n".join(lines))
