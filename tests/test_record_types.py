"""What every in-memory record keeps, however it is implemented.

Records are immutable, compare by their fields (a ``Spectrum`` or an
``AngularScan`` only by identity, so its arrays are never compared), survive a copy and a pickle,
and print as ``Name(field=value, ...)``.  ``GaussianRational`` is a scalar,
not a tuple, and a validated record runs its checks however it is built.
"""

import copy
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import sicpl
from sicpl.catalog import Catalog, CatalogError, Defect, Medium, Polytype, builtin_catalog
from sicpl.exact import ONE, GaussianRational
from sicpl.groups import Check, GroupError, builtin_group, decompose, tensor_product
from sicpl.selection import (
    DefectClass,
    PhononMode,
    Polarization,
    TransitionQuery,
    Verdict,
    selection_table,
)
from sicpl.spectrum import (
    AngularModel,
    AngularSample,
    AngularScan,
    LaserConfig,
    LineShapeParams,
    Spectrum,
    SpectrumError,
)

C3V = builtin_group("C3v")
PL1 = builtin_catalog().lookup(Polytype.FOUR_H, Defect.DIVACANCY, "PL1")
E_X_E = decompose(tensor_product(C3V.rep("E"), C3V.rep("E")))

# one record of each public type, with the field the test assigns to
RECORDS = [
    (GaussianRational(1, 2), "re"),
    (C3V.irreps[0], "label"),
    (C3V, "order"),
    (C3V.rep("E"), "characters"),
    (E_X_E, "counts"),
    (Check("dimension-sum", True), "passed"),
    (Polarization.parallel_c(), "kind"),
    (PhononMode.c3v("E"), "irrep_label"),
    (TransitionQuery(C3V, "A2", "E", Polarization.parallel_c()), "final"),
    (Verdict(True, False), "physical_coupling"),
    (selection_table(DefectClass.TRIPLET_AXIAL), "rows"),
    (Medium.air(), "refractive_index"),
    (PL1, "energy_mev"),
    (Catalog((PL1,)), "lines"),
    (LaserConfig(1200.0, 45.0), "polarizer_angle_deg"),
    (AngularModel(1.0, 0.5), "modulation"),
    (LineShapeParams(), "debye_waller"),
    (AngularSample(0.0, 1.0), "intensity"),
    (Spectrum(np.arange(3.0), np.ones(3), {"lines": "PL1"}), "metadata"),
    (AngularScan([0.0, 45.0], [1.0, 0.5]), "phi_deg"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, field", RECORDS, ids=IDS)
def test_assigning_a_field_raises_attribute_error(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("record, field", RECORDS, ids=IDS)
def test_copy_and_pickle_rebuild_the_record(record, field):
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        if isinstance(record, Spectrum):
            assert np.array_equal(clone.intensity, record.intensity)
            assert clone.metadata == record.metadata
        elif isinstance(record, AngularScan):
            assert np.array_equal(clone.phi_deg, record.phi_deg)
            assert np.array_equal(clone.intensity, record.intensity)
        else:
            assert clone == record and hash(clone) == hash(record)


def test_gaussian_rational_is_a_scalar_not_a_tuple():
    one = GaussianRational(1)
    assert one != (1, 0) and one == ONE
    with pytest.raises(TypeError):
        one < GaussianRational(2)
    with pytest.raises(TypeError):
        3 * one


def test_spectra_compare_by_identity():
    a = Spectrum(np.arange(3.0), np.ones(3))
    b = Spectrum(np.arange(3.0), np.ones(3))
    assert a == a and a != b
    assert a.metadata == {} and a.metadata is not b.metadata


def test_multiplicities_are_read_by_label():
    assert (E_X_E["A1"], E_X_E["A2"], E_X_E["E"]) == (1, 1, 1)
    assert E_X_E == decompose(tensor_product(C3V.rep("E"), C3V.rep("E")))


def test_repr_names_every_field():
    assert repr(Verdict(True, False)) == (
        "Verdict(group_theory_allowed=True, physical_coupling=False)"
    )
    assert repr(GaussianRational(1, -2)) == "GaussianRational(re=1, im=-2)"
    assert repr(Medium(1.5)) == "Medium(refractive_index=1.5)"


# (valid record, a field value it must reject, the error it raises)
INVALID = [
    (PL1, {"energy_mev": -1}, CatalogError),
    (Medium.air(), {"refractive_index": 0.5}, CatalogError),
    (C3V.rep("E"), {"characters": (ONE,)}, GroupError),
    (LaserConfig(1200.0, 45.0), {"polarizer_angle_deg": 180.0}, SpectrumError),
    (AngularModel(1.0, 0.5), {"modulation": 2.0}, SpectrumError),
    (LineShapeParams(), {"debye_waller": 0.0}, SpectrumError),
]


@pytest.mark.parametrize("record, bad, error", INVALID,
                         ids=[type(record).__name__ for record, _, _ in INVALID])
def test_validated_record_checks_every_way_it_is_built(record, bad, error):
    cls, fields = type(record), {**record._asdict(), **bad}
    builds = [lambda: cls(**fields), lambda: cls(*fields.values()),
              lambda: cls._make(fields.values()), lambda: record._replace(**bad)]
    for build in builds:
        with pytest.raises(error):
            build()


def test_every_class_with_a_check_is_tested_invalid():
    # a record without @checked fails the test above, one missing from INVALID fails here
    modules = [importlib.import_module(f"sicpl.{info.name}")
               for info in pkgutil.iter_modules(sicpl.__path__)]
    with_check = {cls for module in modules for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__.startswith("sicpl.")
                  and "_check" in vars(cls)}
    assert with_check == {type(record) for record, _, _ in INVALID}
