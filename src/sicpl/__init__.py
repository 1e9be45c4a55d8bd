"""Point-group selection rules and polarized PL simulation for SiC colour centres."""

from .catalog import (
    Catalog,
    Defect,
    Geometry,
    Medium,
    Polytype,
    ZplLine,
    builtin_catalog,
    load_catalog,
    mev_to_nm,
    nm_to_mev,
)
from .groups import (
    Multiplicities,
    PointGroupTable,
    RepVector,
    builtin_group,
    decompose,
    load_table,
    tensor_product,
    verify_table,
)
from .selection import (
    DefectClass,
    KramersLevel,
    PhononMode,
    Polarization,
    Policy,
    TransitionQuery,
    Verdict,
    dipole_rep,
    direct_verdict,
    kramers_verdict,
    phonon_assisted_verdict,
    selection_table,
)
from .spectrum import (
    AngularModel,
    AngularSample,
    AngularScan,
    LaserConfig,
    LaserMode,
    LineShapeParams,
    ScanPlane,
    Spectrum,
    angular_scan,
    classify_geometry,
    debye_waller,
    ensemble_average,
    excitation_efficiency,
    excited_lines,
    fit_angular,
    synthesize_spectrum,
)

__version__ = "0.1.0"
