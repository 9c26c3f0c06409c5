"""torsflow exports the names each module lists in its own __all__; the
set of public names is pinned here."""
import inspect

import torsflow

PUBLIC = {
    "ACYCLIC_NOTE", "AmbiguousRankWarning", "AssumptionViolated", "BasedComplex", "BasisMismatch",
    "BlockCohomology", "BottModel", "CWComplex", "CriticalBlock", "DEFAULT_TOL", "FastPathUnavailable",
    "FilteredComplex", "GradientConnection", "IllegalConnection", "InvalidCW", "InvalidFiltration",
    "InvalidInput", "ModelOrderError", "MorsePoint", "NotAComplex", "NotExact", "Orbit", "Page", "ParseError",
    "RELATIVE_NOTE", "RankResult", "Representation", "SpectralResult", "TorsflowError", "TorsionError",
    "TorsionReport", "TorsionScalar", "assemble_complex", "assemble_d1", "assemble_d2", "block_cohomology",
    "circle", "cohomology_bases", "cohomology_dims", "complex_torsion", "cw_torsion", "det_modulus",
    "elementary_expansion", "ensure_valid", "expand_morse", "filtered_pages", "klein_bottle", "lens_space",
    "map_torsion", "page_two", "point", "range_basis", "rank_nullspace", "rp3", "ses_torsion",
    "shifted_complex", "singular_product", "torus", "total_torsion", "trivial_representation",
    "twisted_cochain", "validate_model",
}
MODULES = {"bott", "complexes", "cw", "errors", "linalg", "representation", "spectral"}


def test_public_names_are_pinned():
    names = {name for name in dir(torsflow) if not name.startswith("_")}
    assert {name for name in names if not inspect.ismodule(getattr(torsflow, name))} == PUBLIC
    assert MODULES <= names
    assert set(torsflow.__all__) == PUBLIC
    assert len(torsflow.__all__) == len(PUBLIC)
    assert torsflow.__version__ == "0.1.0"


def test_each_name_is_its_module_object():
    for name in MODULES:
        module = getattr(torsflow, name)
        for public in module.__all__:
            assert getattr(torsflow, public) is getattr(module, public), (name, public)
