"""flatlab: an exact desk-scale laboratory for deciding when group
localization functors preserve extensions, and when pulling an extension
back destroys that preservation.

Highlights
----------
- finite permutation groups and finitely generated abelian groups, all
  arithmetic exact;
- the functor cast: localizations L_f (variety reflections, nilpotent
  quotients and abelianization on a free source, nullifications,
  quasi-variety reflections) and subfunctors T_A, the subgroup generated
  by the images of all homs A -> G (the order-p-generated subgroup is
  T_(C_p));
- extensions, their pullbacks, three-flag flatness verdicts with element
  witnesses, exhaustive conditional-flatness probes, and a counterexample
  registry runnable from the command line (``flatlab reproduce``).
"""

from .abelian import (
    AbGroup,
    AbHom,
    IntMatrix,
    ab_cokernel,
    ab_from_invariants,
    ab_image,
    ab_kernel,
    ab_pullback,
    enumerate_ab_homs,
    n_torsion,
    perm_to_abelian,
    smith_normal_form,
)
from .caps import DEFAULT_CAPS, Caps
from .catalog import (
    alternating,
    catalog,
    cyclic,
    default_battery,
    dihedral,
    elementary_abelian,
    parse_group_literal,
    product,
    quaternion,
    symmetric,
    trivial_group,
)
from .errors import (
    CapExceededError,
    CatalogError,
    FlatlabError,
    FlavorMismatchError,
    InvalidHomomorphismError,
    NotAbelianError,
    NotASubgroupError,
    NotNormalError,
    NotSurjectiveError,
    RealizationError,
    ScenarioError,
    UnknownCaseError,
    UnsupportedFunctorError,
)
from .extensions import (
    CertifyReport,
    Extension,
    FlatnessReport,
    ProbeReport,
    certify_prop44,
    check_flatness,
    check_right_exactness,
    extension_from_normal_subgroup,
    extensions_from_group,
    induced_sequence,
    probe_conditional_flatness,
    pullback_along_localization,
    pullback_extension,
)
from .functors import (
    Abelianization,
    FunctorSpec,
    GeneratedSubfunctor,
    LocalityReport,
    Localization,
    LocalizedResult,
    NilpotentQuotient,
    Nullification,
    QuasiVarietyReflection,
    SpSubfunctor,
    TestMap,
    Variety,
    apply,
    idempotency_check,
    induce,
    is_acyclic,
    is_local_wrt,
    radical_subgroup,
    standard_quasi_c4_c2,
)
from .homs import enumerate_homs, hom_count, realize_presentation
from .perm import Permutation, parse_cycle_string
from .permgroup import (
    GroupHom,
    PermGroup,
    direct_product,
    find_isomorphism,
    is_isomorphic,
    is_normal,
    normal_closure,
    normal_subgroups,
    pullback_group,
    quotient,
)
from .verbal import (
    derived_subgroup,
    lower_central_series,
    verbal_subgroup,
)
from .words import Presentation, Word, parse_word

__version__ = "0.1.0"

# the application layer loads on first use (PEP 562): building groups and
# running sweeps never needs it
_LAZY = {
    "CaseReport": "registry",
    "case_ids": "registry",
    "reproduce": "registry",
    "Scenario": "scenario",
    "parse_scenario": "scenario",
    "run_scenario": "scenario",
    "SearchReport": "search",
    "search_counterexamples": "search",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module 'flatlab' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
