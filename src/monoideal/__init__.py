"""Word ideals from commutative monomial data.

Decides finite generation of the sorted-word ideal of a monomial antichain
and of the full abelianization preimage, searches for letter orderings
making the sorted-word ideal finite, solves acyclic T-orientation
problems, and handles inequality-presented ideals with polynomial-time
negative certificates.  Every fast decision procedure has a brute-force
referee in :mod:`monoideal.word_oracle` and :mod:`monoideal.crosscheck`.

Importing the package loads none of its modules: each exported name loads
its module on first use, so a process pays only for the modules it calls.
"""

import importlib

# The exported names, under their defining module.
_EXPORTS = {
    "core": (
        "Alphabet", "AlphabetMismatchError", "BudgetExceededError",
        "ExponentOverflowError", "Monomial", "MonoidealError", "NotAntichainError",
        "NotFinitelyGeneratedError", "Ordering", "ParseError", "UnitMonomialError",
        "Word", "antichain_reduce", "divides", "erase", "extremal_degree_max",
        "extremal_internal", "pi", "sigma", "sort_word", "support", "word_is_factor",
    ),
    "cool_orderings": (
        "CoolSearchResult", "all_orderings_cool", "find_cool_ordering", "helps",
        "is_cool", "quadratic_graph", "quadratic_to_support2",
        "square_free_total_degree_guard", "support_filter",
    ),
    "polyhedral": (
        "Certificate", "IneqSystem", "SatInstance", "convexity_check",
        "from_generators", "sat_reduction", "union", "verify_certificate",
    ),
    "preimage": (
        "PreimageWitness", "preimage_degree_bounds", "preimage_fg", "preimage_fg_pairs",
        "square_letters",
    ),
    "sorted_ideal": (
        "FgWitness", "eps_minimal_generators", "fg_generating_set",
        "generator_count_bound", "groebner_lift", "is_fg_sorted",
        "minimal_word_generators", "tight_family",
    ),
    "torientation": (
        "NaeInstance", "Orientation", "TGraph", "gadget3", "is_valid_t_orientation",
        "nae3sat_brute", "nae3sat_reduce", "ordering_to_orientation",
        "orientation_to_ordering", "t_orientation_search", "top_hat",
    ),
    "word_oracle": (
        "EnumerationReport", "enumerate_minimal_generators", "finiteness_probe",
        "word_in_preimage", "word_in_sorted_ideal",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
