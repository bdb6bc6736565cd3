"""Finite-monoid recognition of regular languages, with the unary and
binary Schutzenberger products, quotient-closed Boolean algebras of
languages and their dual recognisers, and an equation-based membership
test for the sum of an algebra with the trivial one.

All language values are canonical minimal complete DFAs; two values
denote the same language exactly when they compare equal.
"""

from .errors import (
    InputError,
    LangrecError,
    PreconditionError,
    ResourceLimitError,
)
from .languages import (
    Alphabet,
    Dfa,
    Word,
    closure_ceiling,
    complement,
    concat,
    concat_decompose,
    difference,
    empty_language,
    epsilon_language,
    intersection,
    left_quotient,
    marked_concat,
    nonempty_universal,
    right_quotient,
    same_language,
    star,
    symmetric_difference,
    union,
    universal_language,
)
from .regexes import dfa_to_regex, parse_regex, regex_to_dfa, render_regex
from .monoids import (
    Biaction,
    FiniteMonoid,
    FiniteQuotient,
    MonoidMorphism,
    all_morphisms,
    enumerate_monoids,
    enumerate_semigroups,
    is_minimal_recogniser,
    joint_quotient,
    morphism_preserves_actions,
    regular_biaction,
    syntactic_monoid,
)
from .marking import (
    ExtendedAlphabet,
    MarkedWord,
    exists_projection,
    left_act,
    marked_words,
    one_mark_language,
    prefix_to_mark,
    replace_at_mark,
    right_act,
    strip_mark,
    suffix_after_mark,
    tag_marked,
    tag_unmarked,
)
from .algebra import (
    LanguageAlgebra,
    algebra_leq,
    check_dual_well_defined,
    dual_recogniser,
    generate_algebra,
    inverse_image,
    recognised_algebra,
    schutz_sum,
    transport,
    trivial_algebra,
)
from .schutz import (
    BinarySchutz,
    HitClopen,
    LocalSchutz,
    UnarySchutz,
    exists_language,
    exists_letter_images,
    exists_profile,
    local_schutz_morphism,
    marked_split_set,
    recognises_exists,
    split_language,
    split_letter_images,
)
from .equations import (
    EquationInstance,
    FactorizationClass,
    UltrafilterApprox,
    bsum2_membership_by_equations,
    bsum2_membership_direct,
    bsum2_quotient,
    equation_set,
    factorizations,
    in_equation_set,
    prefix_classes,
    satisfies_equation,
    separation_witness,
)

from types import ModuleType as _ModuleType

# the public names bound above; importing them also binds each submodule
# here (``langrec.algebra``), and those are not exports
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
