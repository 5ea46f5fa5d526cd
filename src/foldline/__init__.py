"""foldline: exact piecewise-linear parametrization machinery.

Semifield-generic transition maps between reduced-word parametrizations,
Dynkin diagram folding with unfolding of decorated words, embedded
move-by-move certificates for the rank-two closed form, and the tropical
monoid on natural coordinates with its crystal operators and
exponent-scaling endomorphisms.
"""

from .cartan import (
    CartanDatum,
    DiagramAutomorphism,
    FoldedDatum,
    builtin,
    fold,
    h_value,
    identity_automorphism,
    validate_automorphism,
    validate_datum,
)
from .chamber import (
    DecoratedWord,
    apply_move,
    canonical,
    decorated,
    is_sigma_fixed,
    lambda_coord,
    rho_coord,
    sigma_action,
    transition,
)
from .errors import (
    DatumError,
    FoldingError,
    FoldlineError,
    MonoidError,
    SemifieldError,
    UsageError,
    WordError,
)
from .folding import (
    FoldedDecoratedWord,
    b2_closed_form,
    b2_tropical,
    compare_models,
    fold_coordinates,
    folded_canonical,
    folded_decorated,
    folded_transition,
    lambda_folded,
    rho_folded,
    s_map,
    standard_folding,
    unfold,
    verify_chain,
)
from .monoid import (
    MonoidElement,
    MonoidGenerator,
    folded_mul,
    frobenius,
    left_mul_gen,
    mul,
    normal_form,
    sigma_monoid,
)
from .semifield import (
    MODELS,
    RATIONALS,
    TROP_INT,
    TROP_NAT,
    PosRational,
    SemifieldValue,
    SymbolicSemifield,
    SymRat,
    TropInt,
    TropNat,
    model_by_name,
    sym_equal,
)
from .weyl import (
    Word,
    WordGraph,
    base_word,
    braid_neighbors,
    enumerate_reduced_words,
    orbit_longest,
    reduced_word_for_w0_starting_with,
    word_for_w0,
)

__version__ = "0.1.0"
