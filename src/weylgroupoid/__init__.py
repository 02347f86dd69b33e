"""Exact-arithmetic root groupoid schemes and their Coxeter groupoids.

The package computes with generalized root systems whose reflections move
between several objects: root enumeration, groupoid elements through a
faithful integer-matrix representation, lengths and longest elements, and
the word problem for reduced words via braid-move rewriting.
"""

from .constructors import (
    NotArithmeticError,
    from_bicharacter,
    from_cartan,
    rank3_example,
    schemes_isomorphic,
)
from .groupoid import (
    MINUS_INFINITY,
    ZERO,
    GroupoidElement,
    Word,
    c_element,
    canonical_reduced_word,
    compose,
    element_of_word,
    enumerate_elements,
    generator_element,
    identity_element,
    inverse,
    is_descent,
    length,
    longest_element,
    word_target,
)
from .rewriting import (
    BraidMove,
    MoveChain,
    WeakExchangeFactorization,
    all_reduced_words,
    applicable_moves,
    apply_move,
    braid_connect,
    weak_exchange_factor,
)
from .roots import (
    InversionSet,
    generate_roots,
    inversion_set,
    rank_two_count,
    rank_two_positive_chain,
    reflect,
)
from .scheme import (
    FINITE,
    GENERATED,
    PRESCRIBED,
    TRUNCATED,
    InconsistentSchemeError,
    RootGroupoidScheme,
    SchemeFormatError,
    ValidationReport,
    act,
    act_word,
    load_scheme,
    restrict,
    save_scheme,
    strip_roots,
    theta,
    validate,
)

__version__ = "0.1.0"
