"""Box-ball systems and the tableau machinery that analyzes them.

The insertion tableau of a state's color word is conserved by the time
evolution, and the recording tableau of the box labels evolves on its
own by a carrier sweep; this package implements the states, one time
step as a carrier pass along the slot word (the step backwards is its
mirror image), and the word/tableau toolkit they rest on, with
brute-force oracles and a CLI on top.
"""

from .bbs import (
    CapacityProfile,
    Carrier,
    LabelSequence,
    State,
    UNIT_CAPACITY,
    biword_to_state,
    box_label_sequence,
    box_label_step,
    carrier_pass,
    carrier_step,
    evolve,
    label_carrier,
    mirror,
    p_symbol,
    q_evolve,
    q_symbol,
    reduce_advanced_to_standard,
    reduce_generalized_to_advanced,
    reverse_step,
    slot_word,
    state_to_biword,
)
from .notation import StateParseError, parse_state, render_state, render_trajectory
from .rsk import (
    BiWord,
    dual,
    inverse_rsk,
    make_biword,
    matrix_of,
    render_biword,
    transpose,
)
from .tableau import (
    InvariantError,
    Shape,
    Tableau,
    Word,
    as_word,
    knuth_equivalent,
    render_tableau,
    shape,
    tab,
    word_of,
)

__all__ = [
    "BiWord",
    "CapacityProfile",
    "Carrier",
    "InvariantError",
    "LabelSequence",
    "Shape",
    "State",
    "StateParseError",
    "Tableau",
    "UNIT_CAPACITY",
    "Word",
    "as_word",
    "biword_to_state",
    "box_label_sequence",
    "box_label_step",
    "carrier_pass",
    "carrier_step",
    "dual",
    "evolve",
    "inverse_rsk",
    "knuth_equivalent",
    "label_carrier",
    "make_biword",
    "matrix_of",
    "mirror",
    "p_symbol",
    "parse_state",
    "q_evolve",
    "q_symbol",
    "reduce_advanced_to_standard",
    "reduce_generalized_to_advanced",
    "render_biword",
    "render_state",
    "render_tableau",
    "render_trajectory",
    "reverse_step",
    "shape",
    "slot_word",
    "state_to_biword",
    "tab",
    "transpose",
    "word_of",
]
