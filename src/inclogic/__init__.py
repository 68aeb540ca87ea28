"""Propositional and modal inclusion logic under team semantics.

A team is a set of propositional assignments or of Kripke worlds, evaluated
jointly.  The package provides the formula syntax, team structures,
brute-force reference semantics in lax and strict variants, a polynomial
lax checker, an exhaustive strict checker, validity procedures, and
executable hardness encodings with their source-problem oracles.
"""

from .errors import (
    ArityError,
    CircuitInvariantError,
    ForeignWorldError,
    FragmentError,
    InclogicError,
    NotEmincError,
    NotMlError,
    ParseError,
    PropCollisionError,
    SizeGuardError,
    UnboundPropError,
)
from .laxcheck import (
    Labelling,
    embed_prop_team,
    eminc_preprocess,
    lax_check,
    lax_check_prop,
    lax_labelling,
    maxsub,
    maxsub_prop,
)
from .oracle import (
    Semantics,
    eval_inclusion_prop,
    eval_ml_tarski,
    eval_pl_tarski,
    eval_team_modal,
    eval_team_prop,
    ml_truth_set,
)
from .reductions import (
    AND,
    INPUT,
    NONVALID,
    OR,
    DqbfInstance,
    Gate,
    MonotoneCircuit,
    SetSplitInstance,
    all_q_labels,
    canonical_models,
    dqbf_body,
    dqbf_canonical_sweep,
    dqbf_encode_nonvalidity,
    dqbf_oracle,
    dqbf_phi_cons,
    dqbf_phi_struc,
    evaluate_circuit,
    find_split,
    load_circuit,
    load_dqbf,
    load_setsplit,
    mcvp_encode,
    setsplit_encode,
    split_oracle,
)
from .strictcheck import SearchStats, strict_check, strict_check_prop
from .structures import (
    Assignment,
    KripkeModel,
    PropTeam,
    all_assignments,
    load_model,
    load_prop_team,
    load_world_team,
    model_to_json,
    prop_team_to_json,
    r_image,
    world_team_to_json,
)
from .syntax import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    Fragment,
    Inclusion,
    NegAtom,
    Or,
    box_power,
    conjoin,
    diamond_power,
    disjoin,
    extended_params,
    fold,
    fragment,
    fresh_props,
    modal_depth,
    nnf_negate,
    parse_formula,
    postorder,
    props,
    rebuild,
    render_formula,
    renumbered,
    sub_occurrences,
    substitute_params,
)
from .validity import (
    INVALID,
    UNKNOWN,
    VALID,
    Verdict,
    eminc_val_to_minc,
    inclusion_to_pl_singleton,
    minc_bounded_counterexample,
    pl_validity,
    plinc_strict_validity,
    plinc_to_pl,
)

__version__ = "0.1.0"
