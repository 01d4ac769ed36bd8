"""Awareness-logic model checking, quotient-structure construction, and
translation verification."""

from .formula import (
    AilFormula,
    And,
    Atom,
    Aware,
    BoxIBox,
    HmsFormula,
    Implicit,
    Not,
    ParseError,
    Prop,
    PropFormula,
    ShapeError,
    a_condition,
    atoms_of,
    format_formula,
    parse_ail,
    parse_hms,
    parse_prop,
    translate,
)
from .model import (
    EpistemicModel,
    ModelError,
    Partition,
    awareness_partition,
    constant_awareness,
    load_model,
    model_from_dict,
    model_to_dict,
    reach_composed,
    sat_ail,
    sat_implicit_raw,
    validate,
    vocab_partition,
)
from .hms import (
    DEFAULT_VARIANT,
    VARIANTS,
    Event,
    HmsStructure,
    StateId,
    aware_event,
    event_and,
    event_atom,
    event_not,
    extension,
    implicit_event,
    sat_hms,
    truth_set,
    vocab_key,
)
from .transform import (
    TransformInapplicable,
    dump_transform,
    hms_transform,
    transform_summary,
    transform_to_dict,
)
from .harness import (
    Report,
    TrialConfig,
    check_eventhood,
    check_structure,
    check_truth_preservation,
    compare_variants,
    direct_truth_states,
    gen_formula,
    gen_model,
    run_suite,
    shrink_counterexample,
    trial_seed,
)
from . import fixtures

__version__ = "0.1.0"
