"""shellab: lexicographic shellability of finite bounded posets.

The package implements, cross-verifies and searches the main notions of
lexicographic shellability: EL/CL/EC/CC/TCL labeling checkers, labelings
rebuilt from maximal chain orders, recursive first atom sets with their
induced shelling orders, recursive atom orderings, and a brute-force
order-complex shelling verifier.
"""

from .errors import (
    AmbiguousOrderError,
    AmbiguousRootError,
    BudgetExceededError,
    CycleDetectedError,
    EmptyIntervalError,
    EulerMismatchError,
    InvalidInputError,
    InvalidIntervalError,
    InvalidPosetError,
    InvalidRootError,
    MalformedCertificateError,
    MissingFirstAtomError,
    MissingLabelError,
    NoLcExtensionError,
    NotAnRfasError,
    NotAShellingError,
    NotBoundedError,
    NotTclError,
    RedundantCoverError,
    ShellabError,
    UnknownNameError,
)
from .poset import (
    Poset,
    build_poset,
    dual,
    is_graded,
    ordinal_sum,
    poset_from_json,
    poset_to_json,
    random_bounded_poset,
    to_dot,
)
from .chains import (
    RootTrie,
    interval_chains,
    maximal_chains,
    maximal_chains_rooted,
    rooted_cover_count,
    rooted_cover_relations,
    rooted_interval_count,
    rooted_intervals,
    root_trie,
    roots,
)
from .labeling import (
    CELabeling,
    LabelingReport,
    classify,
    descent_set,
    is_topological_ascent,
    label_sequence,
    labeling_from_json,
    labeling_to_json,
    lex_compare,
    lex_order_max_chains,
)
from .relabel import relabel_from_order, verify_block_structure, verify_label_bound
from .rfas import (
    ChainOrderDag,
    FirstAtomSet,
    chain_order_dag,
    check_lc,
    check_rfas,
    compatible_labeling,
    first_atom_chain,
    first_atom_set_from_json,
    first_atom_set_to_json,
    is_compatible,
    linear_extensions,
    pseudo_descents,
    restrict_first_atom_set,
    rfas_from_tcl,
    shelling_from_rfas,
)
from .shelling import (
    HomotopyReport,
    OrderComplex,
    ShellingResult,
    brute_force_shellable,
    complex_from_json,
    complex_to_json,
    descending_chains,
    homotopy_report,
    is_shelling,
    order_complex,
    restriction_map,
)
from .rao import (
    RaoTree,
    find_grao,
    find_rao,
    rao_pair_obstructions,
    verify_grao,
    verify_rao,
)
from . import corpus

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
