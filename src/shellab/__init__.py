"""shellab: lexicographic shellability of finite bounded posets.

The package implements, cross-verifies and searches the main notions of
lexicographic shellability: EL/CL/EC/CC/TCL labelings, labelings
rebuilt from maximal chain orders, recursive first atom sets with their
induced shelling orders, recursive atom orderings, and a brute-force
order-complex shelling verifier.
"""

__version__ = "0.1.0"

# The public names of each module.  A module is imported when one of its
# names is first used (PEP 562), so `import shellab` loads no submodule.
_PUBLIC = {
    "errors": """AmbiguousOrderError AmbiguousRootError BudgetExceededError
        CycleDetectedError EmptyIntervalError EulerMismatchError InvalidInputError
        InvalidIntervalError InvalidPosetError InvalidRootError MalformedCertificateError
        MissingFirstAtomError MissingLabelError NoLcExtensionError NotAnRfasError
        NotAShellingError NotBoundedError NotTclError RedundantCoverError ShellabError
        UnknownNameError""",
    "poset": """Poset build_poset dual is_graded ordinal_sum poset_from_json poset_to_json
        random_bounded_poset to_dot""",
    "chains": """RootTrie interval_chains maximal_chains maximal_chains_rooted
        rooted_cover_count rooted_cover_relations rooted_interval_count rooted_intervals
        root_trie roots""",
    "labeling": """CELabeling LabelingReport classify descent_set is_topological_ascent
        label_sequence labeling_from_json labeling_to_json lex_compare lex_order_max_chains""",
    "relabel": "relabel_from_order verify_block_structure verify_label_bound",
    "rfas": """ChainOrderDag FirstAtomSet chain_order_dag check_lc check_rfas
        compatible_labeling first_atom_chain first_atom_set_from_json first_atom_set_to_json
        is_compatible linear_extensions pseudo_descents restrict_first_atom_set rfas_from_tcl
        shelling_from_rfas""",
    "shelling": """HomotopyReport OrderComplex ShellingResult brute_force_shellable
        complex_from_json complex_to_json descending_chains homotopy_report is_shelling
        order_complex restriction_map""",
    "rao": "RaoTree find_grao find_rao rao_pair_obstructions verify_grao verify_rao",
    "corpus": "",
}
# name -> the module that defines it; a module's own name maps to itself
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in [module, *names.split()]}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
