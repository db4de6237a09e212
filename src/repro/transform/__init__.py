"""Correct-by-construction transformations on elastic netlists
(Sections 3.3 and 4): bubble insertion, buffer retiming, Shannon
decomposition (multiplexor retiming), early-evaluation conversion and
module sharing, plus the scripted exploration session of Section 5."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("replace_node", "splice_node", "TransformRecord"),
    ".bubbles": ("insert_bubble", "remove_empty_buffer", "insert_zbl_buffer"),
    ".retiming": ("retime_forward", "retime_backward"),
    ".shannon": ("shannon_decompose", "make_lazy_mux"),
    ".early_eval": ("convert_to_early_eval",),
    ".sharing": ("share_blocks",),
    ".session": ("Session",),
})
