"""Cut-and-recombine splicing engine for graphs in pseudo-linear form.

Graphs live on integer positions along a line; cutting rules sever the
edges crossing a gap (or split a vertex), and splicing rejoins the
fragments of two graphs crosswise in every possible way.  The analysis
module checks the engine's structural laws exhaustively on small graphs,
and the language module iterates splicing into a bounded closure.
"""

from .analysis import (
    CycleCertificate,
    TheoremReport,
    check_bipartite_criterion,
    check_cycle_theorem,
    check_degree_balance,
    check_iso_splice,
    check_power_formula,
    check_splice_theorems,
    cycle_certificate,
    verify_all,
)
from .cutting import (
    CutResult,
    CuttingRule,
    Fragment,
    cut,
    power_by_formula,
    valid_rules,
)
from .errors import (
    CapExceededError,
    GraphSpliceError,
    InvalidGraphError,
    InvalidOrderingError,
    InvalidRuleError,
    JoinError,
    NotApplicableError,
    ParseError,
    SystemDefinitionError,
)
from .graphs import (
    DegreeProfile,
    Ordering,
    PlfGraph,
    canonical_form,
    complete,
    complete_bipartite,
    cycle,
    degree_profile,
    double_edge,
    enumerate_simple_graphs,
    has_cycle,
    is_bipartite,
    is_isomorphic,
    is_regular,
    is_simple,
    path,
    to_plf,
)
from .language import (
    ClassInfo,
    IterationTrace,
    LanguageConfig,
    LanguageResult,
    SplicingSystem,
    contains,
    language,
)
from .splicing import (
    SpliceProduct,
    SplicingRule,
    join,
    make_rule,
    sigma_pair,
)

__version__ = "0.1.0"

# the one implementation there is; benchmark records carry it
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "CapExceededError",
    "ClassInfo",
    "CutResult",
    "CuttingRule",
    "CycleCertificate",
    "DegreeProfile",
    "Fragment",
    "GraphSpliceError",
    "InvalidGraphError",
    "InvalidOrderingError",
    "InvalidRuleError",
    "IterationTrace",
    "JoinError",
    "LanguageConfig",
    "LanguageResult",
    "NotApplicableError",
    "Ordering",
    "ParseError",
    "PlfGraph",
    "SpliceProduct",
    "SplicingRule",
    "SplicingSystem",
    "SystemDefinitionError",
    "TheoremReport",
    "canonical_form",
    "check_bipartite_criterion",
    "check_cycle_theorem",
    "check_degree_balance",
    "check_iso_splice",
    "check_power_formula",
    "check_splice_theorems",
    "complete",
    "complete_bipartite",
    "contains",
    "cut",
    "cycle",
    "cycle_certificate",
    "degree_profile",
    "double_edge",
    "enumerate_simple_graphs",
    "has_cycle",
    "is_bipartite",
    "is_isomorphic",
    "is_regular",
    "is_simple",
    "join",
    "language",
    "make_rule",
    "path",
    "power_by_formula",
    "sigma_pair",
    "to_plf",
    "valid_rules",
    "verify_all",
    "__version__",
]
