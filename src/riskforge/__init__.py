"""riskforge: quantitative countermeasure selection over annotated risk graphs.

The library propagates frequencies and consequences through a risk graph under
any subset of countermeasures, builds per-risk decision diagrams, ranks global
countermeasure alternatives by overall cost, and validates every propagation
rule against a Monte Carlo history sampler.
"""

from .analysis import (
    DecisionDiagram,
    RiskState,
    applicable_countermeasures,
    build_decision_diagram,
    enumerate_states,
    export_csv,
    export_dot,
)
from .calculus import (
    Alternative,
    CalculusError,
    VertexResult,
    apply_countermeasures,
    combine_incoming,
    effective_effect,
    propagate,
    propagate_leadsto,
)
from .engine import CompiledModel
from .dsl import DslError, DslSemanticError, DslSyntaxError, SourceSpan, from_json, parse, serialize, to_json
from .intervals import Interval
from .model import (
    AcceptanceCriterion,
    Countermeasure,
    DependsRel,
    Diagnostic,
    Frequency,
    ImpactRel,
    InitiateRel,
    LeadsToRel,
    MergePolicy,
    Period,
    RiskModel,
    TreatsRel,
    Vertex,
    VertexKind,
    normalize,
    validate,
)
from .oracle import (
    History,
    TimedEvent,
    Verdict,
    check_rule,
    empirical_consequence,
    empirical_frequency,
    filter_events,
    generate_history,
    random_rule_instance,
    truncate,
)
from .synergy import (
    GlobalAlternative,
    Ranking,
    Recommendation,
    acceptable,
    export_ranking_csv,
    find_alternatives,
    overall_cost,
    recommend,
    risk_cost,
)

__version__ = "0.1.0"
