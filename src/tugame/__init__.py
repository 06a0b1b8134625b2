"""Exact solution concepts for transferable-utility games.

Games hold their full characteristic function as reduced int pairs, one
per coalition, and hand out `fractions.Fraction` worths. Every computation
is exact: the Gately point with its uniqueness gate, the equal propensity
to disrupt, the tau-value, and the ACA cost-allocation method, plus the
normalizations that connect them and a brute-force grid oracle for
verification.
"""

from .bounds import minimal_rights, remainder, utopia_payoffs
from .costs import (
    AcaResult,
    AcaStatus,
    aca_allocation,
    nonseparable_cost,
    savings_game,
    separable_costs,
)
from .errors import (
    AtLowerBoundError,
    BadCoalitionKeyError,
    BadNumberError,
    BelowLowerBoundError,
    DigitLimitError,
    DuplicateCoalitionError,
    GameError,
    GameFormatError,
    GenerationFailedError,
    MissingCoalitionError,
    NotEfficientError,
    NotEssentialError,
    PlayerCountError,
    PlayerNotInCoalitionError,
    PlayerOutOfRangeError,
    TooManyPlayersError,
)
from .game import (
    MAX_PLAYERS,
    CostGame,
    TUGame,
    as_mask,
    coalition_key,
    coalition_members,
    mask_from_key,
    nonempty_coalitions,
    to_fraction,
)
from .gamefile import parse_game, serialize_game
from .gately import (
    GatelyResult,
    GatelyStatus,
    equal_propensity,
    gately_point,
    propensity_to_disrupt,
)
from .oracle import (
    DefinitionReport,
    GridSearchReport,
    generate_cost_game,
    generate_game,
    grid_minmax_propensity,
    recompute_by_definition,
)
from .properties import (
    GameClassification,
    classify,
    is_essential,
    is_inessential,
    is_quasibalanced,
    is_superadditive,
    is_weakly_constant_sum,
    is_weakly_superadditive,
)
from .tau import TauResult, TauStatus, tau_value
from .transforms import scale_shift, zero_normalize, zero_one_normalize

__version__ = "0.1.0"

__all__ = [
    "MAX_PLAYERS",
    "TUGame",
    "CostGame",
    "as_mask",
    "coalition_key",
    "coalition_members",
    "mask_from_key",
    "nonempty_coalitions",
    "to_fraction",
    "parse_game",
    "serialize_game",
    "utopia_payoffs",
    "remainder",
    "minimal_rights",
    "GameClassification",
    "classify",
    "is_essential",
    "is_inessential",
    "is_weakly_superadditive",
    "is_superadditive",
    "is_weakly_constant_sum",
    "is_quasibalanced",
    "GatelyStatus",
    "GatelyResult",
    "propensity_to_disrupt",
    "equal_propensity",
    "gately_point",
    "TauStatus",
    "TauResult",
    "tau_value",
    "AcaStatus",
    "AcaResult",
    "separable_costs",
    "nonseparable_cost",
    "aca_allocation",
    "savings_game",
    "scale_shift",
    "zero_normalize",
    "zero_one_normalize",
    "GridSearchReport",
    "grid_minmax_propensity",
    "DefinitionReport",
    "recompute_by_definition",
    "generate_game",
    "generate_cost_game",
    "GameError",
    "PlayerCountError",
    "PlayerOutOfRangeError",
    "MissingCoalitionError",
    "DuplicateCoalitionError",
    "GameFormatError",
    "BadCoalitionKeyError",
    "BadNumberError",
    "DigitLimitError",
    "NotEssentialError",
    "NotEfficientError",
    "AtLowerBoundError",
    "BelowLowerBoundError",
    "PlayerNotInCoalitionError",
    "TooManyPlayersError",
    "GenerationFailedError",
    "__version__",
]
