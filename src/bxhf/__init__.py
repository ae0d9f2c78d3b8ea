"""Blockchain-backed explainable predictions for multi-institution health data.

The pieces compose in layers: canonical value notation (`canon`), hashing
and sealing (`crypto`), the append-only transaction chain (`ledger`),
consent-gated record access (`access`), federated linear models with
directional plausibility constraints (`learning`), exact additive
attributions (`explain`), security scoring and the combined trust
objective (`trust`), and a deterministic end-to-end simulation with a CLI
(`scenario`, `harness`, `cli`).
"""

from .access import (
    AccessPolicy,
    ConsentRegistry,
    IntegrityAlarmError,
    UnknownRecordError,
    evaluate_access,
    gated_fetch,
    update_consent,
)
from .canon import (
    CanonicalizationError,
    NotationParseError,
    canonicalize,
    dumps,
    loads,
    parse,
)
from .crypto import (
    AuthenticationError,
    Commitment,
    KeyTable,
    SealedPayload,
    UnknownKeyError,
    ZERO_HASH,
    commit,
    digest,
    digest_value,
    seal,
    unseal,
)
from .explain import (
    Explanation,
    SubsetCapacityError,
    explain_linear,
    shapley_bruteforce,
)
from .harness import (
    SealedRecord,
    TamperTargetError,
    UnknownDecisionError,
    WorldState,
    build_scenario,
    load_world,
    run_workflow,
    save_world,
    score_world,
    tamper,
    verify_decision,
)
from .learning import (
    Dataset,
    DivergenceError,
    FeatureSpec,
    LinearModel,
    TrainConfig,
    WeightDelta,
    apply_delta,
    fed_avg,
    local_update,
    log_model_update,
    loss,
    mean_sign_violation,
    predict,
    train_constrained,
)
from .ledger import (
    Block,
    Ledger,
    LedgerOrderingError,
    LogicalClock,
    Transaction,
    TransactionValidationError,
    build_transaction,
    dump_ledger,
    load_ledger,
    verify_dump,
)
from .scenario import (
    ConfigError,
    ScenarioConfig,
    demo_profile,
    load_config,
    rare_disease_profile,
    validate_config,
)
from .trust import (
    SecurityReport,
    TrustReport,
    security_score,
    trust_objective,
    verify_record,
)

__version__ = "0.1.0"
