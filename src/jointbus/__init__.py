"""Joint crosstalk-avoidance and error-correction coding for parallel buses."""

__version__ = "0.1.0"

from .buscore import (
    BusState,
    RunParse,
    ViolationReport,
    check_transition,
    fib,
    free_wires,
    parse_runs,
)
from .cac import (
    RunCodebook,
    cac_decode,
    cac_encode,
    cac_rate,
    count_codewords,
)
from .ira import (
    DegreeDistribution,
    IraGraph,
    ira_encode,
    rate_ldpc,
    recc_from_rldpc,
    sample_graph,
    validate_checks,
)
from .jointcode import (
    DminResult,
    EmbeddedCodeword,
    RateComparison,
    WireLayout,
    build_layout,
    compare_rates,
    decode_payload,
    dmin_bruteforce,
    dmin_witness,
    embedded_encode,
    payload_size,
    rate_embedded,
    rate_shielded,
    wires_needed,
)
from .bpdecode import (
    ERASED,
    DecodeResult,
    ErasureWord,
    FactorGraph,
    bp_decode,
    build_factor_graph,
)
from .densevo import (
    AsymptoticRate,
    CacDegreeDist,
    DeModel,
    DeState,
    asymptotic_cac_rate,
    de_step,
    de_threshold,
    de_trajectory,
    p_coeffs,
)
from .simkit import (
    CodeInstances,
    EnsembleSpec,
    ModifiedPastState,
    SimConfig,
    TrialStats,
    bec_transmit,
    build_instances,
    de_vs_simulation,
    gen_past_modified,
    gen_past_uniform,
    run_trials,
    trial_rng,
    wilson_interval,
)
