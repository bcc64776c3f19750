"""Limit-periodic potentials, their procyclic hulls, and spectral measurements."""

from .supernatural import INF, Supernatural, factorize, is_prime
from .frequency import (
    FrequencyChain,
    HullComparison,
    bohr_coefficient,
    chain_make,
    hulls_isomorphic,
    maximal_chain,
)
from .procyclic import (
    GeneratorCheck,
    MetricResult,
    ProcyclicElement,
    QuotientMap,
    is_generator,
    metric,
    orbit_residues,
    quotient,
)
from .potential import (
    GordonReport,
    NoisePotential,
    PeriodicLayer,
    Potential,
    SamplingFunction,
    gordon_check,
    iid_uniform_potential,
    metric_potential,
    periodic_potential,
    periodize,
    sampled_potential,
    sawtooth_potential,
    sawtooth_tail,
)
from .spectral import (
    BandSet,
    ConditionAReport,
    IDSCurve,
    SpectrumApprox,
    TransferState,
    bands,
    condition_a_check,
    discriminant,
    eigenvalue_count,
    hausdorff_dist,
    ids,
    ids_curve,
    log_holder_report,
    lyapunov_estimate,
    spectrum_approx,
    transfer_product,
)

__version__ = "0.1.0"
