"""Relativistic electron scattering off a rectangular potential step in a
magnetic field parallel to the beam.

Closed-form Landau-channel theory: spin-conserving and spin-flip
reflection/transmission amplitudes, regime classification, conserved
current budgets, infinite-step limits, assembled spinor wavefields, and
the anomalous-g spin-filter delay, with an independent
boundary-condition solver as a numerical oracle.

All quantities are dimensionless (mc^2 = c = hbar = 1): energies in
mc^2, momenta in mc, lengths in hbar/(mc), times in hbar/(mc^2); the
magnetic field enters through b = hbar*omega/(mc^2).
"""

from .errors import (
    ClosedChannel,
    EvanescentBranch,
    GridTooLarge,
    InvalidSpinIndex,
    KleinStepError,
    NegativeField,
    OscillatorRange,
    SingularMatrix,
    SingularStep,
)
from .landau import (
    MAX_OSCILLATOR_INDEX,
    eval_oscillator,
    momentum_left,
    momentum_right,
)
from .scattering import (
    BatchAmplitudes,
    CurrentBudget,
    ScatterAmplitudes,
    amplitudes,
    amplitudes_batch,
    current_budget,
    klein_limit,
    solve_boundary_batch,
    solve_boundary_system,
)
from .spinfilter import (
    G_ELECTRON,
    Branch,
    FilterSetup,
    arrival_delay,
    arrival_delay_first_order,
    split_momenta,
)
from .states import (
    ChannelParams,
    FieldStrength,
    IncomingState,
    Regime,
    Spin,
    classify,
    make_channel,
)
from .wavefield import (
    SpinorField,
    assemble_field,
    boundary_values,
    continuity_residual,
    integrated_current,
    load_grid,
    save_grid,
)

__version__ = "0.1.0"

__all__ = [
    "G_ELECTRON",
    "MAX_OSCILLATOR_INDEX",
    "Spin",
    "Regime",
    "FieldStrength",
    "IncomingState",
    "ChannelParams",
    "ScatterAmplitudes",
    "CurrentBudget",
    "BatchAmplitudes",
    "SpinorField",
    "FilterSetup",
    "Branch",
    "make_channel",
    "classify",
    "eval_oscillator",
    "momentum_left",
    "momentum_right",
    "amplitudes",
    "amplitudes_batch",
    "solve_boundary_system",
    "solve_boundary_batch",
    "current_budget",
    "klein_limit",
    "assemble_field",
    "boundary_values",
    "continuity_residual",
    "integrated_current",
    "save_grid",
    "load_grid",
    "split_momenta",
    "arrival_delay",
    "arrival_delay_first_order",
    "KleinStepError",
    "NegativeField",
    "InvalidSpinIndex",
    "ClosedChannel",
    "SingularStep",
    "SingularMatrix",
    "EvanescentBranch",
    "GridTooLarge",
    "OscillatorRange",
]
