"""Ambient backscatter communication over OFDM carriers.

Link-level simulator and analysis library for a backscatter tag riding a
legacy OFDM signal: matched-filter (CAMF) and impulse-filter (CUIF) tag
transmit filters, an EM-based joint channel-estimation-and-detection
receiver, genie and energy-detector baselines, closed-form BER analysis,
and a deterministic Monte Carlo sweep harness with a CLI.
"""

from .config import E_X, Scheme, SimParams
from .channel import (CirProfile, cir_to_freq, effective_gain, sample_cir,
                      sample_realization)
from .ofdm import Constellation, gen_frame, qam4
from .bd import backscatter_frame, sample_bits
from .receiver import (ReceivedSlot, em_e_step, em_m_step_unconstrained,
                       em_run, genie_detect, project_common_phase, receive,
                       threshold_sweep)
from .analysis import (LinkBudget, ber_cuif_closed, ber_cuif_conditional,
                       ber_unknown_symbols, q_function, theorem1_gap)
from .montecarlo import (BerCurve, BerPoint, draw_slot, run_slot, slot_rng,
                         sweep, trend_verdict)

__version__ = "0.1.0"
