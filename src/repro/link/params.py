"""Behavioural parameters of the link and the fault-injection knobs.

:class:`LinkParams` collects every quantity the behavioural loop
simulation needs.  The defaults are calibrated against the transistor-
level cells in :mod:`repro.circuits` (pump currents, VCDL delay curve,
window thresholds) at the paper's operating point: 1.2 V, 2.5 Gbps,
10-phase DLL.

Fault injection works by *perturbing* a copy of these parameters — the
mapping from structural netlist faults to parameter perturbations lives
in :mod:`repro.faults.behavior_map`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

#: paper operating point
DATA_RATE = 2.5e9
BIT_TIME = 1.0 / DATA_RATE
N_DLL_PHASES = 10
VDD = 1.2

#: window comparator thresholds on V_c (mission window)
V_WINDOW_LO = 0.45
V_WINDOW_HI = 0.75

#: charge pump (calibrated against repro.circuits.charge_pump)
I_PUMP_UP = 1.8e-6
I_PUMP_DN = 3.7e-6
I_PUMP_STRONG_SCALE = 8.0
C_LOOP = 1.6e-12

#: VCDL delay curve knots measured from repro.circuits.vcdl (seconds).
#: The span over the V_c window (0.45..0.75) is 58 ps — just over one
#: 40 ps DLL phase step, per the Section II design rule.
VCDL_KNOTS = ((0.45, 240e-12), (0.60, 196e-12), (0.75, 182e-12),
              (0.90, 176e-12))


@dataclass(frozen=True)
class KnotCurve:
    """Piecewise-linear curve through ``(v, d)`` knots, clamped at the ends.

    The one representation of a VCDL tuning curve: the measured default
    (:data:`default_vcdl_delay`) and the faulted two-knot curves the BIST
    tier characterises on the netlist.  Evaluation clamps at the end
    knots and otherwise interpolates ``d0 + f * (d1 - d0)`` on the *first*
    segment ``v0 <= vc <= v1`` that matches, so a value on an interior
    knot resolves through the segment below it.  Knot voltages must be
    strictly increasing.  The lockstep loop (:mod:`repro.synchronizer.
    batch`) evaluates the same arithmetic per lane; a lane whose curve is
    any other callable runs on the scalar loop.
    """

    knots: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(v), float(d)) for v, d in self.knots)
        if len(knots) < 2:
            raise ValueError("a knot curve needs at least two knots")
        if any(v1 <= v0 for (v0, _), (v1, _) in zip(knots, knots[1:])):
            raise ValueError("knot voltages must be strictly increasing")
        object.__setattr__(self, "knots", knots)

    def __call__(self, vc: float) -> float:
        knots = self.knots
        if vc <= knots[0][0]:
            return knots[0][1]
        if vc >= knots[-1][0]:
            return knots[-1][1]
        for (v0, d0), (v1, d1) in zip(knots, knots[1:]):
            if v0 <= vc <= v1:
                f = (vc - v0) / (v1 - v0)
                return d0 + f * (d1 - d0)
        return knots[-1][1]  # pragma: no cover - unreachable


#: piecewise-linear interpolation of the measured VCDL curve: clamped at
#: the knot ends, monotonically decreasing in ``vc``
default_vcdl_delay = KnotCurve(VCDL_KNOTS)


@dataclass
class LinkParams:
    """Everything the behavioural loop simulation consumes.

    The ``*_scale`` / ``*_stuck`` / ``*_dead`` fields are fault knobs;
    all default to the healthy value.
    """

    # operating point
    bit_time: float = BIT_TIME
    n_phases: int = N_DLL_PHASES
    vdd: float = VDD

    # fine loop
    v_window_lo: float = V_WINDOW_LO
    v_window_hi: float = V_WINDOW_HI
    i_up: float = I_PUMP_UP
    i_dn: float = I_PUMP_DN
    strong_scale: float = I_PUMP_STRONG_SCALE
    c_loop: float = C_LOOP
    vc_init: float = 0.60

    # VCDL
    vcdl_delay: Callable[[float], float] = field(default=default_vcdl_delay)

    # coarse loop
    divider_ratio: int = 16
    lock_detector_bits: int = 3

    # channel/eye (phases in seconds within one bit)
    eye_center: float = 0.5 * BIT_TIME
    eye_half_width: float = 0.35 * BIT_TIME
    #: sampled-amplitude model: opening at the centre, linear fall-off
    eye_amplitude: float = 30e-3

    # startup condition
    initial_phase_index: int = 0
    rx_clock_offset: float = 0.0   # phase of DLL tap 0 within the bit

    # ------------------------------------------------------------------
    # fault knobs
    # ------------------------------------------------------------------
    i_up_scale: float = 1.0
    i_dn_scale: float = 1.0
    strong_up_dead: bool = False
    strong_dn_dead: bool = False
    pd_stuck: Optional[str] = None          # None | "up" | "dn" | "quiet"
    window_hi_stuck: Optional[int] = None   # None | 0 | 1
    window_lo_stuck: Optional[int] = None
    vcdl_dead: bool = False
    vcdl_delay_offset: float = 0.0
    ring_counter_stuck: bool = False
    switch_matrix_dead_phase: Optional[int] = None
    divider_dead: bool = False
    vp_drift: float = 0.0                   # |V_p - V_c| in steady state [V]
    sampling_jitter_rms: float = 0.0        # extra jitter from V_p drift [s]
    leak_current: float = 0.0               # parasitic V_c leak [A]

    def healthy(self) -> "LinkParams":
        """Copy with every fault knob reset to its healthy default."""
        return replace(
            self, i_up_scale=1.0, i_dn_scale=1.0, strong_up_dead=False,
            strong_dn_dead=False, pd_stuck=None, window_hi_stuck=None,
            window_lo_stuck=None, vcdl_dead=False, vcdl_delay_offset=0.0,
            ring_counter_stuck=False, switch_matrix_dead_phase=None,
            divider_dead=False, vp_drift=0.0, sampling_jitter_rms=0.0,
            leak_current=0.0)

    def with_faults(self, **knobs) -> "LinkParams":
        """Copy with the given fault knobs applied."""
        return replace(self, **knobs)

    @property
    def phase_step(self) -> float:
        """One DLL phase step in seconds."""
        return self.bit_time / self.n_phases

    @property
    def lock_detector_max(self) -> int:
        """Saturation value of the lock-detector counter."""
        return (1 << self.lock_detector_bits) - 1
