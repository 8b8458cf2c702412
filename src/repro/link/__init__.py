"""Behavioural mixed-signal link blocks and their digital fabric."""

from .alexander_pd import AlexanderPD, scan_frequency_verdict, wrap_phase
from .cdc import ClockDomainCrossing
from .charge_pump_beh import ChargePumpBeh
from .control_fsm import CoarseFSM, RECENTER_MARGIN
from .divider import Divider
from .dll import DLL
from .lock_detector import LockDetector, build_lock_detector
from .params import (
    BIT_TIME,
    DATA_RATE,
    KnotCurve,
    LinkParams,
    N_DLL_PHASES,
    VDD,
    default_vcdl_delay,
)
from .prbs import PRBS, transition_density
from .ring_counter import RingCounterBeh, build_ring_counter
from .switch_matrix import SwitchMatrix
from .transmitter import TransmitterDigitalPorts, build_transmitter_digital
from .vcdl import VCDLBeh
from .window_comp_beh import WindowComparatorBeh

__all__ = [
    "AlexanderPD", "scan_frequency_verdict", "wrap_phase",
    "ClockDomainCrossing",
    "ChargePumpBeh",
    "CoarseFSM", "RECENTER_MARGIN",
    "Divider",
    "DLL",
    "LockDetector", "build_lock_detector",
    "BIT_TIME", "DATA_RATE", "KnotCurve", "LinkParams", "N_DLL_PHASES",
    "VDD",
    "default_vcdl_delay",
    "PRBS", "transition_density",
    "RingCounterBeh", "build_ring_counter",
    "SwitchMatrix",
    "TransmitterDigitalPorts", "build_transmitter_digital",
    "VCDLBeh",
    "WindowComparatorBeh",
]
