"""Ultralightweight RFID mutual-authentication workbench.

Library, simulator and CLI for the SASI and Gossamer protocol family:
exact 96-bit protocol arithmetic, tag/reader state machines with
desynchronization recovery, a deterministic eavesdroppable channel, and
the known passive attacks as executable adversaries.
"""

from .attacks import AttackVerdict, RecoveredSecrets
from .gossamer import Variant
from .simulator import (
    CampaignConfig,
    Forcing,
    GroundTruth,
    KeyMode,
    NonceMode,
    NonceStream,
    Outcome,
    Protocol,
    SimTag,
    Transcript,
    evaluate_attack,
    iter_campaign,
    provision,
    run_campaign,
    run_session,
)
from .store import Store, TagRecordRow
from .tagstate import TagState
from .word96 import MASK, PI, WIDTH, Word96

__version__ = "0.1.0"

__all__ = [
    "AttackVerdict",
    "CampaignConfig",
    "Forcing",
    "GroundTruth",
    "KeyMode",
    "MASK",
    "NonceMode",
    "NonceStream",
    "Outcome",
    "PI",
    "Protocol",
    "RecoveredSecrets",
    "SimTag",
    "Store",
    "TagRecordRow",
    "TagState",
    "Transcript",
    "Variant",
    "WIDTH",
    "Word96",
    "evaluate_attack",
    "iter_campaign",
    "provision",
    "run_campaign",
    "run_session",
]
