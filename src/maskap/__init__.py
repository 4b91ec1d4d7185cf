"""Multi-server smart-card mutual authentication and key agreement.

Library layers: byte primitives (core), phase state machines (protocol),
persistence (registry), deterministic adversarial simulation (netsim),
scripted attack scenarios (attacks), wire codec and socket service
(wire / service), and the operator's command line (cli).
"""

from .core import HashCounter, LengthMismatch, FieldTooLong, concat, keystream_mask, sha256, xor
from .protocol import (
    AuthFail,
    BadCredentials,
    DuplicateServerId,
    DuplicateUid,
    LoginRequest,
    LoginResponse,
    MalformedList,
    NoServersRegistered,
    ProtocolError,
    RcState,
    SessionKey,
    SmartCard,
    StaleRequest,
    StaleResponse,
    TamperResistantMemory,
    TooManyServers,
    UnknownServer,
    UnknownUser,
    Validity16,
)
from .netsim import World, build_world

__version__ = "0.1.0"
