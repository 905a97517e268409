"""A deliberately drifted copy of the protocol constants (NRMI032 bait).

The analyzer's protocol-invariant rule checks this tree against its own
``transport/framing.py`` / ``serde/*`` siblings, independent of the real
sources. Parsed, never imported.
"""

from enum import IntEnum


class Op(IntEnum):  # expect: NRMI032
    CALL = 1
    FIELD_GET = 2
    FIELD_SET = 2
    PING = 5


class Status(IntEnum):
    OK = 0
    EXCEPTION = 1
    PROTOCOL_ERROR = 2


_POLICY_TO_ID = {"none": 0, "full": 1, "delta": 1, "dce": 3}  # expect: NRMI032

_MODE_TO_ID = {"by_value": 0, "by_copy": 1, "by_ref": 2}

_FLAG_SHIP_MAP = 0x01

CAP_SCHEMA_CACHE = 0x01  # expect: NRMI032

CAP_STREAMING = 0x06  # expect: NRMI032
