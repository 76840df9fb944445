"""The version-1 table-set writer, for tests: swpc still reads version 1 but
writes only version 2.

Version 1 is little-endian: magic "SWPC", version u16 = 1, family tag u8,
table count u32, then per table an i32 offset, a u16 entry count and the
entries cumulative[1:] as u32; a length-prefixed JSON blob may follow.  It
carries no checksum.
"""

import json
import struct

FAMILY_TAGS = {"gm": 0, "ggm": 1, "gmm": 2, "learned": 3}


def meta_blob(meta: dict) -> bytes:
    """The metadata blob as both versions write it, without its length."""
    extra = {k: v for k, v in meta.items() if k != "family"}
    return json.dumps(extra, sort_keys=True, separators=(",", ":")).encode("utf-8") if extra else b""


def serialize_v1(table_set) -> bytes:
    """Version-1 bytes of a set."""
    out = [b"SWPC", struct.pack("<HBI", 1, FAMILY_TAGS[table_set.meta["family"]], len(table_set))]
    for t in table_set:
        stored = t.cumulative[1:]
        out.append(struct.pack("<iH", t.offset, len(stored)))
        out.append(stored.astype("<u4").tobytes())
    blob = meta_blob(table_set.meta)
    if blob:
        out.append(struct.pack("<I", len(blob)) + blob)
    return b"".join(out)
