# lfm_gdb.py - extract the lfm-shmstats-v2 segment from a live or crashed
# inferior (part of lfmalloc; MIT license, see LICENSE).
#
# Usage:
#   gdb -x tools/lfm_gdb.py ./app core
#   (gdb) lfm-shmstats-dump [out.shmstats]
#   $ lfm-top --segment out.shmstats
#
# The command locates the segment by its mapping name ("/memfd:lfm-shmstats"
# or the LFM_SHM_STATS file path), falls back to scanning writable mappings
# for the "LFMSHST1" magic, and writes the raw bytes to a file that
# `lfm-top --segment` (or the shmstats tests) can parse. This is the
# post-mortem path of last resort when the core file itself is unavailable
# or clipped — gdb reads whatever memory the debug target still exposes.

import struct

import gdb

MAGIC = struct.unpack("<Q", b"LFMSHST1")[0]


def _mappings():
    """Yields (start, end, name) from `info proc mappings`."""
    try:
        out = gdb.execute("info proc mappings", to_string=True)
    except gdb.error:
        return
    for line in out.splitlines():
        parts = line.split()
        if len(parts) < 5 or not parts[0].startswith("0x"):
            continue
        try:
            start, end = int(parts[0], 16), int(parts[1], 16)
        except ValueError:
            continue
        name = parts[-1] if not parts[-1].startswith("0x") else ""
        yield start, end, name


def _read(start, length):
    return bytes(gdb.selected_inferior().read_memory(start, length))


def _segment_size(start):
    # SegmentHeader: magic u64, version u32, checksum u32, header u32,
    # names u32, frame u32, framecount u32 ... — total mapped size is
    # header + names + framecount * frame.
    hdr = _read(start, 40)
    magic, _ver, _csum, hbytes, nbytes, fbytes, fcount = struct.unpack(
        "<QIIIIII", hdr[:32]
    )
    if magic != MAGIC:
        return None
    return hbytes + nbytes + fcount * fbytes


def _find_segment():
    # Pass 1: mapping name.
    for start, _end, name in _mappings():
        if "lfm-shmstats" in name:
            size = _segment_size(start)
            if size:
                return start, size
    # Pass 2: magic scan over mapping starts (the segment begins at a
    # mapping boundary; scanning only page 0 of each mapping is cheap).
    for start, end, _name in _mappings():
        if end - start < 40:
            continue
        try:
            size = _segment_size(start)
        except gdb.MemoryError:
            continue
        if size and start + size <= end:
            return start, size
    return None, None


class LfmShmStatsDump(gdb.Command):
    """Dump the lfm-shmstats-v2 segment to a file for lfm-top --segment."""

    def __init__(self):
        super().__init__("lfm-shmstats-dump", gdb.COMMAND_USER)

    def invoke(self, arg, _from_tty):
        out = arg.strip() or "lfm.shmstats"
        start, size = _find_segment()
        if start is None:
            gdb.write("lfm-shmstats: no segment found (was the target "
                      "running with LFM_SHM_STATS?)\n", gdb.STDERR)
            return
        data = _read(start, size)
        with open(out, "wb") as f:
            f.write(data)
        # Surface the final epoch so the user knows the dump is non-empty:
        # Publishes is the last u64 of the header (HeaderBytes at offset 16).
        hbytes = struct.unpack("<I", data[16:20])[0]
        publishes = struct.unpack("<Q", data[hbytes - 8:hbytes])[0]
        gdb.write(
            "lfm-shmstats: wrote %d bytes from 0x%x to %s "
            "(%d publishes)\n" % (size, start, out, publishes)
        )


LfmShmStatsDump()
