#!/usr/bin/env python3
"""Count the frame descriptors linked into an OCaml native executable.

Usage: frame_descriptors.py EXE [LIMIT]

At start the OCaml 5.1 runtime sizes its frame-descriptor hash table at the
next power of two at or above twice the descriptors linked in, 8 bytes a
slot, and fills it, so all of it is resident.  The count is the sum of the
first word of each `caml*.frametable` data symbol (`caml_frametable` itself
is the list of tables, not one of them).  With LIMIT, exit 1 when the count
is above it.  Without `nm` nothing is counted: the script says so and exits
0.  Reads 64-bit little-endian ELF only.
"""
import shutil
import struct
import subprocess
import sys


def count(path):
    data = open(path, "rb").read()
    (phoff,) = struct.unpack_from("<Q", data, 0x20)
    phsize, phnum = struct.unpack_from("<HH", data, 0x36)
    segs = [struct.unpack_from("<IIQQQQ", data, phoff + i * phsize) for i in range(phnum)]

    def word(addr):
        for typ, _, off, vaddr, _, size in segs:
            if typ == 1 and vaddr <= addr < vaddr + size:
                return struct.unpack_from("<q", data, off + addr - vaddr)[0]
        sys.exit("frame descriptors: %s: symbol at 0x%x is in no loaded segment" % (path, addr))

    symbols = subprocess.run(["nm", path], capture_output=True, text=True, check=True).stdout
    return sum(
        word(int(line.split()[0], 16))
        for line in symbols.splitlines()
        if line.split()[-1].startswith("caml") and line.endswith(".frametable")
    )


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__.split("\n\n")[1])
    path = sys.argv[1]
    if shutil.which("nm") is None:
        print("frame descriptors: skipped (nm not installed)")
        return
    n = count(path)
    slots = 1
    while slots < 2 * n:
        slots *= 2
    print("%s: %d descriptors, %d KB table" % (path, n, slots * 8 // 1024))
    if len(sys.argv) == 3 and n > int(sys.argv[2]):
        sys.exit("frame descriptors: %d, over %s" % (n, sys.argv[2]))


main()
