#!/usr/bin/env python3
"""Dependency-free sampling profiler for one Linux process.

Usage:
    python3 devtools/profile.py [--period-us N] [--top N] -- CMD [ARGS...]

Runs CMD and samples its instruction pointer on a CPU-time clock, then
prints the functions that own the samples, with inline frames resolved
by ``addr2line``. Only the standard library, ``addr2line`` (binutils)
and the ``perf_event_open`` system call are used, so it works where
``perf``, ``gdb`` and ``valgrind`` are not installed, as an ordinary
user at ``perf_event_paranoid`` 2.

How it works:

* It forks CMD gated on a pipe, opens a user-space-only
  ``PERF_COUNT_SW_CPU_CLOCK`` sampling event on the child (``disabled``
  plus ``enable_on_exec``, so counting starts at the exec), maps a ring
  of 1 + 64 pages, and only then lets the child exec.
* The event does not set ``inherit``: an inherited event cannot be
  mapped (``mmap`` fails with ``EINVAL``). So only CMD's own thread is
  sampled, not threads it spawns or processes it starts. Profile a
  built binary directly, not ``cargo run``.
* While the child runs, it drains the ring and re-reads
  ``/proc/<pid>/maps``; afterwards it maps each sampled address to its
  ELF file and virtual address, and asks ``addr2line -a -f -i -C`` for
  the inline chain at that address.

Two shares are reported per function, each over all samples:

* ``self``: samples whose innermost frame is the function;
* ``incl``: samples where the function is anywhere in the inline chain,
  i.e. the function's own code plus everything inlined into it. There
  is no stack unwinding, so calls that were not inlined are not
  included.

An inlined frame carries only its short name, so it is printed with
the frame it was inlined into: ``find in contains``,
``{closure#0} in Cache::fill_at``.

Build with line tables for useful names, e.g.
``CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release``.
See devtools/README.md.
"""

import argparse
import collections
import ctypes
import mmap
import os
import platform
import struct
import subprocess
import sys
import time

PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_CPU_CLOCK = 0
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
ATTR_DISABLED = 1 << 0
ATTR_EXCLUDE_KERNEL = 1 << 5
ATTR_EXCLUDE_HV = 1 << 6
ATTR_ENABLE_ON_EXEC = 1 << 12
PERF_FLAG_FD_CLOEXEC = 1 << 3
PERF_RECORD_LOST = 2
PERF_RECORD_SAMPLE = 9
# perf_event_attr up to and including sample_max_stack (PERF_ATTR_SIZE_VER5).
ATTR_SIZE = 112
SYSCALL_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
DATA_PAGES = 64


def perf_event_open(pid, period_ns):
    """Opens the sampling event on ``pid`` and returns its fd."""
    nr = SYSCALL_PERF_EVENT_OPEN.get(platform.machine())
    if nr is None:
        sys.exit(f"profile.py: no perf_event_open number for {platform.machine()}")
    attr = bytearray(ATTR_SIZE)
    struct.pack_into("<IIQQQQQ", attr, 0,
                     PERF_TYPE_SOFTWARE, ATTR_SIZE, PERF_COUNT_SW_CPU_CLOCK,
                     period_ns, PERF_SAMPLE_IP | PERF_SAMPLE_TID, 0,
                     ATTR_DISABLED | ATTR_EXCLUDE_KERNEL | ATTR_EXCLUDE_HV
                     | ATTR_ENABLE_ON_EXEC)
    buf = (ctypes.c_char * ATTR_SIZE).from_buffer(attr)
    libc = ctypes.CDLL(None, use_errno=True)
    libc.syscall.restype = ctypes.c_long
    fd = libc.syscall(ctypes.c_long(nr), buf, ctypes.c_int(pid), ctypes.c_int(-1),
                      ctypes.c_int(-1), ctypes.c_ulong(PERF_FLAG_FD_CLOEXEC))
    if fd < 0:
        err = ctypes.get_errno()
        sys.exit(f"profile.py: perf_event_open failed: {os.strerror(err)}")
    return fd


class Ring:
    """The event's mmap ring: one metadata page, then the data pages."""

    def __init__(self, fd):
        page = mmap.PAGESIZE
        self.mm = mmap.mmap(fd, (1 + DATA_PAGES) * page, mmap.MAP_SHARED,
                            mmap.PROT_READ | mmap.PROT_WRITE)
        self.offset, self.size = struct.unpack_from("<QQ", self.mm, 1040)
        if self.size == 0:  # kernels before 4.1 leave these fields zero
            self.offset, self.size = page, DATA_PAGES * page
        self.ips = []
        self.lost = 0

    def _bytes(self, pos, n):
        start = self.offset + pos % self.size
        end = start + n
        limit = self.offset + self.size
        if end <= limit:
            return self.mm[start:end]
        return self.mm[start:limit] + self.mm[self.offset:self.offset + end - limit]

    def drain(self):
        head = struct.unpack_from("<Q", self.mm, 1024)[0]
        tail = struct.unpack_from("<Q", self.mm, 1032)[0]
        while tail < head:
            kind, _misc, size = struct.unpack("<IHH", self._bytes(tail, 8))
            if size == 0:
                break
            body = self._bytes(tail + 8, size - 8)
            if kind == PERF_RECORD_SAMPLE:
                self.ips.append(struct.unpack_from("<Q", body, 0)[0])
            elif kind == PERF_RECORD_LOST:
                self.lost += struct.unpack_from("<QQ", body, 0)[1]
            tail += size
        struct.pack_into("<Q", self.mm, 1032, tail)


def read_maps(pid):
    """Executable file mappings of ``pid``: (start, end, offset, path)."""
    out = []
    try:
        with open(f"/proc/{pid}/maps") as f:
            for row in f:
                fields = row.split(maxsplit=5)
                if len(fields) < 6 or "x" not in fields[1]:
                    continue
                path = fields[5].strip()
                if not path.startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                out.append((lo, hi, int(fields[2], 16), path))
    except OSError:
        pass
    return out


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD segment of an ELF64."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return []
            phoff, = struct.unpack_from("<Q", head, 32)
            phentsize, phnum = struct.unpack_from("<HH", head, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def to_file_addresses(ips, maps):
    """Maps each ip to (path, ELF virtual address), or (None, ip)."""
    segments = {}
    out = []
    for ip in ips:
        hit = next((m for m in maps if m[0] <= ip < m[1]), None)
        if hit is None:
            out.append((None, ip))
            continue
        lo, _hi, offset, path = hit
        file_off = ip - lo + offset
        segs = segments.setdefault(path, load_segments(path))
        seg = next((s for s in segs if s[0] <= file_off < s[0] + s[2]), None)
        vaddr = seg[1] + (file_off - seg[0]) if seg else file_off
        out.append((path, vaddr))
    return out


def inline_chains(path, addrs):
    """{address: [innermost function, ..., outermost]} via addr2line."""
    query = "".join(f"{a:#x}\n" for a in addrs)
    run = subprocess.run(["addr2line", "-e", path, "-a", "-f", "-i", "-C"],
                         input=query, capture_output=True, text=True, check=False)
    chains = {}
    current = None
    lines = run.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        # Function name, then its file:line.
        if current is not None:
            chains[current].append(line)
        i += 2
    return chains


def short(name):
    """``name`` without generic arguments, keeping its last two path
    segments: ``a::b::Cache::fill_at<T>`` becomes ``Cache::fill_at``."""
    depth, plain = 0, []
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">" and depth:
            depth -= 1
        elif depth == 0:
            plain.append(ch)
    return "::".join("".join(plain).split("::")[-2:])


def labels(chain):
    """Names for an inline chain. Inlined frames carry only their short
    name (``find``, ``{closure#0}``), so each is qualified with the
    frame it was inlined into."""
    out = []
    for i, name in enumerate(chain):
        if i + 1 < len(chain) and "::" not in short(name):
            name = f"{name} in {short(chain[i + 1])}"
        out.append(name)
    return out


def shares(resolved):
    """(self Counter, inclusive Counter) over resolved sample addresses."""
    by_file = collections.defaultdict(set)
    for path, addr in resolved:
        if path is not None:
            by_file[path].add(addr)
    chains = {}
    for path, addrs in by_file.items():
        for addr, chain in inline_chains(path, sorted(addrs)).items():
            chains[(path, addr)] = chain
    own = collections.Counter()
    incl = collections.Counter()
    for path, addr in resolved:
        chain = labels([f for f in chains.get((path, addr), []) if f != "??"])
        if not chain:
            chain = [f"[{os.path.basename(path)}]" if path else "[unmapped]"]
        own[chain[0]] += 1
        for name in set(chain):
            incl[name] += 1
    return own, incl


def main():
    ap = argparse.ArgumentParser(
        description="Sample a command's instruction pointer and report "
                    "self and inline-inclusive shares per function.")
    ap.add_argument("--period-us", type=int, default=1000,
                    help="CPU time between samples, in microseconds (default 1000)")
    ap.add_argument("--top", type=int, default=30,
                    help="rows to print, by inclusive share (default 30)")
    ap.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="the command to run, after --")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")

    gate_r, gate_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(gate_w)
        os.read(gate_r, 1)
        try:
            os.execvp(cmd[0], cmd)
        except OSError as e:
            print(f"profile.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            os._exit(127)
    os.close(gate_r)
    fd = perf_event_open(pid, args.period_us * 1000)
    ring = Ring(fd)
    own_exe = os.path.realpath(sys.executable)
    os.write(gate_w, b"x")
    os.close(gate_w)

    maps = []
    status = None
    while status is None:
        time.sleep(0.02)
        ring.drain()
        try:
            exe = os.readlink(f"/proc/{pid}/exe")
        except OSError:
            exe = own_exe
        if exe != own_exe:
            maps = read_maps(pid) or maps
        done, status_word = os.waitpid(pid, os.WNOHANG)
        if done:
            status = os.waitstatus_to_exitcode(status_word)
    ring.drain()
    os.close(fd)

    total = len(ring.ips)
    print(f"# {' '.join(cmd)}", file=sys.stderr)
    print(f"# exit {status}, {total} samples every {args.period_us} us of CPU time, "
          f"{ring.lost} lost", file=sys.stderr)
    if total == 0:
        return status
    own, incl = shares(to_file_addresses(ring.ips, maps))
    print(f"{'incl%':>6} {'self%':>6}  function")
    for name, n in incl.most_common(args.top):
        shown = name if len(name) <= 120 else name[:117] + "..."
        print(f"{100 * n / total:6.1f} {100 * own[name] / total:6.1f}  {shown}")
    return status


if __name__ == "__main__":
    sys.exit(main())
