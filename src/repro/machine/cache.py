"""Per-processor cache with Illinois (MESI) states.

Geometry and policies follow §2.2 of the paper: two-way set-associative,
64 KB, 16-byte lines, LRU replacement, write-back, write-allocate.  The
cache itself only tracks line states and replacement; which bus
transactions a hit/miss triggers is the coherence controller's business
(:mod:`repro.machine.coherence`), and timing is the system's.

Lines are identified by their *line number* (``addr >> offset_bits``).
State storage is a dict (``line -> MESI state``; INVALID lines are
simply absent) plus a single preallocated flat *way array*: set ``s``
occupies slots ``[s * assoc, (s + 1) * assoc)``, most recently used
first, with ``-1`` marking empty ways.  The flat array replaces the
per-set Python lists of the original implementation: an LRU touch is a
couple of indexed stores instead of a ``list.remove``/``insert`` pair,
and there is no per-set list object churn.  (The dict stays because the
coherence layer wants O(1) residency probes by line number alone.)

A cache may additionally be attached to a machine-wide *residency
directory* (``line -> [holder procs]``, see
:meth:`Cache.attach_directory`).  The system uses it to snoop only the
caches that actually hold a line and to find cache-to-cache suppliers
without scanning every cache; this class keeps it exact on every
install, eviction and invalidation.
"""

from __future__ import annotations

from .config import CacheConfig

__all__ = ["Cache", "INVALID", "SHARED", "EXCLUSIVE", "MODIFIED", "STATE_NAMES"]

INVALID = 0
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

STATE_NAMES = {INVALID: "I", SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}

#: empty-way marker in the flat way array (line numbers are >= 0)
_EMPTY = -1


class CacheCounters:
    """Hit/miss counters split by access type (feeds Tables 3/5/7)."""

    __slots__ = (
        "read_hits",
        "read_misses",
        "write_hits",
        "write_misses",
        "ifetch_hits",
        "ifetch_misses",
        "evictions",
        "writebacks",
        "invalidations_received",
        "c2c_supplied",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def write_hit_ratio(self) -> float:
        total = self.write_hits + self.write_misses
        return self.write_hits / total if total else 1.0

    @property
    def read_hit_ratio(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 1.0


class Cache:
    """One processor's cache: state lookup, LRU, install/evict, snoops."""

    def __init__(self, config: CacheConfig, fast_path: bool = True) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self._set_mask = self.n_sets - 1
        # contended-path fast path (MachineConfig.bus_fast_path): with the
        # paper's two-way geometry an LRU touch of a resident non-MRU line
        # is a single swap.  Gated so the reference configuration executes
        # the general rotate loop exactly as the committed baseline does.
        self._assoc2 = self.assoc == 2 and fast_path
        # line number -> MESI state (INVALID lines are simply absent)
        self.state: dict[int, int] = {}
        # flat way array: set s at [s*assoc, (s+1)*assoc), MRU first
        self._ways: list[int] = [_EMPTY] * (self.n_sets * self.assoc)
        self._sizes: list[int] = [0] * self.n_sets
        self.counters = CacheCounters()
        # optional machine-wide residency directory (shared dict) and the
        # processor index this cache registers under
        self._dir: dict[int, list[int]] | None = None
        self._proc = -1
        #: optional runtime invariant auditor (see repro.audit)
        self.audit = None

    # -- directory ------------------------------------------------------------
    def attach_directory(self, directory: dict[int, list[int]], proc: int) -> None:
        """Register this cache in a shared line->holders directory.

        Must be called while the cache is empty (the system attaches at
        construction time).
        """
        if self.state:
            raise RuntimeError("attach_directory on a non-empty cache")
        self._dir = directory
        self._proc = proc

    def _dir_remove(self, line: int) -> None:
        d = self._dir
        if d is not None:
            holders = d[line]
            holders.remove(self._proc)
            if not holders:
                del d[line]

    # -- helpers -------------------------------------------------------------
    def set_of(self, line: int) -> int:
        return line & self._set_mask

    def probe(self, line: int) -> int:
        """Current state of ``line`` without touching LRU."""
        return self.state.get(line, INVALID)

    def _touch(self, line: int) -> None:
        """Move a resident line to the MRU slot of its set."""
        ways = self._ways
        base = (line & self._set_mask) * self.assoc
        if ways[base] != line:
            if self._assoc2:
                # resident + not MRU: it is the other way
                ways[base + 1] = ways[base]
                ways[base] = line
                return
            i = base + 1
            while ways[i] != line:
                i += 1
            while i > base:
                ways[i] = ways[i - 1]
                i -= 1
            ways[base] = line

    # -- processor-side accesses ----------------------------------------------
    def lookup(self, line: int) -> int:
        """Processor-side access: returns state (INVALID on miss) and
        refreshes LRU on a hit."""
        st = self.state.get(line, INVALID)
        if st:
            ways = self._ways
            base = (line & self._set_mask) * self.assoc
            if ways[base] != line:
                if self._assoc2:
                    # resident + not MRU: it is the other way
                    ways[base + 1] = ways[base]
                    ways[base] = line
                    return st
                i = base + 1
                while ways[i] != line:
                    i += 1
                while i > base:
                    ways[i] = ways[i - 1]
                    i -= 1
                ways[base] = line
        return st

    def set_state(self, line: int, state: int) -> None:
        """Change the state of a resident line (e.g. S->M after an
        invalidation completes, or E->M on a silent write hit)."""
        if line not in self.state:
            raise KeyError(f"line {line:#x} not resident")
        if state == INVALID:
            raise ValueError("use invalidate() to drop a line")
        self.state[line] = state

    def install(self, line: int, state: int) -> tuple[int, bool] | None:
        """Install a freshly fetched line in ``state``.

        Returns ``(victim_line, was_dirty)`` if a line had to be evicted,
        else None.  The caller is responsible for scheduling a write-back
        when ``was_dirty``.
        """
        if state == INVALID:
            raise ValueError("cannot install a line INVALID")
        if line in self.state:  # refill racing a snoop: just overwrite state
            self.state[line] = state
            self._touch(line)
            if self.audit is not None:
                self.audit.on_install(self._proc, line, state)
            return None
        set_idx = line & self._set_mask
        base = set_idx * self.assoc
        size = self._sizes[set_idx]
        ways = self._ways
        victim = None
        if size >= self.assoc:
            vline = ways[base + self.assoc - 1]  # LRU victim
            vstate = self.state.pop(vline)
            self.counters.evictions += 1
            self._dir_remove(vline)
            victim = (vline, vstate == MODIFIED)
            last = base + self.assoc - 1
        else:
            self._sizes[set_idx] = size + 1
            last = base + size
        while last > base:
            ways[last] = ways[last - 1]
            last -= 1
        ways[base] = line
        self.state[line] = state
        d = self._dir  # register the new holder
        if d is not None:
            holders = d.get(line)
            if holders is None:
                d[line] = [self._proc]
            else:
                holders.append(self._proc)
        if self.audit is not None:
            self.audit.on_install(self._proc, line, state)
        return victim

    # -- snoop side -------------------------------------------------------------
    def snoop_read(self, line: int) -> tuple[bool, bool]:
        """Another cache is read-missing on ``line``.

        Illinois: if present, this cache supplies the data cache-to-cache
        and the line drops to SHARED (memory is updated during the
        transfer if it was MODIFIED).  Returns ``(present, was_dirty)``.
        """
        st = self.state.get(line, INVALID)
        if not st:
            return (False, False)
        self.counters.c2c_supplied += 1
        dirty = st == MODIFIED
        self.state[line] = SHARED
        return (True, dirty)

    def snoop_invalidate(self, line: int) -> tuple[bool, bool]:
        """Another cache is claiming ``line`` exclusively (RFO or
        invalidation signal).  Returns ``(present, was_dirty)``."""
        st = self.state.pop(line, INVALID)
        if not st:
            return (False, False)
        set_idx = line & self._set_mask
        base = set_idx * self.assoc
        size = self._sizes[set_idx]
        ways = self._ways
        i = base
        while ways[i] != line:
            i += 1
        end = base + size - 1
        while i < end:
            ways[i] = ways[i + 1]
            i += 1
        ways[end] = _EMPTY
        self._sizes[set_idx] = size - 1
        self.counters.invalidations_received += 1
        self._dir_remove(line)
        return (True, st == MODIFIED)

    # -- introspection ---------------------------------------------------------
    @property
    def sets(self) -> list[list[int]]:
        """Per-set MRU-ordered resident line numbers (a reconstructed
        view of the flat way array; introspection and tests only)."""
        out = []
        for s in range(self.n_sets):
            base = s * self.assoc
            out.append(
                [l for l in self._ways[base : base + self._sizes[s]] if l != _EMPTY]
            )
        return out

    def resident_lines(self) -> list[int]:
        return list(self.state)

    def occupancy(self) -> int:
        return len(self.state)

    def check_invariants(self) -> None:
        """Internal consistency between the state dict, the way array and
        the occupancy counts (used by tests and the property suite)."""
        seen = set()
        for idx in range(self.n_sets):
            base = idx * self.assoc
            size = self._sizes[idx]
            if size > self.assoc:
                raise AssertionError(f"set {idx} over-full: size {size}")
            lst = self._ways[base : base + self.assoc]
            for slot, line in enumerate(lst):
                if slot < size:
                    if line == _EMPTY:
                        raise AssertionError(f"set {idx} slot {slot} empty but counted")
                    if line & self._set_mask != idx:
                        raise AssertionError(f"line {line:#x} in wrong set {idx}")
                    if line not in self.state:
                        raise AssertionError(f"line {line:#x} listed but stateless")
                    seen.add(line)
                elif line != _EMPTY:
                    raise AssertionError(f"set {idx} slot {slot} stale entry {line:#x}")
        if seen != set(self.state):
            raise AssertionError("state dict and way array disagree")
