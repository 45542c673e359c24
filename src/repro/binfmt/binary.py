"""The synthetic binary container.

A :class:`Binary` bundles sections, symbols, relocations, unwind metadata
and (for Go) a runtime function table.  It is the unit of exchange between
the toolchain, the analyses, the rewriters and the loader.

Structured metadata (symbols, relocations, unwind recipes, …) is the
source of truth; :meth:`Binary.to_bytes` serializes everything — including
raw section payloads — into a single blob so that *file* sizes can be
measured and binaries round-trip losslessly.  Loaded size (what the
``size`` utility reports in the paper's Table 3) is the sum of ALLOC
section sizes.
"""

import json
import struct

from repro.binfmt.relocations import LinkReloc, Relocation
from repro.binfmt.sections import ALLOC, Section
from repro.binfmt.symbols import Symbol, SymbolTable
from repro.binfmt.unwind import FuncRange, LandingPad, UnwindTable

# Binary kinds.
EXEC = "EXEC"      # position-dependent executable
PIE = "PIE"        # position-independent executable
SHLIB = "SHLIB"    # shared library

#: Default image base for position-dependent executables.
DEFAULT_BASE = 0x10000

_MAGIC = b"SBIN\x01"


class Binary:
    """A synthetic ELF-like binary."""

    def __init__(self, name, arch_name, kind=EXEC, entry=0):
        self.name = name
        self.arch_name = arch_name
        self.kind = kind
        self.entry = entry
        self.sections = []
        self.symbols = SymbolTable()
        self.relocations = []        # run-time (.rela.dyn)
        self.link_relocs = None      # link-time; None unless built -Wl,-q
        self.unwind = UnwindTable()
        self.landing_pads = []
        self.func_table = []         # Go-style pclntab entries
        self.metadata = {}           # lang, feature flags, toolchain notes

    # -- sections ----------------------------------------------------------

    def add_section(self, section):
        if self.get_section(section.name) is not None:
            raise ValueError(f"duplicate section {section.name}")
        self.sections.append(section)
        return section

    def get_section(self, name):
        for section in self.sections:
            if section.name == name:
                return section
        return None

    def section(self, name):
        found = self.get_section(name)
        if found is None:
            raise KeyError(f"no section named {name}")
        return found

    def remove_section(self, name):
        self.sections = [s for s in self.sections if s.name != name]

    def section_containing(self, addr):
        for section in self.sections:
            if section.contains(addr):
                return section
        return None

    def alloc_sections(self):
        return [s for s in self.sections if s.is_alloc]

    def exec_sections(self):
        return [s for s in self.sections if s.is_exec]

    def next_free_addr(self, align=16):
        end = max((s.end for s in self.sections), default=DEFAULT_BASE)
        return (end + align - 1) // align * align

    # -- raw memory-image accessors ----------------------------------------

    def read(self, addr, size):
        section = self.section_containing(addr)
        if section is None:
            raise KeyError(f"address {addr:#x} is in no section")
        return section.read(addr, size)

    def write(self, addr, payload):
        section = self.section_containing(addr)
        if section is None:
            raise KeyError(f"address {addr:#x} is in no section")
        section.write(addr, payload)

    def read_int(self, addr, size, signed=False):
        return int.from_bytes(self.read(addr, size), "little", signed=signed)

    def write_int(self, addr, value, size, signed=None):
        if signed is None:
            signed = value < 0
        self.write(addr, value.to_bytes(size, "little", signed=signed))

    # -- metrics -------------------------------------------------------------

    def loaded_size(self):
        """Bytes loaded at run time (what binutils ``size`` counts)."""
        return sum(s.size for s in self.alloc_sections())

    # -- queries used by analyses ---------------------------------------------

    @property
    def is_pic(self):
        """Position-independent (PIE or shared library)?"""
        return self.kind in (PIE, SHLIB)

    def function_symbols(self):
        return self.symbols.functions()

    def feature(self, flag):
        return flag in self.metadata.get("features", ())

    # -- serialization -----------------------------------------------------------

    def to_bytes(self):
        header = {
            "name": self.name,
            "arch": self.arch_name,
            "kind": self.kind,
            "entry": self.entry,
            "sections": [
                {
                    "name": s.name,
                    "addr": s.addr,
                    "size": s.size,
                    "flags": sorted(s.flags),
                    "align": s.align,
                }
                for s in self.sections
            ],
            "symbols": [
                [s.name, s.addr, s.size, s.kind, s.binding, s.version]
                for s in self.symbols
            ],
            "relocations": [
                [r.where, r.kind, r.addend, r.size] for r in self.relocations
            ],
            "link_relocs": (
                None
                if self.link_relocs is None
                else [[r.site, r.symbol, r.addend] for r in self.link_relocs]
            ),
            "unwind": [
                [u.start, u.end, u.frame_size, u.ra_rule, u.ra_offset,
                 [list(pair) for pair in u.saved_regs]]
                for u in self.unwind
            ],
            "landing_pads": [
                [p.call_site_start, p.call_site_end, p.handler]
                for p in self.landing_pads
            ],
            "func_table": [[f.start, f.end, f.name] for f in self.func_table],
            "metadata": _jsonable(self.metadata),
        }
        head = json.dumps(header, separators=(",", ":")).encode("utf-8")
        blob = bytearray(_MAGIC)
        blob += struct.pack("<I", len(head))
        blob += head
        for section in self.sections:
            blob += bytes(section.data)
        return bytes(blob)

    @classmethod
    def from_bytes(cls, data):
        if data[: len(_MAGIC)] != _MAGIC:
            raise ValueError("not a synthetic binary blob")
        (head_len,) = struct.unpack_from("<I", data, len(_MAGIC))
        head_start = len(_MAGIC) + 4
        header = json.loads(data[head_start:head_start + head_len])
        binary = cls(header["name"], header["arch"], header["kind"],
                     header["entry"])
        pos = head_start + head_len
        for sec in header["sections"]:
            payload = data[pos:pos + sec["size"]]
            pos += sec["size"]
            binary.add_section(
                Section(sec["name"], sec["addr"], payload,
                        sec["flags"], sec["align"])
            )
        for name, addr, size, kind, binding, version in header["symbols"]:
            binary.symbols.add(Symbol(name, addr, size, kind, binding, version))
        binary.relocations = [
            Relocation(w, k, a, s) for w, k, a, s in header["relocations"]
        ]
        if header["link_relocs"] is not None:
            binary.link_relocs = [
                LinkReloc(s, sym, a) for s, sym, a in header["link_relocs"]
            ]
        binary.unwind = UnwindTable(
            _make_recipe(row) for row in header["unwind"]
        )
        binary.landing_pads = [
            LandingPad(a, b, h) for a, b, h in header["landing_pads"]
        ]
        binary.func_table = [
            FuncRange(s, e, n) for s, e, n in header["func_table"]
        ]
        binary.metadata = header["metadata"]
        if "features" in binary.metadata:
            binary.metadata["features"] = tuple(binary.metadata["features"])
        return binary

    def clone(self):
        """Deep copy (rewriters mutate their copy, never the input)."""
        return Binary.from_bytes(self.to_bytes())

    def __repr__(self):
        return (
            f"<Binary {self.name} {self.arch_name}/{self.kind} "
            f"{len(self.sections)} sections, {self.loaded_size()} bytes loaded>"
        )


def _make_recipe(row):
    from repro.binfmt.unwind import UnwindRecipe

    start, end, frame, rule, ra_off, saved = row
    return UnwindRecipe(start, end, frame, rule, ra_off,
                        tuple(tuple(pair) for pair in saved))


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return value


def make_alloc_section(name, addr, data, exec_=False, writable=False,
                       align=16):
    """Convenience constructor for a loaded section."""
    flags = {ALLOC}
    if exec_:
        flags.add("EXEC")
    if writable:
        flags.add("WRITE")
    return Section(name, addr, data, flags, align)
