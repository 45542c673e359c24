"""Sections of the synthetic ELF-like binary format."""


# Section flag constants.
ALLOC = "ALLOC"   # loaded into memory at run time
EXEC = "EXEC"     # contains executable code
WRITE = "WRITE"   # writable at run time


class Section:
    """A named, addressed span of bytes.

    ``addr`` is the virtual address of the first byte (before any PIE load
    bias).  ``data`` is mutable; the rewriter patches sections in place and
    appends whole new ones.
    """

    def __init__(self, name, addr, data=b"", flags=(), align=16):
        self.name = name
        self.addr = addr
        self.data = bytearray(data)
        self.flags = frozenset(flags)
        self.align = align

    @property
    def size(self):
        return len(self.data)

    @property
    def end(self):
        return self.addr + len(self.data)

    @property
    def is_alloc(self):
        return ALLOC in self.flags

    @property
    def is_exec(self):
        return EXEC in self.flags

    @property
    def is_writable(self):
        return WRITE in self.flags

    def contains(self, addr):
        return self.addr <= addr < self.end

    def offset_of(self, addr):
        """Byte offset within this section of an absolute address."""
        if not self.contains(addr):
            raise ValueError(
                f"address {addr:#x} not in section {self.name} "
                f"[{self.addr:#x},{self.end:#x})"
            )
        return addr - self.addr

    def read(self, addr, size):
        off = self.offset_of(addr)
        if off + size > len(self.data):
            raise ValueError(f"read past end of section {self.name}")
        return bytes(self.data[off:off + size])

    def write(self, addr, payload):
        off = self.offset_of(addr)
        if off + len(payload) > len(self.data):
            raise ValueError(f"write past end of section {self.name}")
        self.data[off:off + len(payload)] = payload

    def renamed(self, new_name):
        """Copy of this section under a different name (same address/data)."""
        return Section(new_name, self.addr, bytes(self.data),
                       self.flags, self.align)

    def __repr__(self):
        flags = ",".join(sorted(self.flags)) or "-"
        return (
            f"<Section {self.name} [{self.addr:#x},{self.end:#x}) "
            f"{self.size} bytes {flags}>"
        )
