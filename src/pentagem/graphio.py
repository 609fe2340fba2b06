"""Graph file formats: DIMACS ``.col``, plain edge lists, and graph6.

DIMACS: ``p edge n m`` then ``e u v`` lines, 1-indexed.  Edge list: an
``n m`` header then ``u v`` pairs, 0-indexed.  graph6: the standard 6-bit
upper-triangle encoding, one graph per line.
"""

from __future__ import annotations

from binascii import a2b_base64

from .errors import GraphFormatError
from .graph import Graph, build_graph

__all__ = [
    "ascii_digits",
    "parse_dimacs",
    "parse_edgelist",
    "parse_graph6",
    "write_dimacs",
    "write_edgelist",
    "write_graph6",
    "parse_graph",
    "write_graph",
    "FORMATS",
]

_G6_VALID = bytes(range(63, 127))  # graph6 uses chr(63) to chr(126)
_G6_CHARS = bytes((63 + d) % 256 for d in range(256))  # a six-bit value's character
_G6_BASE64 = bytes.maketrans(  # a graph6 character's base64 digit of the same value
    _G6_VALID,
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/")
_BITS_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_MAX_ORDER = 2 ** 18 - 1  # graph6's limit, kept by every reader


def ascii_digits(tok: str, chars: str = "-0123456789") -> str:
    """``tok``, which must be made of ``chars`` alone, so that int() reads
    each part of it only as ASCII digits, after one ``-`` if ``chars`` has
    it; int() alone would also read "+3", "1_0" and other scripts' digits."""
    if tok.strip(chars):
        raise ValueError(f"{tok!r} is not written in ASCII digits")
    return tok


def _check_order(n: int) -> int:
    if n > _MAX_ORDER:
        raise GraphFormatError(f"{n} vertices is above the supported {_MAX_ORDER}")
    return n


def parse_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        try:
            if toks[0] == "p":
                if len(toks) != 4 or toks[1].lower() not in ("edge", "edges", "col"):
                    raise GraphFormatError(f"bad problem line: {line!r}")
                n = _check_order(int(ascii_digits(toks[2])))
            elif toks[0] == "e":
                if n is None:
                    raise GraphFormatError("edge line before the problem line")
                if len(toks) != 3:
                    raise GraphFormatError(f"bad edge line: {line!r}")
                edges.append((int(ascii_digits(toks[1])) - 1, int(ascii_digits(toks[2])) - 1))
            else:
                raise GraphFormatError(f"unknown DIMACS line: {line!r}")
        except ValueError:
            raise GraphFormatError(f"non-integer token in DIMACS line: {line!r}") from None
    if n is None:
        raise GraphFormatError("missing problem line")
    try:
        return build_graph(n, edges)
    except GraphFormatError as exc:
        raise GraphFormatError(f"invalid DIMACS edges: {exc}") from exc


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    toks = text.split()
    if len(toks) < 2:
        raise GraphFormatError("edge list needs an 'n m' header")
    try:
        nums = [int(ascii_digits(t)) for t in toks]
    except ValueError as exc:
        raise GraphFormatError(f"non-integer token in edge list: {exc}") from exc
    n, m = _check_order(nums[0]), nums[1]
    if len(nums) != 2 + 2 * m:
        raise GraphFormatError(f"expected {m} edges, found {(len(nums) - 2) // 2}")
    edges = [(nums[2 + 2 * i], nums[3 + 2 * i]) for i in range(m)]
    return build_graph(n, edges)


def write_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line.  The body is decoded in C, and each vertex's
    lower neighbors are one slice of the result, so the Python work follows
    the rows and the edges rather than the n(n-1)/2 pairs."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    # deleting every valid byte in C leaves exactly the bad ones
    if not s.isascii() or s.encode("ascii").translate(None, _G6_VALID):
        raise GraphFormatError("graph6 characters out of range")
    head = [ord(ch) - 63 for ch in s[:4]]
    if head[0] < 63:
        n, start = head[0], 1
    elif len(head) == 4 and head[1] < 63:
        n = (head[1] << 12) | (head[2] << 6) | head[3]
        start = 4
    else:
        raise GraphFormatError("graph6 orders above 2^18 are not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) - start != need:
        raise GraphFormatError(f"graph6 body length {len(s) - start}, expected {need}")
    # graph6 is base64's six-bit grouping under a shifted alphabet: pad the
    # body in place to whole quads, decode it, and reverse each byte's bits,
    # so that body bit k = v(v-1)/2 + u, for the pair u < v, is bit k of the
    # bytes read little-endian; padding bits past the last pair are never read
    data = bytearray(s, "ascii").translate(_G6_BASE64)
    data += b"A" * (-need % 4)
    raw = a2b_base64(memoryview(data)[start:])
    del data  # not held while the reversed copy is made
    raw = raw.translate(_BITS_REVERSED)
    adj = [0] * n
    k = 0
    for v in range(1, n):
        row = int.from_bytes(raw[k >> 3:(k + v + 7) >> 3], "little") >> (k & 7) & ((1 << v) - 1)
        k += v
        if row:
            adj[v] = row
            bit = 1 << v
            while row:
                low = row & -row
                adj[low.bit_length() - 1] |= bit
                row ^= low
    return Graph(n, adj)


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        raise GraphFormatError("graph6 orders above 2^18 are not supported")
    # bit k of the body is the pair (u, v) with k = v(v-1)/2 + u, u < v,
    # most significant bit of each six first
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges():
        k = v * (v - 1) // 2 + u
        body[k // 6] |= 32 >> k % 6
    return (bytes(head) + body).translate(_G6_CHARS).decode() + "\n"


def sniff_format(text: str) -> str:
    """The format of ``text``, from its first token alone."""
    first = text.split(None, 1)[:1]
    if not first:
        raise GraphFormatError("empty graph file")
    if first[0] in ("c", "p"):
        return "dimacs"
    try:
        int(ascii_digits(first[0]))
        return "edgelist"
    except ValueError:
        return "graph6"


class _Codecs(dict):
    def __missing__(self, fmt):
        raise GraphFormatError(f"unknown format {fmt!r}")


_CODECS = _Codecs(dimacs=(parse_dimacs, write_dimacs), edgelist=(parse_edgelist, write_edgelist),
                  graph6=(parse_graph6, write_graph6))
FORMATS = tuple(_CODECS)


def parse_graph(text: str, fmt: str | None = None) -> Graph:
    return _CODECS[fmt or sniff_format(text)][0](text)


def write_graph(g: Graph, fmt: str) -> str:
    return _CODECS[fmt][1](g)
