"""A BPF-style filter expression language.

Scap applications (and the baselines) select traffic with pcap-filter
expressions — ``scap_set_filter(sc, "tcp port 80")``.  This module
implements the subset of the pcap-filter language the paper's use cases
need: host/net/port/portrange primitives with direction and protocol
qualifiers, protocol keywords, frame-length tests, and the full
``and`` / ``or`` / ``not`` boolean structure with parentheses.  As in
real BPF, omitted qualifiers are inherited from the previous primitive
(``port 80 or 443``).

The compiled form is a tree of small predicate objects with one test
each; ``matches`` evaluates a packet, and ``matches_five_tuple`` a flow
key (for kernel-level per-stream classification where only the tuple
is known), where per-frame tests are undecided rather than true.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..netstack.addresses import ip_to_int
from ..netstack.flows import FiveTuple
from ..netstack.ip import IPProtocol
from ..netstack.packet import Packet

__all__ = ["BPFError", "BPFFilter", "compile_filter", "filter_union"]


class BPFError(ValueError):
    """Raised for lexical or syntactic errors in a filter expression."""


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<lparen>\()|(?P<rparen>\))|"
    r"(?P<cidr>\d+\.\d+\.\d+\.\d+/\d+)|"
    r"(?P<ip>\d+\.\d+\.\d+\.\d+)|"
    r"(?P<range>\d+-\d+)|"
    r"(?P<number>\d+)|"
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r")"
)


def _tokenize(expression: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(expression):
        match = _TOKEN_RE.match(expression, position)
        if match is None:
            if expression[position:].strip() == "":
                break
            raise BPFError(f"unexpected character at {position}: {expression[position:]!r}")
        position = match.end()
        for kind, value in match.groupdict().items():
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


# ----------------------------------------------------------------------
# AST predicates
# ----------------------------------------------------------------------
_DIR_SRC = "src"
_DIR_DST = "dst"

_PROTO_NAMES = {"tcp": IPProtocol.TCP, "udp": IPProtocol.UDP, "icmp": IPProtocol.ICMP}


class _Node:
    """One predicate of the compiled tree, evaluated one way for frames
    and for flows.

    ``test(flow, wire_len, vlan)`` takes a frame's five-tuple (None for
    a non-IP frame), its wire length and its VLAN id (None untagged).
    A flow has only its tuple: it is tested with ``wire_len`` None, and
    a per-frame test then answers None — undecided — instead of True or
    False.  ``and``, ``or`` and ``not`` carry the None through, so a
    flow is refused only where no frame of it could match.
    """

    def test(self, flow: Optional[FiveTuple], wire_len: Optional[int],
             vlan: Optional[int]) -> Optional[bool]:
        raise NotImplementedError


@dataclass
class _And(_Node):
    left: _Node
    right: _Node

    def test(self, flow, wire_len, vlan):
        left = self.left.test(flow, wire_len, vlan)
        if left is False:
            return False
        right = self.right.test(flow, wire_len, vlan)
        if right is False:
            return False
        return None if left is None or right is None else True


@dataclass
class _Or(_Node):
    left: _Node
    right: _Node

    def test(self, flow, wire_len, vlan):
        left = self.left.test(flow, wire_len, vlan)
        if left is True:
            return True
        right = self.right.test(flow, wire_len, vlan)
        if right is True:
            return True
        return None if left is None or right is None else False


@dataclass
class _Not(_Node):
    operand: _Node

    def test(self, flow, wire_len, vlan):
        value = self.operand.test(flow, wire_len, vlan)
        return None if value is None else not value


@dataclass
class _Proto(_Node):
    protocol: Optional[int]  # None means "any IP"

    def test(self, flow, wire_len, vlan):
        if flow is None:
            return False
        return self.protocol is None or flow.protocol == self.protocol


@dataclass
class _Host(_Node):
    address: int
    direction: Optional[str]
    protocol: Optional[int]

    def test(self, flow, wire_len, vlan):
        if flow is None or (self.protocol is not None and flow.protocol != self.protocol):
            return False
        if self.direction == _DIR_SRC:
            return flow.src_ip == self.address
        if self.direction == _DIR_DST:
            return flow.dst_ip == self.address
        return self.address in (flow.src_ip, flow.dst_ip)


@dataclass
class _Net(_Node):
    network: int
    mask: int
    direction: Optional[str]
    protocol: Optional[int]

    def test(self, flow, wire_len, vlan):
        if flow is None or (self.protocol is not None and flow.protocol != self.protocol):
            return False
        src_in = (flow.src_ip & self.mask) == self.network
        dst_in = (flow.dst_ip & self.mask) == self.network
        if self.direction == _DIR_SRC:
            return src_in
        if self.direction == _DIR_DST:
            return dst_in
        return src_in or dst_in


@dataclass
class _Port(_Node):
    low: int
    high: int
    direction: Optional[str]
    protocol: Optional[int]

    def test(self, flow, wire_len, vlan):
        if flow is None or (self.protocol is not None and flow.protocol != self.protocol):
            return False
        if flow.protocol not in (IPProtocol.TCP, IPProtocol.UDP):
            return False
        src_in = self.low <= flow.src_port <= self.high
        dst_in = self.low <= flow.dst_port <= self.high
        if self.direction == _DIR_SRC:
            return src_in
        if self.direction == _DIR_DST:
            return dst_in
        return src_in or dst_in


@dataclass
class _Length(_Node):
    limit: int
    less: bool

    def test(self, flow, wire_len, vlan):
        if wire_len is None:
            return None
        return wire_len <= self.limit if self.less else wire_len >= self.limit


@dataclass
class _Vlan(_Node):
    vlan_id: Optional[int]  # None: any tagged frame

    def test(self, flow, wire_len, vlan):
        if wire_len is None:
            return None
        return vlan is not None and (self.vlan_id is None or vlan == self.vlan_id)


class _MatchAll(_Node):
    def test(self, flow, wire_len, vlan):
        return True


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
@dataclass
class _Qualifiers:
    direction: Optional[str] = None
    kind: Optional[str] = None  # host / net / port / portrange
    protocol: Optional[int] = None


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self._tokens = tokens
        self._position = 0
        self._last = _Qualifiers()

    def _peek(self) -> Optional[Tuple[str, str]]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _advance(self) -> Tuple[str, str]:
        token = self._peek()
        if token is None:
            raise BPFError("unexpected end of expression")
        self._position += 1
        return token

    def parse(self) -> _Node:
        node = self._parse_or()
        if self._peek() is not None:
            raise BPFError(f"trailing tokens: {self._tokens[self._position:]}")
        return node

    def _parse_or(self) -> _Node:
        node = self._parse_and()
        while self._peek() == ("word", "or"):
            self._advance()
            node = _Or(node, self._parse_and())
        return node

    def _parse_and(self) -> _Node:
        node = self._parse_unary()
        while True:
            token = self._peek()
            if token == ("word", "and"):
                self._advance()
                node = _And(node, self._parse_unary())
            else:
                break
        return node

    def _parse_unary(self) -> _Node:
        token = self._peek()
        if token is None:
            raise BPFError("unexpected end of expression")
        if token == ("word", "not"):
            self._advance()
            return _Not(self._parse_unary())
        if token[0] == "lparen":
            self._advance()
            node = self._parse_or()
            closing = self._advance()
            if closing[0] != "rparen":
                raise BPFError("missing closing parenthesis")
            return node
        return self._parse_primitive()

    def _parse_primitive(self) -> _Node:
        qualifiers = _Qualifiers()
        token = self._peek()
        # Protocol qualifier (optional).
        if token is not None and token[0] == "word" and token[1] in _PROTO_NAMES:
            qualifiers.protocol = _PROTO_NAMES[token[1]]
            self._advance()
            token = self._peek()
            if token is None or token[0] in ("rparen",) or token[1] in ("and", "or"):
                self._last = qualifiers
                return _Proto(qualifiers.protocol)
        elif token == ("word", "ip"):
            self._advance()
            token = self._peek()
            if token is None or token[0] == "rparen" or token[1] in ("and", "or"):
                return _Proto(None)
        elif token == ("word", "vlan"):
            self._advance()
            token = self._peek()
            if token is not None and token[0] == "number":
                self._advance()
                vlan_id = int(token[1])
                if not 0 <= vlan_id <= 4095:
                    raise BPFError(f"VLAN id out of range: {vlan_id}")
                return _Vlan(vlan_id)
            return _Vlan(None)
        # Direction qualifier (optional).
        if token is not None and token[0] == "word" and token[1] in (_DIR_SRC, _DIR_DST):
            qualifiers.direction = token[1]
            self._advance()
            token = self._peek()
        # Type keyword.
        if token is not None and token[0] == "word" and token[1] in (
            "host",
            "net",
            "port",
            "portrange",
            "less",
            "greater",
        ):
            qualifiers.kind = token[1]
            self._advance()
            token = self._peek()
        if token is None:
            raise BPFError("expected a value at end of expression")

        if qualifiers.kind is None and token[0] in ("number", "range", "ip", "cidr"):
            # Bare value: inherit qualifiers from the previous primitive.
            qualifiers.kind = self._last.kind
            qualifiers.direction = qualifiers.direction or self._last.direction
            if qualifiers.protocol is None:
                qualifiers.protocol = self._last.protocol
            if qualifiers.kind is None:
                raise BPFError(f"bare value with no previous qualifier: {token[1]!r}")
        self._last = qualifiers
        return self._build_primitive(qualifiers)

    @staticmethod
    def _parse_address(value: str) -> int:
        try:
            return ip_to_int(value)
        except ValueError as exc:
            raise BPFError(str(exc)) from exc

    def _build_primitive(self, qualifiers: _Qualifiers) -> _Node:
        kind = qualifiers.kind
        if kind == "host":
            token_kind, value = self._advance()
            if token_kind != "ip":
                raise BPFError(f"host expects an IPv4 address, got {value!r}")
            return _Host(self._parse_address(value), qualifiers.direction, qualifiers.protocol)
        if kind == "net":
            token_kind, value = self._advance()
            if token_kind == "cidr":
                address, prefix = value.split("/")
                prefix_len = int(prefix)
                if not 0 <= prefix_len <= 32:
                    raise BPFError(f"invalid prefix length: {prefix_len}")
                mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF if prefix_len else 0
                network = self._parse_address(address) & mask
                return _Net(network, mask, qualifiers.direction, qualifiers.protocol)
            if token_kind == "ip":
                token = self._peek()
                if token == ("word", "mask"):
                    self._advance()
                    mask_kind, mask_value = self._advance()
                    if mask_kind != "ip":
                        raise BPFError("mask expects a dotted-quad value")
                    mask = self._parse_address(mask_value)
                else:
                    mask = 0xFFFFFFFF
                return _Net(
                    self._parse_address(value) & mask,
                    mask,
                    qualifiers.direction,
                    qualifiers.protocol,
                )
            raise BPFError(f"net expects an address, got {value!r}")
        if kind == "port":
            token_kind, value = self._advance()
            if token_kind != "number":
                raise BPFError(f"port expects a number, got {value!r}")
            port = int(value)
            if not 0 <= port <= 65535:
                raise BPFError(f"port out of range: {port}")
            return _Port(port, port, qualifiers.direction, qualifiers.protocol)
        if kind == "portrange":
            token_kind, value = self._advance()
            if token_kind != "range":
                raise BPFError(f"portrange expects low-high, got {value!r}")
            low, high = (int(part) for part in value.split("-"))
            if low > high or high > 65535:
                raise BPFError(f"invalid port range: {value}")
            return _Port(low, high, qualifiers.direction, qualifiers.protocol)
        if kind in ("less", "greater"):
            token_kind, value = self._advance()
            if token_kind != "number":
                raise BPFError(f"{kind} expects a number, got {value!r}")
            return _Length(int(value), less=(kind == "less"))
        raise BPFError(f"unsupported primitive: {kind!r}")


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
class BPFFilter:
    """A compiled filter expression.

    The empty expression matches everything (like an absent pcap filter).
    """

    def __init__(self, expression: str = ""):
        self.expression = expression.strip()
        if not self.expression:
            self._root: _Node = _MatchAll()
        else:
            self._root = _Parser(_tokenize(self.expression)).parse()

    @property
    def is_match_all(self) -> bool:
        """True when the filter accepts every packet (empty expression).

        The hot path checks this once per batch and skips the
        per-packet :meth:`matches` call entirely — behaviour-preserving
        because a match-all root returns True unconditionally.
        """
        return isinstance(self._root, _MatchAll)

    def matches(self, packet: Packet) -> bool:
        """True if ``packet`` satisfies the expression."""
        return self._root.test(packet.five_tuple, packet.wire_len, packet.vlan_id) is True

    def matches_five_tuple(self, five_tuple: FiveTuple) -> bool:
        """True if a flow with ``five_tuple`` can satisfy the expression.

        A per-frame test (length, VLAN) that would decide the answer
        leaves it True: some frame of the flow may pass it."""
        return self._root.test(five_tuple, None, None) is not False

    def __repr__(self) -> str:
        return f"BPFFilter({self.expression!r})"


def compile_filter(expression: str) -> BPFFilter:
    """Compile ``expression``; raises :class:`BPFError` on bad syntax."""
    return BPFFilter(expression)


def filter_union(filters: Sequence[BPFFilter]) -> BPFFilter:
    """The compiled disjunction of ``filters``: it keeps a packet (or a
    flow) that any of them keeps.

    One filter is its own union, and the union matches everything when
    any part does.  Each part is parenthesized, and a part that compiles
    alone inherits no qualifier from the part before it, so the joined
    expression means exactly the disjunction.
    """
    if not filters:
        raise ValueError("need at least one filter")
    if len(filters) == 1:
        return filters[0]
    if any(part.is_match_all for part in filters):
        return BPFFilter()
    return BPFFilter(" or ".join(f"({part.expression})" for part in filters))
