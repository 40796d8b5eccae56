"""Aho–Corasick multi-pattern string matching.

The paper's pattern-matching application (§6.5) searches reassembled
streams for 2,120 web-attack strings using the Aho–Corasick algorithm.
This is a full implementation: trie construction, BFS failure links,
output-link merging, and a streaming matcher that carries its state
across chunk boundaries so patterns spanning consecutive chunks are
found when the caller supplies overlapping or continuing data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["Match", "AhoCorasick", "StreamMatcher"]


@dataclass(frozen=True)
class Match:
    """One pattern occurrence: ``end`` is the offset just past the match."""

    pattern_index: int
    pattern: bytes
    end: int

    @property
    def start(self) -> int:
        return self.end - len(self.pattern)


class AhoCorasick:
    """An Aho–Corasick automaton over byte strings.

    Build once with the full pattern set, then call :meth:`search` on
    buffers or :meth:`iter_matches` for streaming use.  The automaton is
    immutable after construction.
    """

    def __init__(self, patterns: Sequence[bytes]):
        if not patterns:
            raise ValueError("need at least one pattern")
        for pattern in patterns:
            if not pattern:
                raise ValueError("empty patterns are not allowed")
        self.patterns: List[bytes] = list(patterns)
        # State 0 is the root.  goto maps (state, byte) via per-state dicts.
        self._goto: List[Dict[int, int]] = [{}]
        self._fail: List[int] = [0]
        self._output: List[List[int]] = [[]]
        self._build_trie()
        self._build_failure_links()

    def _build_trie(self) -> None:
        for index, pattern in enumerate(self.patterns):
            state = 0
            for byte in pattern:
                next_state = self._goto[state].get(byte)
                if next_state is None:
                    self._goto.append({})
                    self._fail.append(0)
                    self._output.append([])
                    next_state = len(self._goto) - 1
                    self._goto[state][byte] = next_state
                state = next_state
            self._output[state].append(index)

    def _build_failure_links(self) -> None:
        queue: deque = deque()
        for next_state in self._goto[0].values():
            self._fail[next_state] = 0
            queue.append(next_state)
        while queue:
            state = queue.popleft()
            for byte, next_state in self._goto[state].items():
                queue.append(next_state)
                fallback = self._fail[state]
                while fallback and byte not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[next_state] = self._goto[fallback].get(byte, 0)
                if self._fail[next_state] == next_state:
                    self._fail[next_state] = 0
                self._output[next_state] = (
                    self._output[next_state] + self._output[self._fail[next_state]]
                )

    # ------------------------------------------------------------------
    @property
    def state_count(self) -> int:
        return len(self._goto)

    def step(self, state: int, byte: int) -> int:
        """Advance the automaton by one input byte."""
        goto = self._goto
        fail = self._fail
        while True:
            next_state = goto[state].get(byte)
            if next_state is not None:
                return next_state
            if state == 0:
                return 0
            state = fail[state]

    def iter_matches(
        self, data: bytes, state: int = 0, base_offset: int = 0
    ) -> Iterator[Tuple[Match, int]]:
        """Yield ``(match, state)`` pairs while scanning ``data``.

        ``state`` lets callers resume across buffer boundaries;
        ``base_offset`` shifts reported offsets into stream coordinates.
        """
        goto = self._goto
        fail = self._fail
        output = self._output
        patterns = self.patterns
        for position, byte in enumerate(data):
            while True:
                next_state = goto[state].get(byte)
                if next_state is not None:
                    state = next_state
                    break
                if state == 0:
                    break
                state = fail[state]
            if output[state]:
                end = base_offset + position + 1
                for pattern_index in output[state]:
                    yield Match(pattern_index, patterns[pattern_index], end), state

    def search(self, data: bytes) -> List[Match]:
        """All matches in one buffer."""
        return [match for match, _ in self.iter_matches(data)]


class StreamMatcher:
    """Streaming wrapper: feed chunks, matches carry stream offsets.

    Scap delivers streams as chunks; a matcher per stream direction
    keeps the automaton state between chunks so patterns spanning chunk
    boundaries are still found (the alternative — Scap's ``overlap``
    parameter — re-scans the tail of the previous chunk instead).
    """

    def __init__(self, automaton: AhoCorasick):
        self._automaton = automaton
        self._state = 0
        self._offset = 0
        self.matches: List[Match] = []

    def feed(self, chunk: bytes) -> List[Match]:
        """Scan one chunk; return (and record) new matches."""
        automaton = self._automaton
        goto = automaton._goto
        fail = automaton._fail
        output = automaton._output
        patterns = automaton.patterns
        state = self._state
        offset = self._offset
        new_matches: List[Match] = []
        for position, byte in enumerate(chunk):
            while True:
                next_state = goto[state].get(byte)
                if next_state is not None:
                    state = next_state
                    break
                if state == 0:
                    break
                state = fail[state]
            if output[state]:
                end = offset + position + 1
                for pattern_index in output[state]:
                    new_matches.append(Match(pattern_index, patterns[pattern_index], end))
        self._state = state
        self._offset = offset + len(chunk)
        self.matches.extend(new_matches)
        return new_matches

    def reset(self) -> None:
        """Restart the matcher at stream offset zero with no matches."""
        self._state = 0
        self._offset = 0
        self.matches.clear()
