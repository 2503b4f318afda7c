"""The machine's speed, followed with a fixed piece of the benchmark's own Python.

The 2-vCPU virtual machine this benchmark was tuned on switches between a
fast and a slow state every few seconds, and in the slow state the same
work takes up to 1.8 times as long.  So a run times `Speed.probe` between
queries, at least every EVERY_S seconds of queries, and scales each
latency by REFERENCE_S over the mean of the probes just before and just
after it: latencies read as they would at the speed where the probe takes
REFERENCE_S, close to that machine's fast state.  The probe runs only code
from reference.py on fixed inputs, so no change to the library moves it.
"""

from __future__ import annotations

import bisect
import gc
import random
import time

import reference

EVERY_S = 0.25
REFERENCE_S = 0.008


class Speed:
    def __init__(self):
        rng = random.Random(0)
        self.words = ["".join(rng.choice("abcAB") for _ in range(300)) for _ in range(12)]
        lines = ["alphabet: ab"]
        lines += [f"state {i}" + (" initial" if i == 0 else "") + (" accepting" if i % 3 == 0 else "")
                  for i in range(60)]
        lines += [f"trans {i} {c} {(7 * i + ord(c)) % 60}" for i in range(60) for c in "abAB"]
        self.automaton_text = "\n".join(lines)
        self.sent: list[int] = []  # queries sent before each probe
        self.probes: list[float] = []

    def probe(self) -> float:
        """Seconds the fixed work takes now."""
        gc.collect()
        start = time.perf_counter()
        for word in self.words:
            reference.normal_form(word)
            reference.in_omega(word, 3)
            reference.TextAutomaton(self.automaton_text).minimal_size()
        return time.perf_counter() - start

    def mark(self, sent: int) -> None:
        """Probe after the first `sent` queries of the run."""
        self.sent.append(sent)
        self.probes.append(self.probe())

    def scaled(self, latencies: list[float]) -> list[float]:
        """The run's latencies at the reference speed.  Marks must cover
        the run: one before its first query and one after its last."""
        out = []
        for i, seconds in enumerate(latencies):
            after = bisect.bisect_right(self.sent, i)
            mean = (self.probes[after - 1] + self.probes[after]) / 2
            out.append(seconds * REFERENCE_S / mean)
        return out
