"""Frozen reference workload: the benchmark's yardstick for machine speed.

The benchmark times this program between its CLI invocations and scales
every timing by ``REFERENCE_S / median(time of this program)``, which
cancels the minutes-long swings in CPU speed of a shared machine. It does
pure-Python work of the kind ``tfea`` does (string normalization, dict
counting, regex search, JSON round trips) and imports nothing from the
program, so no change to ``src/tfea`` can move it. Do not edit it: a
change here shifts every normalized timing.
"""

import json
import re
import unicodedata

ROUNDS = 30


def main() -> int:
    words = [f"w{i % 211}q{i % 17}" for i in range(6000)]
    text = " ".join(words)
    pattern = re.compile(r"w1\d*q(1|2)\b")
    total = 0
    for _ in range(ROUNDS):
        counts: dict[str, int] = {}
        for word in text.split():
            key = unicodedata.normalize("NFC", word).casefold()
            counts[key] = counts.get(key, 0) + 1
        total += len(pattern.findall(text))
        total += len(json.loads(json.dumps(counts, sort_keys=True)))
        total += sum(sorted(counts.values())[:50])
    print(total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
