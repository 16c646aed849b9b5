"""A tour of the two span comparison score (SCS) modes.

SCS is a distance in [0, 1] between two character spans: 0 for identical
spans, 1 for spans with no positive overlap. The analyzer uses it to
decide which gold mention a mislocated predicted filler was aiming at.

Run: python3 demos/span_scores_tour.py
"""

from tfea import GoldEntity, Mention, Span, scs_absolute, scs_geometric
from tfea.matching import MatchIndex
from tfea.spans import ScsMode

PAIRS = [
    ("identical", Span(10, 20), Span(10, 20)),
    ("half overlap", Span(0, 10), Span(5, 15)),
    ("touching, disjoint", Span(0, 5), Span(5, 10)),
    ("nested", Span(0, 20), Span(5, 10)),
    ("one char apart", Span(0, 10), Span(1, 11)),
    ("far apart", Span(0, 4), Span(100, 104)),
    ("zero length operand", Span(3, 3), Span(0, 10)),
]

print(f"{'case':22s} {'absolute':>9s} {'geometric':>10s}")
for name, x, y in PAIRS:
    print(f"{name:22s} {scs_absolute(x, y):9.4f} {scs_geometric(x, y):10.4f}")

print()
print("The geometric mode reacts more sharply to small index shifts,")
print("which is why it is the default: a one-character slip moves the")
print("geometric score to", f"{scs_geometric(Span(0, 10), Span(1, 11)):.4f}",
      "but the absolute score only to", f"{scs_absolute(Span(0, 10), Span(1, 11)):.4f}.")

# Choosing the gold mention a mislocated prediction was aiming at: the match
# index keeps, for each (predicted mention, gold entity) cell below 1, the
# entity mention with the lowest SCS as the span-alteration target.
# Text: "the northern harbor was closed; the harbor reopened".
predicted = Mention("the northern harbor", Span(0, 19))
entity = GoldEntity((Mention("northern harbor", Span(4, 19)), Mention("the harbor", Span(32, 42))))
index = MatchIndex([("pred", predicted)], [("gold", 0, entity)], ScsMode.GEOMETRIC, casefold=True)
match = index.cell("pred", "gold", 0)
print()
print(f"predicted {predicted.text!r} -> nearest gold mention {match.gold_mention.text!r} (SCS {match.score:.4f})")
