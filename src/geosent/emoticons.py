"""Emoticon polarity tables.

One place for the distant-supervision markers so the tokenizer and the
classifier cannot drift apart.  PATTERN is the regex alternation both
of them match emoticons with.
"""
import re

POSITIVE = (":)", ":-)", ":D", "=)", ";)")
NEGATIVE = (":(", ":-(", ":'(", "=(")
ALL = POSITIVE + NEGATIVE
# longest first, so an emoticon wins over any shorter one it starts with
PATTERN = "|".join(re.escape(e) for e in sorted(ALL, key=len, reverse=True))
