"""Emoticon polarity tables.

One place for the distant-supervision markers so the tokenizer and the
classifier cannot drift apart.
"""

POSITIVE = (":)", ":-)", ":D", "=)", ";)")
NEGATIVE = (":(", ":-(", ":'(", "=(")
ALL = POSITIVE + NEGATIVE
