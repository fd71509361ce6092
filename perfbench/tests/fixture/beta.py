"""Boundary-call fixture, layer ``beta``: one intra-layer call per
``leaf`` and three calls back into ``alpha`` per ``fanout``."""

import alpha


def leaf():
    return helper()


def helper():
    return 0


def fanout(k):
    for _ in range(k):
        alpha.callback()
