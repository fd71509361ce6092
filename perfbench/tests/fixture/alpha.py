"""Boundary-call fixture, layer ``alpha``: calls into ``beta``."""

import beta


def drive(n):
    for _ in range(n):
        beta.leaf()
    beta.fanout(3)


def callback():
    return 1
