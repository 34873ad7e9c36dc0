"""Fixture: host-time waits in a simulated-path module.

A sleep-poll never *reads* the wall clock, which is how one sat in
``subcontracts/shm.py`` for fourteen PRs under a rule that banned only
clock reads.  Both spellings must be caught.
"""

import time
from time import sleep as nap


def poll_until(ready, poll_s):
    while not ready():
        time.sleep(poll_s)


def aliased_poll(ready):
    while not ready():
        nap(0.001)
