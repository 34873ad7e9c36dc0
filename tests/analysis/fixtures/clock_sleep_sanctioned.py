"""Fixture: the same sleep-poll inside a sanctioned transport module.

Clean only when the analyzing rule's sanctioned-module list includes
this file; under the default list the sleep is reported like any other
wall-clock call.
"""

# springlint: wall-clock-module -- this fixture stands in for a transport
# loop that waits on a real peer process between liveness checks.

import time


def wait_for_exit(process, poll_s):
    while process.is_alive():
        time.sleep(poll_s)
