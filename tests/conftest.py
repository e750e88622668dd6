import signal
import threading
import time

import pytest

from .helpers import liot_threads

LEAK_GRACE_SECONDS = 1.0

# A shell starts a background job with SIGINT ignored, and a child process
# keeps an ignored signal ignored. Restore the handler, so that the `liot run`
# children the tests stop with SIGINT start with SIGINT at its default.
if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
    signal.signal(signal.SIGINT, signal.default_int_handler)


@pytest.fixture(autouse=True)
def no_leaked_liot_threads():
    """Fail a test that leaves a ``liot-*`` thread it started running."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + LEAK_GRACE_SECONDS
    while liot_threads(before) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert liot_threads(before) == [], "the test left these threads running"
