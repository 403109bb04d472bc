import multiprocessing
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orgsignals.ingest import MessageEvent

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def mk_event(sender, recipients, hours=0.0, message_id=None, tokens=(),
             in_reply_to=None, subject_key=""):
    """Compact MessageEvent factory for tests; recipients may be bare strings."""
    recips = [(r, 1.0) if isinstance(r, str) else r for r in recipients]
    stamp = T0 + timedelta(seconds=round(hours * 3600))
    if message_id is None:
        message_id = f"<{sender}-{hours}@test>"
    return MessageEvent(
        message_id=message_id,
        timestamp=stamp,
        sender=sender,
        recipients=recips,
        in_reply_to=in_reply_to,
        subject_key=subject_key,
        tokens=list(tokens),
    )


@pytest.fixture
def t0():
    return T0


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fail a test that leaves a worker process of this one running."""
    yield
    assert not multiprocessing.active_children()
