"""What the WAL append path raises when a plan's ``crash_after_writes``
fires (:mod:`repro.wal.log`)."""


class InjectedCrash(BaseException):
    """A simulated process death at a write boundary.

    Raised by the WAL append path when a plan's ``crash_after_writes``
    fires: the record's frame has been *partially* written (a torn
    write), exactly as if the process had been killed mid-``write``.
    Derives from ``BaseException`` so no ``except Exception`` cleanup
    handler can "survive" the crash and roll back state the real dead
    process could never have rolled back — crash-point tests catch it
    explicitly, then exercise recovery (:mod:`repro.wal.recovery`).
    """
