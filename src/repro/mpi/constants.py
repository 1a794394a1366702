"""Wildcards and sentinels, mirroring the MPI constants the paper's
interface relies on (``MPI_ANY_SOURCE``, ``MPI_ANY_TAG``)."""

#: matches a message from any source rank
ANY_SOURCE = -1
#: matches a message with any tag
ANY_TAG = -1
#: a null process: sends/receives to it complete immediately with no data
PROC_NULL = -2

#: header bytes charged for control-only protocol packets
EAGER_HEADER = 32
RTS_BYTES = 32
CTS_BYTES = 16


def wildcard_match(want_source: int, want_tag: int, source: int,
                   tag: int) -> bool:
    """The matching rule (§IV): does an arrival from ``source`` with
    ``tag`` satisfy a request for ``want_source`` / ``want_tag``, either
    of which may be a wildcard?  (A notification must also name the
    request's window.)"""
    return ((want_source == ANY_SOURCE or want_source == source)
            and (want_tag == ANY_TAG or want_tag == tag))
