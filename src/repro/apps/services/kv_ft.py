"""The KV service as the failure experiments run it.

:func:`run_kv_ft` is :func:`repro.apps.services.kv.run_kv` with the
defaults of the availability experiments: every get reply is verified
against the values ever written to its key, and each server ships a
buddy checkpoint every eighth apply.  The programs, the fault-plan
validation and the result surface are ``run_kv``'s.
"""

from __future__ import annotations

from repro.apps.services.kv import run_kv


def run_kv_ft(*, verify: bool = True, ckpt_every: int = 8, **kwargs) -> dict:
    """``run_kv`` with reply verification and buddy checkpoints on."""
    return run_kv(verify=verify, ckpt_every=ckpt_every, **kwargs)
