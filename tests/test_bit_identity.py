"""The bit-identity gate: one fixed grid of simulator runs, hashed into two digests.

The grid runs every protocol x every activation x every cut of three small
models, over (K, p, batch) cells with uneven shards and batches above 1, for
3 epochs, plus batch-1 sync and federated runs of a 768-wide model so that
the batch-1 einsum kernel is inside the digest.

* The ledger digest hashes every ledger row of every run. Rows are exact
  integers, so it is the same on every machine, and the test pins it.
* The float digest hashes each run's final weight vectors and its losses as
  float64 bytes. numpy and BLAS choose their SIMD kernels per CPU at run
  time, so a sigmoid run's last bits may differ between machines. It is not
  pinned: compare it between two revisions on one machine.

``python tests/test_bit_identity.py`` prints both digests. A change whose
bits differ on purpose updates ``LEDGER_DIGEST`` and records the old and new
digests, with the reason.
"""

import hashlib
import time

import numpy as np

from splitfed import (
    Activation,
    ModelSpec,
    Protocol,
    partition_dataset,
    random_dataset,
    run_federated_training,
    run_split_training,
)

LEDGER_DIGEST = "6557b829616160429ae6d76842f36f9ad1224b584e22c932f805b3903d7a962b"

MODELS = ((4, 3, 2), (5, 4, 3, 2), (6, 7, 5, 4, 3))
CELLS = ((1, 5, 1), (3, 10, 1), (3, 10, 3), (4, 9, 2))  # (K, p, batch): uneven shards, batch > 1
EPOCHS, LR, SEED = 3, 0.05, 7
WIDE = (768, 256, 10)
WIDE_CLIENTS, WIDE_RECORDS = 2, 4


def _runs():
    """Every run of the grid, in a fixed order: (spec, cut, protocol, K, p, batch)."""
    for widths in MODELS:
        for activation in Activation:
            spec = ModelSpec(widths, activation)
            for k, p, batch in CELLS:
                for protocol in Protocol:
                    cuts = [None] if protocol is Protocol.FEDERATED else range(1, spec.weight_layers)
                    for cut in cuts:
                        yield spec, cut, protocol, k, p, batch
    wide = ModelSpec(WIDE)
    yield wide, 1, Protocol.SPLIT_SYNC, WIDE_CLIENTS, WIDE_RECORDS, 1
    yield wide, None, Protocol.FEDERATED, WIDE_CLIENTS, WIDE_RECORDS, 1


def digests() -> tuple[str, str, int]:
    """(ledger digest, float digest, run count) of the grid."""
    ledger_hash, float_hash = hashlib.sha256(), hashlib.sha256()
    runs = 0
    for spec, cut, protocol, k, p, batch in _runs():
        widths = ",".join(map(str, spec.layer_widths))
        header = f"run {widths} {spec.activation.value} cut={cut} {protocol.value} K={k} p={p} batch={batch}\n"
        shards = partition_dataset(*random_dataset(spec, p, SEED), k, strict=False)
        if protocol is Protocol.FEDERATED:
            run = run_federated_training(spec, shards, rounds=EPOCHS, local_lr=LR, seed=SEED, batch_size=batch)
        else:
            run = run_split_training(spec, cut, shards, protocol, epochs=EPOCHS, lr=LR, seed=SEED,
                                     batch_size=batch)
        vectors, losses = [*run.client_params, run.server_params], run.losses
        ledger_hash.update(header.encode())
        for epoch, sender, receiver, kind, count in run.ledger:
            ledger_hash.update(f"{epoch},{sender},{receiver},{kind.value},{count}\n".encode())
        float_hash.update(header.encode())
        for vec in vectors:
            float_hash.update(np.ascontiguousarray(vec, dtype=np.float64).tobytes())
        float_hash.update(np.asarray(losses, dtype=np.float64).tobytes())
        runs += 1
    return ledger_hash.hexdigest(), float_hash.hexdigest(), runs


def test_ledger_digest_is_pinned():
    ledger, _, runs = digests()
    assert runs == 254
    assert ledger == LEDGER_DIGEST


if __name__ == "__main__":
    start = time.perf_counter()
    ledger, floats, runs = digests()
    print(f"runs:          {runs} ({time.perf_counter() - start:.2f} s)")
    print(f"ledger digest: {ledger}")
    print(f"float digest:  {floats}")
