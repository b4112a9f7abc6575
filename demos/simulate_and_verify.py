#!/usr/bin/env python3
"""Run the protocol simulator and cross-check the ledger against the formulas.

The simulator moves real tensors through a real (tiny) network; every message
is logged with the actual payload size. The formulas come from an independent
code path, so agreement here is a genuine cross-validation.
"""

from dataclasses import replace
from itertools import islice

from splitfed import (
    MessageKind,
    ModelSpec,
    Protocol,
    ScenarioParams,
    comm_report,
    measured_comm,
    partition_dataset,
    random_dataset,
    run_federated_training,
    run_split_training,
    verify_against_model,
)

SPEC = ModelSpec((4, 3, 2))
CUT = 1
CLIENTS, RECORDS, SEED = 2, 6, 42
LABELS = SPEC.output_width  # label scalars each record sends; the ledger check counts them

x, y = random_dataset(SPEC, RECORDS, SEED)
shards = partition_dataset(x, y, CLIENTS)
params = ScenarioParams.from_model(SPEC, CUT, clients=CLIENTS, dataset_size=RECORDS)
print(f"model [4,3,2] cut at {CUT}: N={params.model_params}, q={params.smashed_size}, "
      f"eta={params.client_fraction} -> {params.client_param_count} client-side weights")

print()
print("=" * 72)
print("1. Split training with epoch-level weight sharing")
print("=" * 72)
run = run_split_training(SPEC, CUT, shards, Protocol.SPLIT_SYNC,
                         epochs=1, lr=0.01, seed=SEED)
print("first few ledger events:")
for m in islice(run.ledger, 5):
    print(f"  epoch {m.epoch}  {m.sender:>8} -> {m.receiver:<8} {m.kind.value:<14} {m.scalar_count}")
print(f"  ... {len(run.ledger)} events total")
totals = run.ledger.totals_by_kind()
for kind, value in totals.items():
    print(f"  {kind.value:<14} {value}")
formula = comm_report(params, Protocol.SPLIT_SYNC)
measured = measured_comm(run.ledger, params, Protocol.SPLIT_SYNC)
print(f"ledger total excluding labels: {measured.total_scalars}")
print(f"closed form 2pq + eta*N*K:     {formula.total_scalars}")
verdict = verify_against_model(run.ledger, replace(params, label_width=LABELS), Protocol.SPLIT_SYNC)
print(f"verification: {verdict.describe()}")
print(f"per-epoch training loss: {[round(l, 4) for l in run.losses]}")

print()
print("=" * 72)
print("2. Alternating epochs, no client weight sharing")
print("=" * 72)
cycle = ScenarioParams.from_model(SPEC, CUT, clients=CLIENTS, dataset_size=RECORDS, epochs=CLIENTS)
run = run_split_training(SPEC, CUT, shards, Protocol.SPLIT_NOSYNC,
                         epochs=CLIENTS, lr=0.01, seed=SEED)
print(f"ClientWeights messages logged: {run.ledger.totals_by_kind()[MessageKind.CLIENT_WEIGHTS]} "
      f"(this variant never shares client weights)")
measured = measured_comm(run.ledger, cycle, Protocol.SPLIT_NOSYNC)
print(f"ledger total over a full K-epoch cycle: {measured.total_scalars}")
print(f"closed form 2pq (one data pass):        {comm_report(params, Protocol.SPLIT_NOSYNC).total_scalars}")
verdict = verify_against_model(run.ledger, replace(cycle, label_width=LABELS), Protocol.SPLIT_NOSYNC)
print(f"verification: {verdict.describe()}")

print()
print("=" * 72)
print("3. Federated averaging")
print("=" * 72)
rounds = 5
fed_params = ScenarioParams.from_model(SPEC, CUT, clients=CLIENTS, dataset_size=RECORDS, epochs=rounds)
run = run_federated_training(SPEC, shards, rounds=rounds, local_lr=0.01, seed=SEED)
measured = measured_comm(run.ledger, fed_params, Protocol.FEDERATED)
print(f"ledger total over {rounds} rounds: {measured.total_scalars}")
print(f"closed form 2KN per round:   {comm_report(fed_params, Protocol.FEDERATED).total_scalars}")
verdict = verify_against_model(run.ledger, replace(fed_params, label_width=LABELS), Protocol.FEDERATED)
print(f"verification: {verdict.describe()}")
print(f"measured per-client max: {measured.per_client_scalars} scalars "
      f"(= 2N per round x {rounds} rounds)")
