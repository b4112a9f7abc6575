"""The rational closed forms: the earlier ``cost_model`` functions that kept
eta*N and N as exact ``Fraction``s, verbatim but for the names they call and
for reading the batch size and label width from ``params``, as ``src`` does.

``src`` evaluates every count in integers; these are the reference the tests
hold it to. ``reference_traffic_by_kind(..., exact=True)`` gives the totals
whose ratio rho is and whose crossing N* is, with the hand-off at the exact
eta*N; ``exact=False`` gives the wire counts, the hand-off rounded half to
even as ``round`` rounds a ``Fraction``. ``REFERENCE_EPOCH_COUNTS`` is each
protocol's one-epoch counts written out per protocol, apart from the row
``src`` reads them off.
"""

from fractions import Fraction

from splitfed.cost_model import MessageKind, Protocol, _KINDS, shard_sizes
from splitfed.errors import InvalidParam

# protocol -> (k, p, batch size) -> (records sent up, client-weight hand-offs,
# full-model round trips) in one epoch over k clients and p records
REFERENCE_EPOCH_COUNTS = {
    Protocol.SPLIT_SYNC: lambda k, p, batch: (p, k, 0),
    Protocol.SPLIT_NOSYNC: lambda k, p, batch: (p, 0, 0),
    Protocol.SPLIT_SYNC_BATCH: lambda k, p, batch: (
        p, sum(-(-s // batch) for s in shard_sizes(p, k, strict=False)), 0),
    Protocol.FEDERATED: lambda k, p, batch: (0, 0, k),
}


def reference_epoch_counts(protocol, k, p, batch_size):
    return REFERENCE_EPOCH_COUNTS[protocol](k, p, batch_size)


def reference_client_weights(params):
    return Fraction(params.client_fraction) * Fraction(params.model_params)


def reference_client_param_count(params):
    return round(reference_client_weights(params))


def reference_traffic_by_kind(params, protocol, shard=None, exact=False):
    k, p = (params.clients, params.dataset_size) if shard is None else (1, shard)
    if not exact and params.model_params != int(params.model_params):
        raise InvalidParam(f"wire traffic needs a whole model_params, got {params.model_params}")
    records, hand_offs, round_trips = reference_epoch_counts(protocol, k, p, params.batch_size)
    e = params.epochs
    kinds = dict.fromkeys(_KINDS, 0)
    kinds[MessageKind.ACTIVATIONS] = kinds[MessageKind.GRADIENTS] = records * params.smashed_size * e
    kinds[MessageKind.LABELS] = records * params.label_width * e
    if hand_offs:
        weights = reference_client_weights(params) if exact else reference_client_param_count(params)
        kinds[MessageKind.CLIENT_WEIGHTS] = weights * hand_offs * e
    if round_trips:
        n = Fraction(params.model_params) if exact else int(params.model_params)
        kinds[MessageKind.GLOBAL_WEIGHTS] = n * round_trips * e
        kinds[MessageKind.CLIENT_WEIGHTS] += kinds[MessageKind.GLOBAL_WEIGHTS]
    return kinds
