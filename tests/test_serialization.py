import json

from repro.offload import OffloadPolicy
from repro.offload.serialization import SCHEMA_VERSION, policy_to_dict, policy_to_json
from repro.quant import QuantConfig


def policy_from_doc(doc: dict) -> OffloadPolicy:
    """Rebuild a policy from the document :func:`policy_to_dict` writes;
    a field the writer dropped or renamed fails the rebuild."""
    doc = dict(doc)
    assert doc.pop("schema") == SCHEMA_VERSION
    for key in ("weight_quant", "kv_quant"):
        doc[key] = None if doc[key] is None else QuantConfig(**doc[key])
    return OffloadPolicy(**doc)


def sample_policy() -> OffloadPolicy:
    return OffloadPolicy(
        wg=0.35, cg=0.5, hg=1.0, attention_on_cpu=False,
        weight_quant=QuantConfig(bits=4, group_size=128),
        kv_quant=QuantConfig(bits=8, group_size=64),
        gpu_batch_size=32, num_gpu_batches=5,
    )


def test_policy_roundtrip_json():
    policy = sample_policy()
    assert policy_from_doc(json.loads(policy_to_json(policy))) == policy


def test_policy_roundtrip_none_quant():
    policy = OffloadPolicy(gpu_batch_size=8, num_gpu_batches=2)
    restored = policy_from_doc(policy_to_dict(policy))
    assert restored == policy
    assert restored.weight_quant is None


def test_policy_resident_quant_roundtrip():
    policy = OffloadPolicy(
        wg=1.0, hg=1.0, weight_quant=QuantConfig(bits=4),
        quantize_resident_weights=True, attention_on_cpu=False,
    )
    assert policy_from_doc(policy_to_dict(policy)) == policy
