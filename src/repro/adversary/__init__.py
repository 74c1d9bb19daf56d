"""Adversary simulations used to validate privacy guarantees empirically."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "module_attack": (
            "AttackReport",
            "CandidateSet",
            "ModuleFunctionAttack",
            "attack_curve",
        ),
        "structure_attack": (
            "StructureAttackReport",
            "attack_after_edge_deletion",
            "infer_reachability",
            "structure_attack",
        ),
    },
)
