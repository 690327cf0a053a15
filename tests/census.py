"""The construction census: every eligible order up to 10**4, built and witnessed.

For each odd n <= 10**4 with 2n+1 prime, in enumerate_eligible's order, it
runs build_starter(n) under the smallest primitive root and then
witness_certificate; both re-run their checks and raise on a defect.  It pins
the number of orders, the total of their terrace vertices, and the sha256 of
the UTF-8 stream of lines "n root v_0,v_1,...,v_{n-1}\\n".  A seeded sample of
orders is checked against the iterated-power oracles of tests/helpers.py: the
log table, the terrace and every witness.  It takes 25-40 s on a 2-CPU
x86-64 host under Python 3.11, so it runs outside tier-1:

    PYTHONPATH=src:tests python tests/census.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys

from helpers import power_table_logs, witness_oracle

from odckit import build_starter, enumerate_eligible, witness_certificate

TOP = 10**4
ORDERS = 1_135
VERTICES = 5_279_497
SHA256 = "3310e0cece8e784d546bac61a2281d175f837530691c68879eff46a4a00d755f"
SAMPLE_SEED = 2025
SAMPLE_SIZE = 10


def _oracle_mismatch(inst, cert) -> str | None:
    """What differs from the iterated-power oracles for one instance, or None."""
    n, g = inst.n, inst.root
    logs = power_table_logs(g, 2 * n + 1)
    if inst.log_table[1:] != tuple(logs[y] for y in range(1, 2 * n + 1)):
        return "log table differs from iterated powers"
    if inst.terrace.vertices != tuple(logs[y] % n for y in range(1, n + 1)):
        return "terrace differs from iterated powers"
    want = witness_oracle(n, g)
    got = {k: dataclasses.astuple(w) for k, w in cert.items()}
    if got != want:
        k = next(k for k in want if got.get(k) != want[k])
        return f"k={k}: witness {got.get(k)} differs from the oracle's {want[k]}"
    return None


def main() -> int:
    orders = enumerate_eligible(3, TOP)
    sample = set(random.Random(SAMPLE_SEED).sample(orders, SAMPLE_SIZE))
    digest = hashlib.sha256()
    vertices = 0
    failed = []
    for n in orders:
        inst = build_starter(n)
        cert = witness_certificate(inst)
        terrace = inst.terrace.vertices
        digest.update(f"{n} {inst.root} {','.join(map(str, terrace))}\n".encode())
        vertices += len(terrace)
        if n in sample and (why := _oracle_mismatch(inst, cert)) is not None:
            failed.append(f"n={n}, root={inst.root}: {why}")
    got = (len(orders), vertices, digest.hexdigest())
    want = (ORDERS, VERTICES, SHA256)
    if got != want:
        failed.append(f"census: got {got}, want {want}")
    for line in failed:
        print(line, file=sys.stderr)
    if failed:
        return 1
    print(f"{len(orders)} orders up to {TOP}, {vertices} vertices, sha256 {digest.hexdigest()}; "
          f"orders {sorted(sample)} match the oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
