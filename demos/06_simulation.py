"""Monte Carlo roundtrips calibrated against the exact joint laws.

The wiretap pipeline draws a seed and message, encodes through the randomized
inverse, decodes through f (never failing), and feeds Eve's channel; the
privacy-amplification pipeline hashes a shared source sample on both sides.
The trials' (z, s, alpha) cells are chi-square tested against the exact joint
laws, read one color at a time.
"""

import numpy as np

import designmosaics as dm

print("Wiretap roundtrip: M1(2,3), identity eavesdropper channel, 5e4 trials")
M = dm.build_m1(2, 3)
cfg = dm.SimConfig(mosaic=M, trials=50000, seed=7, channel=dm.identity_channel(M.v))
res = dm.wiretap_roundtrip(cfg)
print(f"  decode errors: {res.decode_errors} (the inverse is exact by construction)")
print(f"  chi-square p-value of the (z,s,alpha) histogram: {res.pvalues['joint_zsa']:.4f}")
print(f"  empirical I(A^Z,S): {res.empirical['mi_batch_mean']:.4f} "
      f"+/- {res.empirical['mi_batch_se']:.4f}  (exact {res.exact['mutual_information']:.4f})")

print()
print("Same mosaic, symmetric channel with crossover 0.25 (partial leakage)")
cfg = dm.SimConfig(mosaic=M, trials=50000, seed=8, channel=dm.symmetric_channel(M.v, 0.25))
res = dm.wiretap_roundtrip(cfg)
print(f"  decode errors: {res.decode_errors}, p-value {res.pvalues['joint_zsa']:.4f}")
print(f"  empirical I: {res.empirical['mi_batch_mean']:.4f} "
      f"(exact {res.exact['mutual_information']:.4f})")

print()
print("Privacy amplification roundtrip: M4(2,3), random correlated source")
M4 = dm.build_m4(2, 3)
src = dm.random_source(M4.v, 4, np.random.default_rng(5))
cfg = dm.SimConfig(mosaic=M4, trials=50000, seed=9, source=src)
res = dm.pa_roundtrip(cfg)
print(f"  Alice/Bob key agreement: {res.agreement:.0%}")
print(f"  key uniformity p-value: {res.pvalues['key_uniformity']:.4f} "
      f"(the exact marginal is uniform: deviation "
      f"{res.exact['key_uniformity_deviation']:.1e})")
print(f"  joint histogram p-value: {res.pvalues['joint_zsa']:.4f}")
print(f"  empirical worst-key TV {res.empirical['max_tv']:.4f} "
      f"vs exact {res.exact['max_tv']:.4f}")

print()
print("Reproducibility: rerunning with the same seed is bit-identical")
res2 = dm.pa_roundtrip(cfg)
assert res2.to_json() == res.to_json()
print("  ... confirmed.")

print()
print("Convergence sanity: quadrupling the trials roughly halves the batch SE")
for trials in (8000, 32000):
    cfg = dm.SimConfig(mosaic=M, trials=trials, seed=10,
                       channel=dm.symmetric_channel(M.v, 0.25))
    r = dm.wiretap_roundtrip(cfg)
    print(f"  trials {trials:>6}: SE {r.empirical['mi_batch_se']:.5f}")
