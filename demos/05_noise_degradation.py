"""Depolarizing noise: correlation decays as circuits get deeper.

Noise is the exact depolarizing channel on the window density matrix: after
each gate, every qubit it touches keeps its state with probability 1 - p and
takes a uniformly random Pauli otherwise.  Deeper circuits pass through more
channels, so recovery quality falls with the degree; noiseless runs are flat.
"""
from polyshot.bench import noise_config, recovery_run

config = noise_config(
    degrees=(1, 4, 8, 12, 16, 20),
    trials=3,
    points_per_trial=8,
    shots=1024,
    noise_p1=0.001,
    noise_p2=0.005,
)
print(f"two-qubit depolarizing rate p2 = {config.noise_p2}, shots = {config.shots}\n")
report = recovery_run(config)
print("degree  rmse     correlation")
for row in report.per_degree:
    print(f"{row['degree']:>5}  {row['rmse']:.4f}   {row['pearson']:.4f}")

clean = recovery_run(noise_config(
    degrees=(1, 4, 8, 12, 16, 20), trials=3, points_per_trial=8, shots=1024,
    noise_p1=0.0, noise_p2=0.0,
))
print("\nnoiseless reference:")
for row in clean.per_degree:
    print(f"{row['degree']:>5}  {row['rmse']:.4f}   {row['pearson']:.4f}")
