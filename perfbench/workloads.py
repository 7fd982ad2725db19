"""The benchmark's workloads: inputs from a seed, one iteration, its digest.

Each workload fixes every size (agents, steps, replicas), so call counts do
not depend on the seed; the seed only picks the random streams. A seed maps
to one of VARIANTS input variants, and the digest of every variant's output
was recorded in reference_digests.json when the benchmark was defined, so any
seed can be checked against a committed reference.

infocbo is imported inside the functions: a set-up probe times those imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

VARIANTS = 64

# host-speed probes (agents, steps, reference seconds); see hostspeed.py.
# Each workload's probe runs at its own agent count, so the probe's numpy
# call mix and array sizes resemble the workload's.


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def sim_seed(base: int, seed: int) -> int:
    return base + variant_of(seed)


class Workload:
    name = ""

    def prepare(self, inputs) -> None:
        """Untimed work before each iteration."""


class MeanfieldReplicas(Workload):
    """Weak-form residual replica study at N = 250, a snapshot every step.

    The shape of acceptance criterion 5 on a shorter horizon (50 steps, not
    200) and at the study's minimum of 30 replicas, so one iteration takes
    about half a second. Per-call overhead of small numpy arrays dominates.
    """

    name = "meanfield_replicas"
    probe = (250, 400, 0.0286)
    n_particles = 250
    t_end = 0.5
    replicas = 30

    def setup(self, seed: int, workdir: Path):
        from infocbo import diagnostics, validation

        config = replace(
            validation.meanfield_config(),
            n_particles=self.n_particles,
            t_end=self.t_end,
            seed=sim_seed(0x5EED0000, seed),
        )
        return config, diagnostics.gaussian_bump(validation.MEANFIELD_BUMP_SCALE)

    def agent_steps(self, inputs) -> int:
        config, _ = inputs
        return config.n_particles * config.n_steps * self.replicas

    def iterate(self, inputs):
        from infocbo import diagnostics

        config, phi = inputs
        return diagnostics.g_phi_scaling_study(
            config, [config.n_particles], self.replicas, phi, snapshot_stride=1
        )

    def digest(self, inputs, output) -> str:
        text = ";".join(
            f"{n}:{s.mean.hex()}:{s.variance.hex()}:{s.stderr.hex()}"
            for n, s in sorted(output.items())
        )
        return hashlib.sha256(text.encode()).hexdigest()


class LargeEnsemble(Workload):
    """One run of 100k agents on the concentration config at sharpness 64.

    Every step is recorded with one ball radius. Arithmetic on (N, d) arrays
    dominates; with a single replica, replica batching has nothing to batch.
    """

    name = "large_ensemble"
    probe = (100_000, 2, 0.039)
    n_particles = 100_000
    t_end = 0.1
    sharpness = 64.0

    def setup(self, seed: int, workdir: Path):
        from infocbo import validation

        config = replace(
            validation.concentration_config(),
            n_particles=self.n_particles,
            t_end=self.t_end,
            sharpness=self.sharpness,
            seed=sim_seed(0x1A6E0000, seed),
        )
        return config, (validation.MASS_RADIUS,)

    def agent_steps(self, inputs) -> int:
        config, _ = inputs
        return config.n_particles * config.n_steps

    def iterate(self, inputs):
        from infocbo import sde

        config, radii = inputs
        return sde.simulate(config, record_stride=1, ball_radii=radii)

    def digest(self, inputs, output) -> str:
        return hashlib.sha256(output.to_csv().encode()).hexdigest()


class HarnessCli(Workload):
    """`infocbo run` on a flat config: parse, replicas, CSVs, checks, manifest.

    Auxiliary mode (Gibbs consensus is skipped), the crowd-coupled kernel,
    rastrigin, 64 agents over 1000 steps recorded every step, three ball
    radii, all four checks and four replicas, in one worker process.
    """

    name = "harness_cli"
    probe = (64, 400, 0.025)
    replicas = 4

    def flat_config(self, seed: int) -> dict:
        dt, t_end = 0.01, 10.0
        return {
            "sim.d": 2,
            "sim.N": 64,
            "sim.dt": dt,
            "sim.t_end": t_end,
            "sim.seed": sim_seed(0xC11C0000, seed),
            "sim.noise_strength": 0.5,
            "sim.mode": "auxiliary",
            "objective.name": "rastrigin",
            "kernel.variant": "crowd-coupled",
            "kernel.a": 1.0,
            "kernel.b": 1.0,
            "init.spatial": "gaussian",
            "init.center": [1.0, -0.5],
            "init.spread": 0.8,
            "init.lambda": "uniform",
            "init.lambda_min": 0.1,
            "init.lambda_max": 0.4,
            "observers.stride": 1,
            "observers.snapshot_stride": round(t_end / dt),
            "observers.ball_radii": [0.5, 1.0, 2.0],
            "run.replicas": self.replicas,
            "run.checks": ["mean_decay", "second_moment_bound",
                           "lambda_persistence", "mass_bound"],
        }

    def setup(self, seed: int, workdir: Path):
        from infocbo import cli, harness  # noqa: F401  (the CLI's imports)

        flat = self.flat_config(seed)
        experiment = harness.parse_flat_config(flat)
        return flat, experiment, workdir

    def prepare(self, inputs) -> None:
        """Write the config file; drop old artifacts but keep the manifest, so
        every iteration is a forced rerun whose outputs are all its own."""
        flat, _, workdir = inputs
        out = workdir / "run"
        out.mkdir(parents=True, exist_ok=True)
        (workdir / "config.json").write_text(json.dumps(flat))
        for path in self.artifacts(out):
            path.unlink()

    def agent_steps(self, inputs) -> int:
        _, experiment, _ = inputs
        return experiment.sim.n_particles * experiment.sim.n_steps * experiment.replicas

    def iterate(self, inputs):
        from infocbo import cli

        _, _, workdir = inputs
        argv = ["run", str(workdir / "config.json"), "--out", str(workdir / "run"),
                "--force", "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code

    @staticmethod
    def artifacts(out: Path) -> list[Path]:
        return sorted([*out.glob("replica_*.csv"), *out.glob("check_*.json")])

    def digest(self, inputs, output) -> str:
        # the manifest carries timestamps, so it is left out
        _, _, workdir = inputs
        h = hashlib.sha256(f"exit={output}\n".encode())
        for path in self.artifacts(workdir / "run"):
            h.update(f"{path.name}\n".encode())
            h.update(path.read_bytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (MeanfieldReplicas(), LargeEnsemble(), HarnessCli())}

REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def verify(digest: str, references: dict, workload: str, seed: int) -> bool:
    """Whether an iteration's output digest equals the committed reference."""
    return references[workload][variant_of(seed)] == digest
