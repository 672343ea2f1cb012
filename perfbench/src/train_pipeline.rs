//! The train phase: label data with `generate_dataset_with`
//! (`GenConfig::seen()`, `nproc` workers), then `train` a fresh model for
//! a fixed number of epochs with early stopping off.
//!
//! Each round generates a dataset under its own seed, then trains a fresh
//! model on that dataset's first samples, so the epoch time averages over
//! many training sets rather than resting on one seed's plans. Round 0's
//! training job is run once more at the end and must report bitwise the
//! same losses.

use std::time::Instant;

use zt_core::{
    generate_dataset_with, train, Dataset, GenConfig, GenPlan, ModelConfig, TrainConfig,
    ZeroTuneModel,
};

use crate::stats::Summary;
use crate::{mix, nproc, secs, setup_metric, Ctx, Metric, Outcome, Slices};

pub const GEN_SAMPLES: usize = 2048;
pub const TRAIN_SAMPLES: usize = 256;
pub const EPOCHS: usize = 2;
/// Samples regenerated with one worker and compared bit for bit.
const PREFIX: usize = 512;
const MIN_ROUNDS: usize = 3;
const SETUP_REPS: usize = 25;

pub fn gen_config() -> GenConfig {
    GenConfig {
        strict: false,
        ..GenConfig::seen()
    }
}

pub fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        patience: 0,
        strict: false,
        ..TrainConfig::default()
    }
}

/// Seed of datagen round `r`.
pub fn round_seed(seed: u64, r: u64) -> u64 {
    mix(seed ^ 0xDA7A, r)
}

/// A round's training set: the first [`TRAIN_SAMPLES`] of its dataset.
pub fn training_set(round: &Dataset) -> Dataset {
    Dataset::new(round.samples[..TRAIN_SAMPLES].to_vec())
}

pub struct Train {
    pub setup: Metric,
    seed: u64,
    cfg: GenConfig,
    round: u64,
    round0: Option<Dataset>,
    /// `(slice, samples, seconds)` per datagen call.
    datagen: Vec<(usize, f64, f64)>,
    /// `(slice, epochs, seconds)` per training job.
    training: Vec<(usize, f64, f64)>,
    slices: usize,
    first_losses: Option<Vec<u64>>,
    epochs_run: u64,
    problems: Vec<String>,
}

impl Train {
    /// Set-up: build the generator configuration and a fresh model.
    pub fn start(ctx: &Ctx) -> Train {
        let setup = setup_metric(SETUP_REPS, || {
            let t = Instant::now();
            std::hint::black_box(gen_config());
            std::hint::black_box(ZeroTuneModel::new(ModelConfig::default()));
            secs(t)
        });
        Train {
            setup,
            seed: ctx.seed,
            cfg: gen_config(),
            round: 0,
            round0: None,
            datagen: Vec::new(),
            training: Vec::new(),
            slices: 0,
            first_losses: None,
            epochs_run: 0,
            problems: Vec::new(),
        }
    }

    /// Rounds until `until`: one datagen call under the round's seed, then
    /// a training job on its first samples.
    pub fn step(&mut self, ctx: &Ctx, until: Instant) {
        let workers = GenPlan::serial().with_workers(nproc());
        let slice = self.slices;
        self.slices += 1;
        while (self.round as usize) < MIN_ROUNDS || Instant::now() < until {
            let r = self.round;
            self.round += 1;
            let t = Instant::now();
            let d =
                generate_dataset_with(&self.cfg, GEN_SAMPLES, round_seed(self.seed, r), &workers);
            let el = t.elapsed();
            ctx.spans.record("datagen.call", el);
            self.datagen.push((slice, d.len() as f64, el.as_secs_f64()));
            if d.len() != GEN_SAMPLES {
                self.problems
                    .push(format!("round {r} generated {} samples", d.len()));
            }
            let data = training_set(&d);
            self.round0.get_or_insert(d);

            let mut model = ZeroTuneModel::new(ModelConfig::default());
            let t = Instant::now();
            let rep = train(&mut model, &data, &train_config());
            let el = t.elapsed();
            ctx.spans.record("train.call", el);
            // The benchmark's own clock around the whole call, so nothing
            // train does is left out of the epoch time.
            self.training
                .push((slice, rep.epochs_run as f64, el.as_secs_f64()));
            let last = rep.train_loss.last().copied().unwrap_or(f64::NAN);
            if !(last.is_finite() && rep.epochs_run == EPOCHS) {
                self.problems.push(format!(
                    "round {r}: training ran {} epochs, final loss {last}",
                    rep.epochs_run
                ));
            }
            if r == 0 {
                self.epochs_run = rep.epochs_run as u64;
                self.first_losses = Some(loss_bits(&rep.train_loss));
            }
        }
    }

    /// Checks and counts cover every round; timings come from the kept
    /// slices, each at its host-speed scale.
    pub fn finish(self, out: &mut Outcome, sl: &Slices) {
        // Every round is one datagen call and one training job.
        out.attempted += 2 * self.round;
        out.problems.extend(self.problems);
        let round0 = self.round0.expect("one round ran");

        // Round 0's training job, run again, must repeat bit for bit.
        let mut model = ZeroTuneModel::new(ModelConfig::default());
        let rep = train(&mut model, &training_set(&round0), &train_config());
        out.check(
            self.first_losses == Some(loss_bits(&rep.train_loss)),
            || "the same training job reported different losses".into(),
        );

        // nproc workers and one worker must agree bit for bit on a prefix.
        let serial = generate_dataset_with(
            &self.cfg,
            PREFIX,
            round_seed(self.seed, 0),
            &GenPlan::serial(),
        );
        let same = serial
            .samples
            .iter()
            .zip(&round0.samples)
            .all(|(a, b)| serde_json::to_string(a).ok() == serde_json::to_string(b).ok());
        out.check(same && serial.len() == PREFIX, || {
            format!(
                "the first {PREFIX} samples differ between 1 and {} workers",
                nproc()
            )
        });

        out.ledger.extend([
            ("datagen.samples", round0.len() as u64),
            ("dspsim.solves", solves(&self.cfg, round_seed(self.seed, 0))),
            ("train.epochs_run", self.epochs_run),
        ]);

        // Rates over all kept calls together: one round's samples and
        // training set differ in size and cost, so a median of per-call
        // rates would move with the rounds a run happens to keep.
        let kept = |calls: &[(usize, f64, f64)]| -> (f64, f64, Vec<(f64, f64)>) {
            let kept: Vec<(f64, f64)> = calls
                .iter()
                .filter(|c| sl.kept(c.0))
                .map(|c| (c.1, c.2 * sl.scale(c.0)))
                .collect();
            let work = kept.iter().map(|c| c.0).sum();
            let secs = kept.iter().map(|c| c.1).sum();
            (work, secs, kept)
        };
        let (samples, gen_s, gen_calls) = kept(&self.datagen);
        let (epochs, train_s, train_calls) = kept(&self.training);
        // Each metric's record keeps the per-call figures, in its unit.
        let per_sample = gen_calls.iter().map(|(n, s)| n / s).collect();
        let per_epoch = train_calls.iter().map(|(n, s)| s / n).collect();
        match (Summary::new(per_sample), Summary::new(per_epoch)) {
            (Ok(rates), Ok(per_epoch)) => {
                out.metrics.push(Metric {
                    name: "datagen_samples_per_s",
                    unit: "1/s",
                    value: samples / gen_s,
                    dist: Some(rates),
                });
                out.metrics.push(Metric {
                    name: "train_epoch_s",
                    unit: "s",
                    value: train_s / epochs,
                    dist: Some(per_epoch),
                });
            }
            (a, b) => {
                out.problems
                    .push(format!("no timing samples: {:?} / {:?}", a.err(), b.err()))
            }
        }
    }
}

fn loss_bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Simulator solves behind the first [`PREFIX`] samples, read from the
/// program's own telemetry counter (switched on only for this count).
pub fn solves(cfg: &GenConfig, seed: u64) -> u64 {
    use zt_telemetry::{reset, set_mode, snapshot, Mode};
    set_mode(Mode::Summary);
    reset();
    std::hint::black_box(generate_dataset_with(cfg, PREFIX, seed, &GenPlan::serial()));
    let n = snapshot().counters.get("sim.solves").copied().unwrap_or(0);
    set_mode(Mode::Off);
    reset();
    n
}
