//! Adam over adapter parameters.
//!
//! Only adapter parameters train in adapter-based fine-tuning, so
//! optimizer state (the `O` component of the paper's memory model) is
//! proportional to `A`, not to the base model.

use menos_tensor::{put_f32s, ByteReader, CheckpointError, GradStore, Tensor};

/// Serializable snapshot of [`Adam`]'s mutable state: hyper-parameters,
/// the bias-correction step count, and both moment buffers.
///
/// Paired with the parameter values themselves (a [`ParamStore`]
/// checkpoint), this is everything needed to resume training
/// bit-identically after a process restart.
///
/// [`ParamStore`]: menos_tensor::ParamStore
#[derive(Debug, Clone, PartialEq)]
pub struct OptimState {
    /// Learning rate at snapshot time.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabilizer.
    pub eps: f32,
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// Per-parameter first moments.
    pub m: Vec<Vec<f32>>,
    /// Per-parameter second moments.
    pub v: Vec<Vec<f32>>,
}

/// Kind tag of a retired SGD state, refused on decode.
const OPTIM_KIND_SGD: u8 = 0;
const OPTIM_KIND_ADAM: u8 = 1;

/// Reads `count (u64)` then per buffer `len (u64) | f32…`. Nothing is
/// reserved from a declared count: each buffer is allocated only once
/// [`ByteReader::f32s`] has seen its bytes, and a count the input
/// cannot back runs out of bytes at the first missing length.
fn read_buffers(r: &mut ByteReader<'_>) -> Result<Vec<Vec<f32>>, CheckpointError> {
    let n = r.u64()?;
    let mut bufs = Vec::new();
    for _ in 0..n {
        let len = r.u64()?;
        bufs.push(r.f32s(len)?);
    }
    Ok(bufs)
}

fn write_buffers(out: &mut Vec<u8>, bufs: &[Vec<f32>]) {
    out.extend((bufs.len() as u64).to_le_bytes());
    for b in bufs {
        out.extend((b.len() as u64).to_le_bytes());
        put_f32s(out, b);
    }
}

impl OptimState {
    /// Serializes to the little-endian byte form embedded in session
    /// snapshots: kind tag `1` (Adam), the hyper-parameters, the step
    /// count, then both length-prefixed moment buffer lists.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![OPTIM_KIND_ADAM];
        out.extend(self.lr.to_le_bytes());
        out.extend(self.beta1.to_le_bytes());
        out.extend(self.beta2.to_le_bytes());
        out.extend(self.eps.to_le_bytes());
        out.extend(self.t.to_le_bytes());
        write_buffers(&mut out, &self.m);
        write_buffers(&mut out, &self.v);
        out
    }

    /// Decodes bytes written by [`to_bytes`](Self::to_bytes),
    /// length-validated and rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on truncation, an unknown kind tag, the
    /// retired SGD tag, or buffer counts/lengths the input cannot back
    /// — never panics, and never allocates more than the input's own
    /// length.
    pub fn from_bytes(bytes: &[u8]) -> Result<OptimState, CheckpointError> {
        let mut c = ByteReader::new(bytes);
        match c.u8()? {
            OPTIM_KIND_ADAM => {}
            // Kept shorter than the smallest SGD image (17 bytes), so
            // refusing one allocates nothing beyond the input.
            OPTIM_KIND_SGD => return Err(CheckpointError::Corrupt("SGD is retired".into())),
            k => return Err(CheckpointError::Corrupt(format!("optimizer kind {k}"))),
        }
        let state = OptimState {
            lr: c.f32()?,
            beta1: c.f32()?,
            beta2: c.f32()?,
            eps: c.f32()?,
            t: c.u64()?,
            m: read_buffers(&mut c)?,
            v: read_buffers(&mut c)?,
        };
        c.finish()?;
        Ok(state)
    }
}

/// Validates that `bufs` line up one-to-one with `params` element
/// counts (the shape contract between a snapshot and the live
/// optimizer it restores into).
fn check_buffers(what: &str, bufs: &[Vec<f32>], params: &[Tensor]) -> Result<(), CheckpointError> {
    if bufs.len() != params.len() {
        return Err(CheckpointError::Corrupt(format!(
            "{what}: {} buffers for {} parameters",
            bufs.len(),
            params.len()
        )));
    }
    for (i, (b, p)) in bufs.iter().zip(params).enumerate() {
        if b.len() != p.elem_count() {
            return Err(CheckpointError::Corrupt(format!(
                "{what}: buffer {i} has {} elements, parameter has {}",
                b.len(),
                p.elem_count()
            )));
        }
    }
    Ok(())
}

/// Adam with bias correction — the paper's fine-tuning optimizer.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Adam::with_betas(params, lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimizer with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or a beta is outside `[0, 1)`.
    fn with_betas(params: Vec<Tensor>, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        let m = params.iter().map(|p| vec![0.0; p.elem_count()]).collect();
        let v = params.iter().map(|p| vec![0.0; p.elem_count()]).collect();
        Adam {
            params,
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m,
            v,
        }
    }

    /// Applies one update step from `grads` to the managed parameters
    /// (in place; the autograd graph is not touched). Parameters
    /// without a gradient are left as they are.
    pub fn step(&mut self, grads: &GradStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let Some(g) = grads.get(p) else { continue };
            let g = g.to_vec();
            let mut w = p.storage().write();
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for j in 0..w.len() {
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g[j];
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g[j] * g[j];
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                w[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    /// Bytes of optimizer state (the two moment buffers), excluding
    /// the parameters themselves.
    pub fn state_bytes(&self) -> u64 {
        // Two moment buffers, 4 bytes per element each.
        self.m
            .iter()
            .zip(self.v.iter())
            .map(|(m, v)| (m.len() + v.len()) as u64 * 4)
            .sum()
    }

    /// Captures the full mutable state (hyper-parameters, step count,
    /// moment buffers) for a durable snapshot.
    pub fn to_state(&self) -> OptimState {
        OptimState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores state captured by [`to_state`](Self::to_state) into
    /// this optimizer, resuming bit-identically.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if the hyper-parameters are outside
    /// the constructor's contract or the buffers do not match the
    /// managed parameters.
    pub fn restore_state(&mut self, state: OptimState) -> Result<(), CheckpointError> {
        let OptimState {
            lr,
            beta1,
            beta2,
            eps,
            t,
            m,
            v,
        } = state;
        if !lr.is_finite()
            || lr <= 0.0
            || !(0.0..1.0).contains(&beta1)
            || !(0.0..1.0).contains(&beta2)
        {
            return Err(CheckpointError::Corrupt(format!(
                "adam hyper-parameters lr={lr} beta1={beta1} beta2={beta2}"
            )));
        }
        check_buffers("adam m", &m, &self.params)?;
        check_buffers("adam v", &v, &self.params)?;
        self.lr = lr;
        self.beta1 = beta1;
        self.beta2 = beta2;
        self.eps = eps;
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `steps` identical steps of the quadratic loss `(w - 3)^2`.
    fn drive(opt: &mut Adam, w: &Tensor, steps: usize) {
        for _ in 0..steps {
            let loss = (&w.add_scalar(-3.0) * &w.add_scalar(-3.0)).sum_all();
            opt.step(&loss.backward());
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = Tensor::var_from_vec(vec![0.0], [1]);
        drive(&mut Adam::new(vec![w.clone()], 0.3), &w, 100);
        let end = w.to_vec()[0];
        assert!((end - 3.0).abs() < 0.05, "w = {end}");
    }

    #[test]
    fn optimizer_ignores_params_without_grads() {
        let w = Tensor::var_from_vec(vec![1.0], [1]);
        let unused = Tensor::var_from_vec(vec![5.0], [1]);
        let mut opt = Adam::new(vec![w.clone(), unused.clone()], 0.1);
        let loss = (&w * &w).sum_all();
        opt.step(&loss.backward());
        assert_eq!(unused.to_vec(), vec![5.0]);
        assert!(w.to_vec()[0] < 1.0);
    }

    #[test]
    fn state_bytes_accounting() {
        let params = vec![Tensor::var_from_vec(vec![0.0; 10], [10])];
        // Adam: m and v, 2 * 10 * 4 bytes.
        assert_eq!(Adam::new(params, 0.1).state_bytes(), 80);
    }

    #[test]
    fn adam_counts_steps() {
        let w = Tensor::var_from_vec(vec![0.0], [1]);
        let mut opt = Adam::new(vec![w.clone()], 0.1);
        assert_eq!(opt.to_state().t, 0);
        let loss = (&w * &w).sum_all();
        opt.step(&loss.backward());
        assert_eq!(opt.to_state().t, 1);
    }

    #[test]
    fn updates_propagate_through_shared_storage() {
        // The optimizer updates the storage in place, so every aliased
        // view of the parameter observes the new value — required for
        // adapters bound into a model structure.
        let w = Tensor::var_from_vec(vec![1.0], [1]);
        let alias = w.detach();
        let mut opt = Adam::new(vec![w.clone()], 0.5);
        let loss = (&w * &w).sum_all();
        opt.step(&loss.backward());
        assert_eq!(alias.to_vec(), w.to_vec());
        assert!(alias.to_vec()[0] < 1.0);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn bad_lr_rejected() {
        Adam::new(vec![], 0.0);
    }

    #[test]
    fn adam_state_round_trips_and_resumes_bit_identically() {
        // Snapshot mid-run, restore into a fresh optimizer over a
        // copied parameter, continue both — trajectories must match
        // bit-for-bit. The cut lands mid-bias-correction: `t` must be
        // restored or the continuation diverges immediately.
        let (total, cut) = (20, 5);
        let w = Tensor::var_from_vec(vec![0.25, -1.5], [2]);
        let mut opt = Adam::new(vec![w.clone()], 0.3);
        drive(&mut opt, &w, cut);

        let state_bytes = opt.to_state().to_bytes();
        let w2 = Tensor::var_from_vec(w.to_vec(), [2]);
        let mut resumed = Adam::new(vec![w2.clone()], 0.3);
        resumed
            .restore_state(OptimState::from_bytes(&state_bytes).unwrap())
            .unwrap();

        drive(&mut opt, &w, total - cut);
        drive(&mut resumed, &w2, total - cut);
        let bits = |t: &Tensor| t.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w), bits(&w2), "restored run diverged");
        assert_eq!(opt.to_state(), resumed.to_state(), "state diverged");
    }

    #[test]
    fn optim_state_rejects_bad_buffers_and_hyper_parameters() {
        let w = Tensor::var_from_vec(vec![0.0; 4], [4]);
        let mut adam = Adam::new(vec![w.clone()], 0.1);
        let good = adam.to_state();

        // Moment buffer count mismatch.
        let mut bad = good.clone();
        bad.m.push(vec![0.0; 4]);
        assert!(adam.restore_state(bad).is_err());

        // Moment buffer sized for a different parameter.
        let mut bad = good.clone();
        bad.v = vec![vec![0.0; 3]];
        assert!(adam.restore_state(bad).is_err());

        // Hyper-parameters outside the constructor's contract.
        let mut bad = good.clone();
        bad.lr = -1.0;
        assert!(adam.restore_state(bad).is_err());
        let mut bad = good;
        bad.beta2 = 1.0;
        assert!(adam.restore_state(bad).is_err());
    }

    #[test]
    fn optim_state_decode_rejects_corruption() {
        let w = Tensor::var_from_vec(vec![0.0; 4], [4]);
        let bytes = Adam::new(vec![w], 0.1).to_state().to_bytes();
        for cut in 0..bytes.len() {
            assert!(OptimState::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Unknown kind tag.
        let mut bad = bytes.clone();
        bad[0] = 7;
        assert!(OptimState::from_bytes(&bad).is_err());
        // Trailing garbage.
        let mut grown = bytes.clone();
        grown.push(0);
        assert!(OptimState::from_bytes(&grown).is_err());
        // Implausible buffer count in the second-moment list, the last
        // field before the final buffer.
        let mut huge = bytes.clone();
        let at = 1 + 16 + 8 + 8 + (8 + 16);
        huge[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(OptimState::from_bytes(&huge).is_err());
    }

    #[test]
    fn retired_sgd_state_is_refused_by_name() {
        // Tag 0 was SGD: lr, momentum, one velocity list.
        let mut sgd = vec![OPTIM_KIND_SGD];
        sgd.extend(0.1f32.to_le_bytes());
        sgd.extend(0.0f32.to_le_bytes());
        sgd.extend(0u64.to_le_bytes());
        match OptimState::from_bytes(&sgd) {
            Err(CheckpointError::Corrupt(why)) => assert!(why.contains("SGD"), "{why}"),
            other => panic!("SGD state decoded as {other:?}"),
        }
    }
}
